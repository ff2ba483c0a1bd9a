import tomllib
from pathlib import Path

import krylovexact


def test_version_matches_pyproject():
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as f:
        assert krylovexact.__version__ == tomllib.load(f)["project"]["version"]
