"""Byte-identity gate for the layers around the recurrences: structured
instances and their dense forms, the file writers and readers, structure
detection, and the CLI's exit codes, output and files, all hashed and
compared with tests/golden_io.json.

Its sibling test_golden_bits.py hashes the algorithm outputs; this file
shares its digest.  `experiment prescribed-curves` is left out: its curves
come from np.exp and np.log, so its bytes depend on the platform's libm.  To
record the file again (only for a change that is meant to move bytes, with
the reason in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_io.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from test_golden_bits import _feed, record, require_default_environment

from krylovexact.cli import main
from krylovexact.fileio import read_matrix, read_problem, write_matrix, write_matrix_summary_csv, write_problem
from krylovexact.fp import BINARY32, BINARY64
from krylovexact.harness import ALGORITHMS, _deficient_instance
from krylovexact.problems import STRUCTURES, detect_structure, random_structure, random_structured_problem

GOLDEN = Path(__file__).with_name("golden_io.json")
PRECISIONS = (BINARY64, BINARY32)
SEEDS = (0, 1)


def _shapes(kind):
    """(n, p) pairs of the instance grid."""
    if kind == "blocktridiag":
        return [(n, p) for n in (2, 4) for p in (1, 2)]
    return [(n, 1) for n in (1, 2, 5)]


def _written(writer, obj) -> str:
    out = io.StringIO()
    writer(out, obj)
    return out.getvalue()


def _files(h, T):
    """T's file record, its CSV summary, and what reading the record gives back."""
    text = _written(write_matrix, T)
    _feed(h, (text, _written(write_matrix_summary_csv, T), read_matrix(io.StringIO(text))))


def _detections(h, prob):
    """detect_structure on a Jacobi problem, and with one edge or one start
    entry too many: a chord of the path, a closed cycle, two nonzeros in v."""
    _feed(h, detect_structure(prob.A, prob.v))
    order = prob.P.perm.tolist()
    if len(order) < 3:
        return
    for a, b in ((order[0], order[2]), (order[1], order[-1]), (order[0], order[-1])):
        A = prob.A.copy()
        A[a, b] = A[b, a] = 1
        _feed(h, detect_structure(A, prob.v))
    v = prob.v.copy()
    v[order[1]] = 1
    _feed(h, detect_structure(prob.A, v))


def _cli(h, argv, seen):
    """argv, exit code, stdout, stderr, and every file the command wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in Path().iterdir()}
    written = sorted((name, data.hex()) for name, data in files.items() if seen.get(name) != data)
    seen.update(files)
    _feed(h, (argv, code, out.getvalue(), err.getvalue(), written))


def _commands(kind, precision):
    """gen structured, run --check-exact, gen, convert, and run and check
    structure from --e1 on the matrix file, where run --check-exact detects
    the structure."""
    alg = next(name for name, a in ALGORITHMS.items() if a.kind == kind)
    size = ["--n", "4", "--p", "2"] if kind == "blocktridiag" else ["--n", "5"]
    tag = f"{kind}-{precision.name}"
    gen = [*size, "--seed", "1", "--precision", precision.name, "--out"]
    return [
        ["gen", "structured", "--kind", kind, *gen, f"{tag}-prob.txt"],
        ["run", alg, "--problem", f"{tag}-prob.txt", "--check-exact", "--out", f"{tag}-run.csv"],
        ["gen", kind, *gen, f"{tag}-mat.txt"],
        ["convert", "--in", f"{tag}-prob.txt", "--out", f"{tag}-prob.csv"],
        ["convert", "--in", f"{tag}-mat.txt", "--out", f"{tag}-mat.csv"],
        ["run", alg, "--problem", f"{tag}-mat.txt", "--e1", "--beta1", "0.5", "--out", f"{tag}-e1.csv"],
        ["check", "structure", "--problem", f"{tag}-mat.txt", "--e1", "--precision", precision.name],
        ["check", "structure", "--problem", f"{tag}-prob.txt"],
        ["run", alg, "--problem", f"{tag}-mat.txt", "--e1", "--check-exact", "--out", f"{tag}-detected.csv"],
    ]


def compute() -> dict:
    """{layer/kind/precision: digest} over the whole grid."""
    hashes = {}

    def h(label, precision=None):
        key = label if precision is None else f"{label}/{precision.name}"
        return hashes.setdefault(key, hashlib.sha256())

    for precision in PRECISIONS:
        for kind in STRUCTURES:
            for n, p in _shapes(kind):
                for seed in SEEDS:
                    prob = random_structured_problem(kind, n, seed, precision, p=p)
                    shapes = [prob.T, random_structure(kind, n, seed, precision, p=p, positive_beta=False)]
                    if kind == "jacobi":
                        shapes.append(random_structure(kind, n, seed, precision, spd=True))
                        _detections(h("detection", precision), prob)
                    P = prob.P.to_dense(prob.A.dtype)
                    _feed(h(f"instances/{kind}", precision), (n, p, seed, prob, P, [(T, T.to_dense()) for T in shapes]))
                    text = _written(write_problem, prob)
                    _feed(h(f"files/{kind}", precision), (text, read_problem(io.StringIO(text))))
                    for obj in (*shapes, prob.A, prob.v):
                        _files(h(f"files/{kind}", precision), obj)
        for n, _ in _shapes("jacobi"):
            for seed in SEEDS:
                _feed(h("instances/deficient", precision), (n, seed, _deficient_instance(n, seed, precision)))

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        seen = {}
        for precision in PRECISIONS:
            for kind in STRUCTURES:
                for argv in _commands(kind, precision):
                    _cli(h(f"cli/{kind}", precision), argv, seen)
        for what in ("fig2", "fig3"):
            _cli(h(f"cli/experiment-{what}"), ["experiment", what, "--out", f"{what}.csv"], seen)
        _cli(h("cli/experiment-exactness-sweep"), ["experiment", "exactness-sweep", "--seeds", "1", "--out", "sweep.csv"], seen)
    return {key: hashes[key].hexdigest() for key in sorted(hashes)}


def test_golden_io():
    require_default_environment()
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"bytes moved in {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record(GOLDEN, compute)
