"""The benchmark's per-layer tracer patches package functions by name, so a
deleted or renamed traced function breaks it.  This test installs it on the
whole package and checks that every traced name exists, is wrapped, and is
put back on uninstall."""

import importlib.util
import sys
from pathlib import Path

import krylovexact.cli  # noqa: F401  loads every module the tracer patches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_it():
    tracing = _load_tracing()
    modules = {name: m for name, m in sys.modules.items() if name == "krylovexact" or name.startswith("krylovexact.")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError on a traced name the package no longer has
        for targets in tracing.SPANS.values():
            for module, function in targets:
                original = before[f"krylovexact.{module}"][function]
                assert getattr(modules[f"krylovexact.{module}"], function) is not original, f"{module}.{function}"
    finally:
        tracer.uninstall()
    for name, m in modules.items():
        assert vars(m).keys() == before[name].keys(), name
        assert all(vars(m)[attr] is value for attr, value in before[name].items()), name
