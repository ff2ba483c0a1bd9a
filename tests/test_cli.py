import argparse
import contextlib
import csv
import io
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from krylovexact import cli, harness, rational
from krylovexact.cli import _build_parser, main
from krylovexact.fileio import write_matrix, write_problem
from krylovexact.fp import BINARY64, PRECISIONS, norm2
from krylovexact.lanczos import lanczos
from krylovexact.problems import STRUCTURES, NonsymTridiagonal, assemble, random_signed_permutation, random_structured_problem
from rebind import rebind


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def _block_size(kind):
    """gen's --p 2 for a blocktridiag draw; the other kinds take no --p but 1."""
    return ["--p", "2"] if kind == "blocktridiag" else []


def csv_rows(path):
    """The rows of a CSV file, read inside a with block so the file closes."""
    with path.open(newline="") as f:
        return list(csv.reader(f))


def test_gen_run_check_exact_roundtrip(tmp_path, capsys):
    prob = tmp_path / "prob.txt"
    code, _ = run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "8", "--seed", "3", "--out", str(prob))
    assert code == 0
    code, out = run_cli(capsys, "run", "lanczos", "--problem", str(prob), "--check-exact")
    assert code == 0
    assert "exactness check passed: bitwise match" in out.out


def test_gen_spd_jacobi_and_run_cg(tmp_path, capsys):
    mat = tmp_path / "T.txt"
    code, _ = run_cli(capsys, "gen", "jacobi", "--n", "6", "--seed", "1", "--spd", "--out", str(mat))
    assert code == 0
    csv_out = tmp_path / "cg.csv"
    code, out = run_cli(capsys, "run", "cg-hs", "--problem", str(mat), "--e1", "--out", str(csv_out))
    assert code == 0
    rows = csv_rows(csv_out)
    assert rows[0] == ["name", "index", "value", "value_hex"]


def test_run_blocklanczos_check_exact(tmp_path, capsys):
    prob = tmp_path / "blk.txt"
    code, _ = run_cli(capsys, "gen", "structured", "--kind", "blocktridiag", "--n", "8", "--p", "2", "--seed", "2", "--out", str(prob))
    assert code == 0
    code, out = run_cli(capsys, "run", "blocklanczos", "--problem", str(prob), "--check-exact")
    assert code == 0
    assert "passed" in out.out


def test_check_lemma31(capsys):
    code, out = run_cli(capsys, "check", "lemma31", "--samples", "20000")
    assert code == 0
    assert "0 violations" in out.out or "passed" in out.out


def test_check_exactness_small(capsys):
    code, out = run_cli(capsys, "check", "exactness", "--algorithm", "lanczos", "--sizes", "2,5", "--seeds", "3")
    assert code == 0


def test_check_structure_detects(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "6", "--seed", "0", "--out", str(prob))
    code, out = run_cli(capsys, "check", "structure", "--problem", str(prob))
    assert code == 0

    dense = tmp_path / "dense.txt"
    g = np.random.Generator(np.random.Philox(key=11))
    W = g.uniform(-1, 1, (5, 5))
    A = np.triu(W) + np.triu(W, 1).T
    with dense.open("w") as f:
        write_matrix(f, A)
    code, out = run_cli(capsys, "check", "structure", "--problem", str(dense))
    assert code == 1


def test_a_start_vector_with_a_minus_zero_is_not_structured(tmp_path, capsys):
    mat, v = tmp_path / "T.txt", tmp_path / "v.txt"
    run_cli(capsys, "gen", "jacobi", "--n", "5", "--out", str(mat))
    with v.open("w") as f:
        write_matrix(f, np.array([1.0, 0.0, 0.0, -0.0, 0.0]))
    code, out = run_cli(capsys, "check", "structure", "--problem", str(mat), "--v-file", str(v))
    assert code == 1 and "no structure detected" in out.err
    err = _error_exit(capsys, "run", "lanczos", "--problem", str(mat), "--v-file", str(v), "--check-exact")
    assert "input is not a structured" in err


def test_experiment_fig2_csv(tmp_path, capsys):
    out_csv = tmp_path / "fig2.csv"
    code, _ = run_cli(capsys, "experiment", "fig2", "--out", str(out_csv))
    assert code == 0
    rows = csv_rows(out_csv)
    vals = [float(r[3]) for r in rows[1:] if r[2] == "hscg_orth_loss"]
    assert max(vals) > 1e-8
    lan = [float(r[3]) for r in rows[1:] if r[2] == "lanczos_orth_loss"]
    assert lan and max(lan) == 0.0


def test_convert(tmp_path, capsys):
    mat = tmp_path / "T.txt"
    run_cli(capsys, "gen", "jacobi", "--n", "4", "--seed", "0", "--out", str(mat))
    out_csv = tmp_path / "T.csv"
    code, _ = run_cli(capsys, "convert", "--in", str(mat), "--out", str(out_csv))
    assert code == 0
    rows = csv_rows(out_csv)
    assert rows[0] == ["kind", "dims", "index", "value", "value_hex"]
    assert len(rows) == 1 + 4 + 3


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, "run", "lanczos", "--problem", str(tmp_path / "missing.txt"), "--e1")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    code, _ = run_cli(capsys, "run", "lanczos", "--problem", str(bad), "--e1")
    assert code == 2


def _count_calls(monkeypatch, function):
    """The list each call of the named algorithm appends its name to."""
    original = getattr(harness, function)
    calls = []

    def counting(*args, **kwargs):
        calls.append(function)
        return original(*args, **kwargs)

    rebind(monkeypatch, harness, function, counting)  # every module that binds it, so no call can bypass the count
    return calls


@pytest.mark.parametrize(
    "algorithm, function, kind",
    [
        ("lanczos", "lanczos", "jacobi"),
        ("arnoldi", "arnoldi", "hessenberg"),
        ("bilanczos", "nonsym_lanczos", "nonsymtridiag"),
        ("gk", "golub_kahan", "lowerbidiag"),
        ("blocklanczos", "block_lanczos", "blocktridiag"),
    ],
)
def test_run_check_exact_runs_the_algorithm_once(tmp_path, capsys, monkeypatch, algorithm, function, kind):
    prob = tmp_path / "prob.txt"
    code, _ = run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "6", *_block_size(kind), "--seed", "1", "--out", str(prob))
    assert code == 0
    calls = _count_calls(monkeypatch, function)
    code, out = run_cli(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--out", str(tmp_path / "run.csv"))
    assert code == 0, out.err
    assert "exactness check passed" in out.out
    assert calls == [function]


@pytest.mark.parametrize(
    "algorithm, function, kind, message",
    [
        ("arnoldi", "arnoldi", "hessenberg", "supports symmetric tridiagonal inputs only"),
        ("bilanczos", "nonsym_lanczos", "nonsymtridiag", "supports symmetric tridiagonal inputs only"),
        ("gk", "golub_kahan", "lowerbidiag", "supports symmetric tridiagonal inputs only"),
        ("lanczos", "lanczos", None, "not a structured"),
    ],
)
def test_run_check_exact_that_cannot_apply_runs_no_algorithm(tmp_path, capsys, monkeypatch, algorithm, function, kind, message):
    """On a matrix file, detection and the lanczos-only rule are settled before
    the run; a kind of None is an unstructured dense symmetric matrix."""
    mat, out_csv = tmp_path / "A.txt", tmp_path / "run.csv"
    if kind is None:
        with mat.open("w") as f:
            write_matrix(f, np.ones((4, 4)) + np.eye(4))
    else:
        assert run_cli(capsys, "gen", kind, "--n", "6", "--seed", "1", "--out", str(mat))[0] == 0
    calls = _count_calls(monkeypatch, function)
    assert message in _error_exit(capsys, "run", algorithm, "--problem", str(mat), "--e1", "--check-exact", "--out", str(out_csv))
    assert calls == [] and not out_csv.exists()


def _move_one_bit_of_alpha(monkeypatch):
    """Make every Lanczos run of the ALGORITHMS table return alpha_2 one ULP
    up; the list collects each moved alpha."""
    moved = []

    def off_by_one_ulp(A, v, k, **kwargs):
        res = lanczos(A, v, k, **kwargs)
        alpha = res.alpha.copy()
        alpha[1] = np.nextafter(alpha[1], np.inf)
        moved.append(alpha)
        return replace(res, alpha=alpha)

    monkeypatch.setattr(harness, "lanczos", off_by_one_ulp)
    return moved


def test_run_check_exact_that_fails_exits_1_and_still_writes_the_csv(tmp_path, capsys, monkeypatch):
    prob, out_csv = tmp_path / "prob.txt", tmp_path / "run.csv"
    assert run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "6", "--seed", "2", "--out", str(prob))[0] == 0
    moved = _move_one_bit_of_alpha(monkeypatch)
    code, out = run_cli(capsys, "run", "lanczos", "--problem", str(prob), "--check-exact", "--out", str(out_csv))
    assert code == 1
    assert out.err == "exactness check FAILED: first mismatch at alpha[1]\n"
    assert ["alpha", "1", repr(float(moved[0][1])), float(moved[0][1]).hex()] in csv_rows(out_csv)


def test_check_exactness_that_fails_exits_1_and_prints_at_most_5_mismatches(capsys, monkeypatch):
    _move_one_bit_of_alpha(monkeypatch)
    code, out = run_cli(capsys, "check", "exactness", "--algorithm", "lanczos", "--sizes", "3,4", "--seeds", "4")
    assert code == 1
    assert out.out == "exactness[lanczos]: 8 instances, 8 mismatches\n"
    lines = out.err.splitlines()
    assert len(lines) == 5
    assert lines[0] == "  mismatch at alpha[1] (n=3, seed=0, binary64)"
    assert all(re.fullmatch(r"  mismatch at alpha\[1\] \(n=\d, seed=\d, binary64\)", line) for line in lines)


def _jacobi_file_and_w_file(tmp_path, capsys, w_text):
    mat, w = tmp_path / "T.txt", tmp_path / "w.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "4", "--out", str(mat))[0] == 0
    w.write_text(w_text)
    return mat, w


@pytest.mark.parametrize("w_text", ["vector 4\n0x1p0 0x0p0 0x0p0 0x0p0\n", "vector 4\n0x1p0 zz 0x0p0 0x0p0\n"], ids=["good", "malformed"])
@pytest.mark.parametrize("algorithm", [a for a in harness.ALGORITHMS if a != "bilanczos"])
def test_w_file_with_an_algorithm_other_than_bilanczos_exits_2(tmp_path, capsys, monkeypatch, algorithm, w_text):
    """The rule is settled before the file is opened, so a good and a
    malformed file give the same error."""
    mat, w = _jacobi_file_and_w_file(tmp_path, capsys, w_text)
    monkeypatch.setattr(cli, "_read_vector", lambda *args: pytest.fail("--w-file was read"))
    assert _error_exit(capsys, "run", algorithm, "--problem", str(mat), "--e1", "--w-file", str(w)) == "error: --w-file applies to bilanczos only\n"


def test_w_file_with_bilanczos_is_read(tmp_path, capsys):
    mat, w = _jacobi_file_and_w_file(tmp_path, capsys, "vector 4\n0x1p0 0x0p0 0x0p0 0x0p0\n")
    assert run_cli(capsys, "run", "bilanczos", "--problem", str(mat), "--e1", "--w-file", str(w))[0] == 0
    w.write_text("vector 4\n0x1p0 zz 0x0p0 0x0p0\n")
    assert "bad float literal 'zz'" in _error_exit(capsys, "run", "bilanczos", "--problem", str(mat), "--e1", "--w-file", str(w))


def _recording(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call's keywords."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
    return calls


_RUN_SETTINGS = [("--variant", "cgs", "lanczos", "lanczos"), ("--reorth", "full", "lanczos", "lanczos"), ("--qr-variant", "cgs", "blocklanczos", "block_lanczos")]


@pytest.mark.parametrize("flag, value, reader, function", _RUN_SETTINGS, ids=[s[0] for s in _RUN_SETTINGS])
@pytest.mark.parametrize("algorithm", list(harness.ALGORITHMS))
def test_run_takes_a_setting_only_for_the_algorithm_that_reads_it(tmp_path, capsys, monkeypatch, algorithm, flag, value, reader, function):
    mat, blk = tmp_path / "T.txt", tmp_path / "blk.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "4", "--out", str(mat))[0] == 0
    assert run_cli(capsys, "gen", "structured", "--kind", "blocktridiag", "--n", "4", "--p", "2", "--out", str(blk))[0] == 0
    source = ["--problem", str(blk)] if algorithm == "blocklanczos" else ["--problem", str(mat), "--e1"]
    calls = _recording(monkeypatch, harness, function)
    if algorithm != reader:
        assert _error_exit(capsys, "run", algorithm, *source, flag, value) == f"error: {flag} applies to {reader} only\n"
        assert calls == []
        return
    assert run_cli(capsys, "run", algorithm, *source, flag, value)[0] == 0
    assert run_cli(capsys, "run", algorithm, *source)[0] == 0
    dest = flag[2:].replace("-", "_")
    assert [call[dest] for call in calls] == [value, getattr(harness.RunInputs, dest)]  # absent: RunInputs' default


_SWEEP_SETTINGS = [("--variant", "cgs", ("lanczos", "deficient"), "lanczos and deficient"), ("--qr-variant", "cgs", ("blocklanczos",), "blocklanczos"), ("--p", "2", ("blocklanczos",), "blocklanczos")]


@pytest.mark.parametrize("flag, value, readers, names", _SWEEP_SETTINGS, ids=[s[0] for s in _SWEEP_SETTINGS])
@pytest.mark.parametrize("algorithm", harness.SWEEPS)
def test_check_exactness_takes_a_setting_only_for_the_sweeps_that_read_it(capsys, monkeypatch, algorithm, flag, value, readers, names):
    calls = _recording(monkeypatch, cli, "exactness_sweep")
    argv = ["check", "exactness", "--algorithm", algorithm, "--sizes", "4", "--seeds", "1"]
    if algorithm not in readers:
        assert _error_exit(capsys, *argv, flag, value) == f"error: {flag} applies to {names} only\n"
        assert calls == []
        return
    assert run_cli(capsys, *argv, flag, value)[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    dest = flag[2:].replace("-", "_")
    assert [call.get(dest) for call in calls] == [int(value) if flag == "--p" else value, None]  # absent: exactness_sweep's default


@pytest.mark.parametrize("what", ["lemma31", "exactness", "bound52", "structure"])
def test_check_rejects_a_flag_its_target_does_not_read(tmp_path, capsys, monkeypatch, what):
    """Each check is patched to fail, so every rejection comes before a check runs."""
    mat = tmp_path / "T.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "4", "--out", str(mat))[0] == 0
    for name in ("sqrt_square_violations", "exactness_sweep", "experiment_fig3", "detect_structure"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("the check ran"))
    readers = {
        ("--problem", str(mat)): ["structure"],
        ("--e1",): ["structure"],
        ("--v-file", str(mat)): ["structure"],
        ("--beta1", "2"): ["structure"],
        ("--precision", "binary64"): ["lemma31", "exactness", "structure"],
        ("--algorithm", "gk"): ["exactness"],
        ("--sizes", "3"): ["exactness"],
        ("--seeds", "4"): ["exactness"],
        ("--p", "2"): ["exactness"],
        ("--p", "0"): ["exactness"],  # a given 0 is given, though 0 == False
        ("--variant", "cgs"): ["exactness"],
        ("--qr-variant", "cgs"): ["exactness"],
        ("--samples", "10"): ["lemma31"],
        ("--seed", "3"): ["lemma31"],
    }
    for flag, targets in readers.items():
        names = ", ".join(f"check {t}" for t in targets[:-1]) + " and " * (len(targets) > 1) + f"check {targets[-1]}"
        if what not in targets:
            assert _error_exit(capsys, "check", what, *flag) == f"error: {flag[0]} applies to {names} only\n"


_GEN_TARGETS = [*STRUCTURES, "strakos", "structured --kind jacobi", "structured --kind hessenberg"]


@pytest.mark.parametrize("what", _GEN_TARGETS)
def test_gen_rejects_a_flag_its_target_does_not_read(tmp_path, capsys, what):
    """Every rejection comes before the file is written; each reader takes its flag."""
    seeded = "gen " + ", gen ".join(STRUCTURES) + " and gen structured"
    readers = {
        ("--seed", "3"): (what != "strakos", seeded),
        ("--seed", "0"): (what != "strakos", seeded),  # a given 0 is given, though 0 == False
        ("--kind", "jacobi"): (what.startswith("structured"), "gen structured"),
        ("--lam1", "0.5"): (what == "strakos", "gen strakos"),
        ("--lamn", "2"): (what == "strakos", "gen strakos"),
        ("--rho", "0.5"): (what == "strakos", "gen strakos"),
        ("--spd",): (what in ("jacobi", "structured --kind jacobi"), "gen jacobi and gen structured --kind jacobi"),
        ("--p", "2"): (what == "blocktridiag", "gen blocktridiag and gen structured --kind blocktridiag"),
        ("--p", "1"): (True, None),  # the default, accepted everywhere
    }
    for flag, (reads, names) in readers.items():
        out = tmp_path / f"{flag[0][2:]}-{flag[-1]}.txt"
        argv = ["gen", *what.split(), "--n", "4", *flag, "--out", str(out)]
        if reads:
            assert run_cli(capsys, *argv)[0] == 0 and out.exists()
        else:
            assert _error_exit(capsys, *argv) == f"error: {flag[0]} applies to {names} only\n" and not out.exists()


@pytest.mark.parametrize("what", ["fig2", "fig3", "prescribed-curves", "exactness-sweep"])
def test_experiment_rejects_a_flag_its_target_does_not_read(tmp_path, capsys, monkeypatch, what):
    """Each experiment is patched to fail, so every rejection comes before one runs or writes."""
    for name in ("experiment_fig2", "experiment_fig3", "random_convergence_curves", "exactness_sweep"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("the experiment ran"))
    out = tmp_path / "out.csv"
    readers = {
        ("--n", "5"): "prescribed-curves",
        ("--seed", "1"): "prescribed-curves",
        ("--seed", "0"): "prescribed-curves",
        ("--seeds", "2"): "exactness-sweep",
    }
    for flag, reader in readers.items():
        if what != reader:
            err = _error_exit(capsys, "experiment", what, *flag, "--out", str(out))
            assert err == f"error: {flag[0]} applies to experiment {reader} only\n" and not out.exists()


class _Called(ValueError):
    """Raised by a patched callee once it has recorded its arguments: main exits 2."""


_DEFAULTS = [  # (argv without --out, the callee cli calls, the arguments a flag left out gives it)
    (["gen", "strakos", "--n", "5"], "strakos_spectrum", (5, 1e-3, 1.0, 0.7, BINARY64)),
    (["gen", "jacobi", "--n", "5"], "random_structure", ("jacobi", 5, 0, BINARY64)),
    (["gen", "structured", "--n", "5"], "random_structured_problem", ("jacobi", 5, 0, BINARY64)),
    (["check", "lemma31"], "sqrt_square_violations", (1000000, BINARY64, 0)),
    (["check", "exactness"], "exactness_sweep", ("lanczos", [2, 10, 50], range(10), (BINARY64,))),
    (["experiment", "prescribed-curves"], "random_convergence_curves", (12, 0)),
    (["experiment", "exactness-sweep"], "exactness_sweep", (harness.SWEEPS[0], (4, 12), range(5))),
]


@pytest.mark.parametrize("argv, callee, want", _DEFAULTS, ids=[" ".join(d[0][:2]) for d in _DEFAULTS])
def test_a_flag_left_out_takes_its_documented_default(tmp_path, capsys, monkeypatch, argv, callee, want):
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise _Called(callee)

    monkeypatch.setattr(cli, callee, record)
    assert _error_exit(capsys, *argv, *(["--out", str(tmp_path / "out")] if argv[0] != "check" else [])) == f"error: {callee}\n"
    assert calls == [want]


def test_check_reads_precision_where_it_applies(tmp_path, capsys):
    code, out = run_cli(capsys, "check", "lemma31", "--samples", "100", "--precision", "binary32")
    assert code == 0 and out.out == "lemma31: 100 samples, 0 violations (binary32)\n"
    code, out = run_cli(capsys, "check", "exactness", "--sizes", "3", "--seeds", "1", "--precision", "binary32")
    assert code == 0 and out.out == "exactness[lanczos]: 1 instances, 0 mismatches\n"
    mat = tmp_path / "T.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "4", "--precision", "binary32", "--out", str(mat))[0] == 0
    for flags in ([], ["--precision", "binary32"]):
        assert run_cli(capsys, "check", "structure", "--problem", str(mat), *flags)[0] == 0
    err = _error_exit(capsys, "check", "structure", "--problem", str(mat), "--precision", "binary64")
    assert err == "error: --precision binary64 differs from the file's binary32\n"


def test_run_cglanczos_on_an_overflowing_iterate_exits_2_and_writes_nothing(tmp_path, capsys):
    """SPD and 1 x 1 with pivot d_1 = 2^-140 > 0, so no pivot rule fires:
    x_1 = 1/d_1 overflows binary32."""
    mat, out_csv = tmp_path / "t.txt", tmp_path / "o.csv"
    mat.write_text("precision binary32\ndense 1 1\n0x1p-140\n")
    err = _error_exit(capsys, "run", "cglanczos", "--problem", str(mat), "--e1", "--out", str(out_csv))
    assert err == "error: CG iterate x_1 contains a NaN or infinity\n"
    assert not out_csv.exists()


def test_check_structure_on_a_non_symmetric_matrix_exits_1(tmp_path, capsys):
    mat = tmp_path / "H.txt"
    assert run_cli(capsys, "gen", "hessenberg", "--n", "5", "--seed", "0", "--out", str(mat))[0] == 0
    code, out = run_cli(capsys, "check", "structure", "--problem", str(mat), "--e1")
    assert code == 1 and out.err == "no structure detected\n"


def _tall_matrix_file(tmp_path):
    mat = tmp_path / "tall.txt"
    with mat.open("w") as f:
        write_matrix(f, np.random.Generator(np.random.Philox(key=4)).uniform(-1.0, 1.0, (5, 3)))
    return mat


def test_run_gk_on_a_tall_matrix_runs_its_full_length(tmp_path, capsys):
    """Without --k, gk runs min(n, m) steps, the limit golub_kahan enforces."""
    out_csv = tmp_path / "gk.csv"
    code, out = run_cli(capsys, "run", "gk", "--problem", str(_tall_matrix_file(tmp_path)), "--e1", "--out", str(out_csv))
    assert code == 0, out.err
    assert [row[0] for row in csv_rows(out_csv)].count("gamma") == 3


def test_check_structure_on_a_rectangular_matrix_exits_1(tmp_path, capsys):
    code, out = run_cli(capsys, "check", "structure", "--problem", str(_tall_matrix_file(tmp_path)), "--e1")
    assert code == 1 and out.err == "no structure detected\n"


@pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seeds", "-2"], ["--sizes", ","]])
def test_check_exactness_over_zero_instances_exits_2(capsys, flags):
    assert "at least one size, one seed" in _error_exit(capsys, "check", "exactness", *flags)


def test_experiment_exactness_sweep_over_zero_seeds_exits_2_and_writes_nothing(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert "at least one size, one seed" in _error_exit(capsys, "experiment", "exactness-sweep", "--seeds", "0", "--out", str(out_csv))
    assert not out_csv.exists()


def test_prescribed_curves_compares_the_energy_errors_too(tmp_path, capsys, monkeypatch):
    exact, wrong = tmp_path / "exact.csv", tmp_path / "wrong.csv"
    code, out = run_cli(capsys, "experiment", "prescribed-curves", "--n", "6", "--out", str(exact))
    assert code == 0 and out.out == "prescribed-curves: roundtrip exact over 6 steps\n"
    original = cli.rational_cg

    def energy_off_by_one_ulp(A, b):
        trace = original(A, b)
        trace.energy2[1] = Fraction(math.nextafter(float(trace.energy2[1]), math.inf))
        return trace

    monkeypatch.setattr(cli, "rational_cg", energy_off_by_one_ulp)
    code, out = run_cli(capsys, "experiment", "prescribed-curves", "--n", "6", "--out", str(wrong))
    assert code == 1 and "MISMATCH" in out.out
    assert wrong.read_bytes() == exact.read_bytes()  # the CSV holds the residual norms only


@pytest.mark.parametrize("precision", ["binary64", "binary32"])
def test_run_gmres_on_a_structured_hessenberg_file(tmp_path, capsys, precision):
    prob, csv_out = tmp_path / "prob.txt", tmp_path / "gmres.csv"
    code, _ = run_cli(capsys, "gen", "structured", "--kind", "hessenberg", "--n", "6", "--seed", "1", "--precision", precision, "--out", str(prob))
    assert code == 0
    code, out = run_cli(capsys, "run", "gmres", "--problem", str(prob), "--out", str(csv_out))
    assert code == 0, out.err
    assert {row[0] for row in csv_rows(csv_out)} >= {"x", "y"}


def test_run_gmres_writes_a_witness_norm_whose_square_overflows(tmp_path, capsys):
    """A = diag(a, 1) and v = 1e100 e1 break down at step 1 with H = [a; 0], so
    the exact coordinate is ||v|| / a, and its error is about 2.6e183."""
    a = float.fromhex("0x1.bff2ee48e0530p-333")
    mat, csv_out = tmp_path / "d.txt", tmp_path / "gmres.csv"
    mat.write_text(f"dense 2 2\n{a.hex()} 0x0p+0 0x0p+0 0x1p+0\n")
    code, out = run_cli(capsys, "run", "gmres", "--problem", str(mat), "--e1", "--beta1", "1e100", "--out", str(csv_out))
    assert code == 0, out.err
    vals = {name: float.fromhex(hx) for name, i, _, hx in csv_rows(csv_out)[1:] if i == "0"}
    r = vals["y_error_norm"]
    assert math.isfinite(r) and vals["x_error_norm"] == r
    q = (Fraction(float(norm2(np.array([1e100, 0.0])))) / Fraction(a) - Fraction(vals["y"])) ** 2
    assert q > Fraction(sys.float_info.max)
    assert Fraction(r - math.ulp(r)) ** 2 <= q <= Fraction(r + math.ulp(r)) ** 2


def _error_exit(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    return out.err


@pytest.mark.parametrize("kind, algorithm", [("jacobi", "lanczos"), ("blocktridiag", "blocklanczos")])
def test_a_stray_gamma1_record_exits_2_and_writes_nothing(tmp_path, capsys, kind, algorithm):
    """A gamma1 record after a problem of any kind but nonsymtridiag is an
    input error, not a record that the reader drops."""
    prob, out = tmp_path / "prob.txt", tmp_path / "out.csv"
    assert run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "4", *_block_size(kind), "--out", str(prob))[0] == 0
    with prob.open("a") as f:
        f.write("gamma1 0x1p+0\n")
    err = _error_exit(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--out", str(out))
    assert err == f"error: gamma1 applies to nonsymtridiag problems only, not {kind}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "function, argv",
    [("random_structure", ["gen", "jacobi", "--n", "1000000000000"]), ("random_convergence_curves", ["experiment", "prescribed-curves", "--n", "48"])],
    ids=["gen", "experiment"],
)
def test_an_allocation_failure_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, function, argv):
    """numpy's error for a size it cannot allocate; nothing is allocated here.
    prescribed-curves takes n <= 48 only, so its draw is patched at n = 48."""
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, function, fail)
    out = tmp_path / "out.txt"
    assert _error_exit(capsys, *argv, "--out", str(out)) == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3", "49", "1100"])
def test_prescribed_curves_outside_the_oracle_range_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, n):
    """One error line before the curves are drawn.  Without the check, 0 and -3
    failed inside the draw and 1100 in the curves' own check (its energies
    underflow); only 49 reached the oracle's limit."""
    monkeypatch.setattr(cli, "random_convergence_curves", lambda *args: pytest.fail("the curves were drawn"))
    out = tmp_path / "out.csv"
    err = _error_exit(capsys, "experiment", "prescribed-curves", "--n", n, "--out", str(out))
    assert err == f"error: --n must be between 1 and 48 (the rational oracle's limit), got {n}\n"
    assert not out.exists()


def test_an_oracle_past_n_steps_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A fault that keeps exact CG's r from 0 (here each step's p update takes
    3/2 delta) stops at the step bound with one error line."""
    real = rational._plus_scaled
    calls = []

    def wrong(y, c, x, support):
        calls.append(c)
        if len(calls) > 18:
            pytest.fail("rational_cg ran past n steps")
        return real(y, c * Fraction(3, 2) if len(calls) % 3 == 0 else c, x, support)

    monkeypatch.setattr(rational, "_plus_scaled", wrong)
    out = tmp_path / "out.csv"
    err = _error_exit(capsys, "experiment", "prescribed-curves", "--n", "6", "--out", str(out))
    assert err == "error: exact CG did not reach r = 0 within n = 6 steps\n"
    assert not out.exists() and len(calls) == 18


def test_serious_breakdown_exits_2(tmp_path, capsys):
    mat, w = tmp_path / "A.txt", tmp_path / "w.txt"
    with mat.open("w") as f:
        write_matrix(f, np.array([[0.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]))
    with w.open("w") as f:
        write_matrix(f, np.array([1.0, 1.0, -1.0]))
    err = _error_exit(capsys, "run", "bilanczos", "--problem", str(mat), "--e1", "--w-file", str(w))
    assert "serious breakdown" in err


@pytest.mark.parametrize("algorithm", ["cglanczos", "cg-hs"])
def test_cg_on_a_non_symmetric_matrix_exits_2(tmp_path, capsys, algorithm):
    mat = tmp_path / "A.txt"
    with mat.open("w") as f:
        write_matrix(f, np.array([[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]]))  # diagonally dominant
    err = _error_exit(capsys, "run", algorithm, "--problem", str(mat), "--e1")
    assert "not bitwise symmetric" in err


def test_negative_k_exits_2(tmp_path, capsys):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--out", str(prob))
    assert "--k" in _error_exit(capsys, "run", "lanczos", "--problem", str(prob), "--k", "-1")


@pytest.mark.parametrize("algorithm, kind, full", [("lanczos", "jacobi", 8), ("blocklanczos", "blocktridiag", 4)])
def test_check_exact_rejects_a_shortened_k(tmp_path, capsys, algorithm, kind, full):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "8", *_block_size(kind), "--out", str(prob))
    err = _error_exit(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--k", str(full - 1))
    assert f"full run of {full} steps" in err
    code, _ = run_cli(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--k", str(full))
    assert code == 0


def test_check_exact_on_another_kind_exits_2(tmp_path, capsys):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--out", str(prob))
    assert "hessenberg problem" in _error_exit(capsys, "run", "arnoldi", "--problem", str(prob), "--check-exact")


def test_check_exact_on_another_kind_runs_no_algorithm(tmp_path, capsys, monkeypatch):
    prob, out_csv = tmp_path / "j.txt", tmp_path / "run.csv"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "6", "--out", str(prob))

    def never(*args, **kwargs):
        raise AssertionError("the algorithm ran before the kind was checked")

    monkeypatch.setattr(harness, "golub_kahan", never)
    err = _error_exit(capsys, "run", "gk", "--problem", str(prob), "--check-exact", "--out", str(out_csv))
    assert "gk compares against a lowerbidiag problem, not jacobi" in err
    assert not out_csv.exists()


def test_convert_rejects_a_nan_literal(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("dense 1 2\nnan 0x1p0\n")
    assert "non-finite" in _error_exit(capsys, "convert", "--in", str(bad), "--out", str(tmp_path / "out.csv"))


def test_vector_file_of_another_precision_exits_2(tmp_path, capsys):
    mat, v = tmp_path / "T.txt", tmp_path / "v.txt"
    run_cli(capsys, "gen", "jacobi", "--n", "4", "--precision", "binary32", "--out", str(mat))
    with v.open("w") as f:
        write_matrix(f, np.array([1.0, 0.0, 0.0, 0.0]))
    assert "does not match" in _error_exit(capsys, "run", "lanczos", "--problem", str(mat), "--v-file", str(v))


@pytest.mark.parametrize(
    "flags",
    [["--v-file", "v.txt"], ["--e1"], ["--beta1", "3"], ["--e1", "--beta1", "3"], ["--w-file", "v.txt"]],
    ids=["v-file", "e1", "beta1", "e1-beta1", "w-file"],
)
def test_run_rejects_a_starting_vector_flag_the_problem_file_overrides(tmp_path, capsys, flags):
    prob, vec = tmp_path / "prob.txt", tmp_path / "v.txt"
    run_cli(capsys, "gen", "structured", "--kind", "nonsymtridiag", "--n", "4", "--out", str(prob))
    with vec.open("w") as f:
        write_matrix(f, np.array([1.0, 0.0, 0.0, 0.0]))
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in flags]
    assert flags[0] in _error_exit(capsys, "run", "bilanczos", "--problem", str(prob), *argv)


def test_starting_vector_flags_that_exclude_each_other(tmp_path, capsys):
    mat, vec = tmp_path / "T.txt", tmp_path / "v.txt"
    run_cli(capsys, "gen", "jacobi", "--n", "4", "--out", str(mat))
    with vec.open("w") as f:
        write_matrix(f, np.array([1.0, 0.0, 0.0, 0.0]))
    assert "--beta1" in _error_exit(capsys, "run", "lanczos", "--problem", str(mat), "--v-file", str(vec), "--beta1", "2")
    assert "--beta1" in _error_exit(capsys, "check", "structure", "--problem", str(mat), "--v-file", str(vec), "--beta1", "2")
    with pytest.raises(SystemExit) as exit_:
        main(["check", "structure", "--problem", str(mat), "--e1", "--v-file", str(vec)])
    assert exit_.value.code == 2


@pytest.mark.parametrize("precision", ["binary64", "binary32"])
@pytest.mark.parametrize(
    "gen",
    [["jacobi"], ["hessenberg"], ["nonsymtridiag"], ["lowerbidiag"], ["blocktridiag", "--p", "2"], ["strakos"]]
    + [["structured", "--kind", kind, *_block_size(kind)] for kind in ("jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag")],
)
def test_every_gen_kind_reads_back(tmp_path, capsys, gen, precision):
    path = tmp_path / "gen.txt"
    code, _ = run_cli(capsys, "gen", *gen, "--n", "4", "--precision", precision, "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "convert", "--in", str(path), "--out", str(tmp_path / "gen.csv"))
    assert code == 0, out.err


def test_gen_signedperm_is_not_a_choice(tmp_path):
    with pytest.raises(SystemExit) as exit_:
        main(["gen", "signedperm", "--n", "4", "--out", str(tmp_path / "P.txt")])
    assert exit_.value.code == 2


_PERM_BETA = "signedperm 1\n0 1\nbeta1 0x1p0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("blocktridiag 1 1\n0x1p0\nsignedblockperm 0 1\nbeta1 0x1p0\n", "record size 0"),
        ("blocktridiag 1 0\nsignedblockperm 1 0\n0\nbeta1 0x1p0\n", "record size 0"),
        ("vector -3\n", "record size -3"),
        ("dense 2 -1\n", "record size -1"),
        ("dense 1 1\n0x1p0\n" + _PERM_BETA, "not dense"),
        ("vector 1\n0x1p0\n" + _PERM_BETA, "not vector"),
        ("jacobi 1\n0x1p2000\n" + _PERM_BETA, "bad float literal"),
        ("jacobi 1\n10\n" + _PERM_BETA, "bad float literal '10'"),
        ("jacobi 1\n0x1p0\nsignedperm 1\n0 1\nbeta1 1.5\n", "bad float literal '1.5'"),
        ("vector ٢\n0x1p0 0x1p1\n", "expected an integer, got '٢'"),
        ("vector +0_2\n0x1p0 0x1p1\n", "expected an integer, got '+0_2'"),
        ("vector 1_0\n" + "0x1p0 " * 10 + "\n", "expected an integer, got '1_0'"),
        ("jacobi 1\n0x1p0\nsignedperm 1\n0_0 +1\nbeta1 0x1p0\n", "expected an integer, got '0_0'"),
    ],
    ids=[
        "block-perm-m0", "block-p0", "vector-negative", "dense-negative", "dense-problem", "vector-problem", "overflow", "no-prefix", "no-prefix-beta1",
        "non-ascii-digit", "plus-underscore", "underscore", "perm-underscore-plus",
    ],
)
def test_convert_and_run_reject_a_malformed_file(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert message in _error_exit(capsys, "convert", "--in", str(bad), "--out", str(tmp_path / "out.csv"))
    assert message in _error_exit(capsys, "run", "lanczos", "--problem", str(bad))


@pytest.mark.parametrize("what", ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag", "structured"])
def test_gen_rejects_a_nonpositive_n(tmp_path, capsys, what):
    out = tmp_path / "T.txt"
    assert "n must be positive" in _error_exit(capsys, "gen", what, "--n", "0", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("what", [["blocktridiag"], ["structured", "--kind", "blocktridiag"]])
def test_gen_checks_the_block_size(tmp_path, capsys, what):
    out = str(tmp_path / "T.txt")
    assert "multiple of the block size" in _error_exit(capsys, "gen", *what, "--n", "5", "--p", "2", "--out", out)
    assert "block size must be positive" in _error_exit(capsys, "gen", *what, "--n", "4", "--p", "0", "--out", out)


@pytest.mark.parametrize(
    "what", [["jacobi", "--p", "3"], ["jacobi", "--p", "0"], ["structured", "--kind", "hessenberg", "--p", "7"], ["strakos", "--p", "2"]]
)
def test_gen_rejects_a_block_size_where_no_block_is_drawn(tmp_path, capsys, what):
    out = tmp_path / "T.txt"
    err = _error_exit(capsys, "gen", *what, "--n", "4", "--out", str(out))
    assert err == "error: --p applies to gen blocktridiag and gen structured --kind blocktridiag only\n"
    assert not out.exists()


def test_gen_accepts_a_block_size_of_1_for_every_kind(tmp_path, capsys):
    """--p 1 is the default, so giving it changes no byte of the file."""
    given, default = tmp_path / "given.txt", tmp_path / "default.txt"
    assert run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--p", "1", "--out", str(given))[0] == 0
    assert run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--out", str(default))[0] == 0
    assert given.read_bytes() == default.read_bytes()


def test_gen_strakos_rejects_a_parameter_binary32_cannot_hold(tmp_path, capsys):
    out = tmp_path / "T.txt"
    assert "lam1 < lamn in binary32" in _error_exit(capsys, "gen", "strakos", "--n", "5", "--lamn", "1e300", "--precision", "binary32", "--out", str(out))
    assert not out.exists()


def test_run_rejects_a_beta1_the_matrix_precision_cannot_hold(tmp_path, capsys):
    mat = tmp_path / "T.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "4", "--precision", "binary32", "--out", str(mat))[0] == 0
    for beta1 in ("1e300", "1e-50", "-1", "nan", "inf"):
        assert "--beta1 must be positive and finite in binary32" in _error_exit(capsys, "run", "lanczos", "--problem", str(mat), "--e1", "--beta1", beta1)


@pytest.mark.parametrize("algorithm", [a for a in harness.ALGORITHMS if a != "blocklanczos"])
@pytest.mark.parametrize("precision, beta1", [("binary64", "1e-170"), ("binary32", "1e-25")])
def test_run_from_a_start_whose_squared_norm_underflows_exits_2(tmp_path, capsys, algorithm, precision, beta1):
    mat = tmp_path / "T.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "5", "--precision", precision, "--out", str(mat))[0] == 0
    assert "squared norm underflows" in _error_exit(capsys, "run", algorithm, "--problem", str(mat), "--e1", "--beta1", beta1)


def test_every_readme_command_parses():
    """Each `krylovexact ...` line of the README's sh blocks is a valid command line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S) for line in block.splitlines() if line.startswith("krylovexact ")]
    assert len(lines) >= 9
    for line in lines:
        assert isinstance(_build_parser().parse_args(line.split()[1:]), argparse.Namespace), line


def test_the_readme_domain_table_is_the_format_table():
    """The README's domain table has one row per PRECISIONS row, in order, and
    each row's edges are the row's guard_lo and guard_hi in hex."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Domain of exactness\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+) +\| `(0x\S+)` +\| `(0x\S+)` +\|$", section, re.M)
    assert rows == [(row.name, float(row.guard_lo).hex(), float(row.guard_hi).hex()) for row in PRECISIONS]


def test_every_readme_mismatch_example_is_a_label_the_check_returns():
    """The README's exit-1 examples (a one-ULP alpha, a perturbed V, a run one
    step short, a run without its breakdown) are the labels compare_structured
    gives for them."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    prob = random_structured_problem("jacobi", 6, 3)
    res = lanczos(prob.A, prob.v, 6)
    alpha, V = res.alpha.copy(), res.V.copy()
    alpha[2] = np.nextafter(alpha[2], np.inf)
    V[3, 5] = np.nextafter(V[3, 5], np.inf)
    for run in (replace(res, alpha=alpha), replace(res, V=V), lanczos(prob.A, prob.v, 5), replace(res, breakdown=None)):
        label = harness.compare_structured(prob, "lanczos", run).mismatch
        assert f"`{label}`" in readme, label


@pytest.mark.parametrize("kind, record", [("jacobi", "beta1"), ("hessenberg", "beta1"), ("lowerbidiag", "beta1"), ("nonsymtridiag", "gamma1")])
def test_run_check_exact_on_a_scale_outside_the_guard_exits_2(tmp_path, capsys, kind, record):
    """A problem file whose v has a scale outside the guard lies outside the
    structured class: a typed error (exit 2), not a failed check (exit 1)."""
    prob = tmp_path / "prob.txt"
    assert run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "6", "--out", str(prob))[0] == 0
    lines = [f"{record} {(1.3 * 2.0**-520).hex()}" if line.startswith(record + " ") else line for line in prob.read_text().splitlines()]
    prob.write_text("\n".join(lines) + "\n")
    algorithm = {"jacobi": "lanczos", "hessenberg": "arnoldi", "lowerbidiag": "gk", "nonsymtridiag": "bilanczos"}[kind]
    assert f"{record} outside the exponent-range guard" in _error_exit(capsys, "run", algorithm, "--problem", str(prob), "--check-exact")


def test_run_check_exact_on_a_matrix_file_with_a_beta1_outside_the_guard_exits_2(tmp_path, capsys):
    mat = tmp_path / "T.txt"
    assert run_cli(capsys, "gen", "jacobi", "--n", "5", "--out", str(mat))[0] == 0
    assert "beta1 outside the exponent-range guard" in _error_exit(capsys, "run", "lanczos", "--problem", str(mat), "--e1", "--beta1", "1e-160", "--check-exact")
    assert "beta1 outside the exponent-range guard" in _error_exit(capsys, "check", "structure", "--problem", str(mat), "--e1", "--beta1", "1e-160")


def test_the_parser_is_built_once_and_prints_to_the_current_streams(capsys):
    assert _build_parser() is _build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["run", "no-such-algorithm"])
        assert "invalid choice: 'no-such-algorithm'" in capsys.readouterr().err


def test_convert_rejects_a_literal_binary32_cannot_hold(tmp_path, capsys):
    path = tmp_path / "v.txt"
    path.write_text("precision binary32\nvector 2\n0x1.000001p0 0x1p-1074\n")
    assert "'0x1.000001p0' is not representable in binary32" in _error_exit(capsys, "convert", "--in", str(path), "--out", str(tmp_path / "v.csv"))


# argv drawn from the parser's grammar ------------------------------------

_SUBPARSERS = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
_FLOATS = ["0", "1e-300", "-1e-300", "1e-50", "0.5", "3", "1e300", "nan", "inf"]
_INTS = {"n": (-1, 6), "k": (-1, 6), "p": (-1, 3), "seed": (0, 3), "seeds": (-1, 2), "samples": (-1, 50)}
_COST = {"samples", "sizes", "seeds"}  # small, and always drawn where they are read: their defaults take seconds
_PATHS = ("problem", "v_file", "w_file", "infile")
_START = ("--e1", "--v-file", "--beta1")  # a problem file brings its own start, so these are rejected after one
# The problem file that each target can exit 0 on (spd: a positive definite Jacobi matrix).
_FITS = {
    **{f"run {name}": f"structured-{a.kind}" for name, a in harness.ALGORITHMS.items() if a.kind},
    **dict.fromkeys(("run cg-hs", "run cglanczos"), "structured-spd"),
    "run gmres": "structured-hessenberg",
    "check structure": "structured-jacobi",
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A generated file of every kind in both precisions, named by what it
    holds (strakos writes a vector, structured-* a problem), a missing path
    and a malformed file."""
    root = tmp_path_factory.mktemp("argv")
    paths = [root / "missing.txt", root / "malformed.txt"]
    paths[1].write_text("jacobi 2\n0x1p0 zz 0x1p0\n")
    kinds = {kind: [kind, *_block_size(kind)] for kind in STRUCTURES} | {"spd": ["jacobi", "--spd"]}
    gens = kinds | {"strakos": ["strakos"]} | {f"structured-{name}": ["structured", "--kind", *gen] for name, gen in kinds.items()}
    for name, gen in gens.items():
        for precision in ("binary64", "binary32"):
            paths.append(root / f"{name}-{precision}.txt")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", *gen, "--n", "4", "--precision", precision, "--out", str(paths[-1])]) == 0
    return [str(path) for path in paths], root


def _value(action, files, out, fits):
    if action.dest == "problem" and fits:
        return st.sampled_from(fits) | st.sampled_from(files)
    if action.dest in _PATHS:
        return st.sampled_from(files)
    if action.dest == "out":
        return st.just(out)
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.dest == "sizes":  # valid at least half the time, as every cost flag
        return (st.lists(st.integers(1, 6), min_size=1, max_size=2) | st.lists(st.integers(-1, 6), max_size=2)).map(lambda sizes: ",".join(map(str, sizes)))
    if action.type is int:
        low, high = _INTS[action.dest]
        return (st.integers(1, high) | st.integers(low, high) if action.dest in _COST else st.integers(low, high)).map(str)
    return st.sampled_from(_FLOATS)


def _positional(command):
    """The choices of the subcommand's positional argument, or [None]."""
    return next((list(a.choices) for a in _SUBPARSERS[command]._actions if not a.option_strings and a.choices), [None])


def _unread(command, what, flag, sweep):
    """Whether cli's reader tables reject flag for the target, or for the sweep
    of `check exactness`; gen structured may read --spd."""
    gen = {**cli._GEN_READERS, "--spd": ("gen jacobi", "gen structured")}
    readers = {"run": cli._RUN_READERS, "gen": gen, "check": cli._CHECK_READERS, "experiment": cli._EXPERIMENT_READERS}.get(command, {})
    if flag in readers and (what if command == "run" else f"{command} {what}") not in readers[flag]:
        return True
    return what == "exactness" and flag in cli._SWEEP_READERS and sweep not in cli._SWEEP_READERS[flag]


@st.composite
def argv(draw, command, what, files, out):
    """The subcommand, its positional choice, its required flags, its cost
    flags where the target reads them, and a subset of its other flags, each
    with a value of its kind.  A path is the target's fitting problem file
    (_FITS) half the time.  Flags the target rejects, start flags after a
    problem file among them, are drawn in 1 example in 4 only, so that their
    rejection does not crowd out the success path."""
    args = [command] + ([what] if what else [])
    fit = _FITS.get(f"{command} {what}")
    fits = [f for f in files if fit and Path(f).name.startswith(f"{fit}-")]
    stray = draw(st.integers(0, 3)) == 0
    sweep, problem = "lanczos", ""
    for action in _SUBPARSERS[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        unread = _unread(command, what, flag, sweep) or (flag in _START and problem.startswith("structured-"))
        if action.dest in _COST:
            drawn = not unread
        else:
            drawn = action.required or ((stray or not unread) and draw(st.booleans()))
        if drawn:
            args.append(flag)
            if action.nargs != 0:
                args.append(draw(_value(action, files, out, fits)))
                sweep = args[-1] if action.dest == "algorithm" else sweep
                problem = Path(args[-1]).name if action.dest == "problem" else problem
    return args


def _main(args):
    """main's exit code, output kept out of the test log."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(args)
        except SystemExit as e:  # an argparse usage error
            return e.code


_FIXED = {"bound52", "fig2", "fig3"}  # no flag changes what these compute
_COMMANDS = [(command, what) for command in _SUBPARSERS for what in _positional(command)]


@pytest.mark.parametrize("command, what", _COMMANDS)
def test_any_argv_exits_0_1_or_2_and_a_generated_file_reads_back(input_files, command, what):
    """No exception but SystemExit escapes main (a RuntimeWarning is an
    error here), every exit is 0, 1 or 2, and what `gen` writes `convert`
    reads.  Each subcommand and choice draws its own fixed sequence of
    examples, so a run is reproducible."""
    files, root = input_files
    out = str(root / f"out-{command}-{what}")

    @seed(_COMMANDS.index((command, what)))
    @settings(max_examples=3 if what in _FIXED else 40, deadline=None, database=None)
    @given(argv(command, what, files, out))
    def prop(args):
        code = _main(args)
        codes.add(code)
        assert code in (0, 1, 2), args
        if command == "gen" and code == 0:
            assert _main(["convert", "--in", out, "--out", out + ".csv"]) == 0, args

    codes = set()
    prop()
    assert 0 in codes, "no drawn argv succeeded"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_run_bilanczos_check_exact_passes_on_a_negative_superdiagonal(tmp_path, capsys, dtype):
    """beta_2 = -0.5 < 0 turns W's +0 entries in column 1 into -0; the exact
    run still passes the bitwise check."""
    T = NonsymTridiagonal(np.array([1, 2, 3], dtype), np.array([-0.5, 0.75], dtype), np.array([0.25, 1.5], dtype))
    prob = tmp_path / "prob.txt"
    with prob.open("w") as f:
        write_problem(f, assemble(T, random_signed_permutation(3, 1), dtype(1.5), gamma1=dtype(2.0)))
    code, out = run_cli(capsys, "run", "bilanczos", "--problem", str(prob), "--check-exact")
    assert code == 0, out.out + out.err
    assert "exactness check passed: bitwise match" in out.out
