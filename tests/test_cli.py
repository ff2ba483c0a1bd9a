import csv
import sys

import numpy as np
import pytest

from krylovexact import harness
from krylovexact.cli import main
from krylovexact.fileio import write_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


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
    rows = list(csv.reader(csv_out.open()))
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


def test_experiment_fig2_csv(tmp_path, capsys):
    out_csv = tmp_path / "fig2.csv"
    code, _ = run_cli(capsys, "experiment", "fig2", "--out", str(out_csv))
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
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
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["kind", "dims", "index", "value", "value_hex"]
    assert len(rows) == 1 + 4 + 3


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, "run", "lanczos", "--problem", str(tmp_path / "missing.txt"), "--e1")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    code, _ = run_cli(capsys, "run", "lanczos", "--problem", str(bad), "--e1")
    assert code == 2


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
    code, _ = run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "6", "--p", "2", "--seed", "1", "--out", str(prob))
    assert code == 0
    original = getattr(harness, function)
    calls = []

    def counting(*args, **kwargs):
        calls.append(function)
        return original(*args, **kwargs)

    # every module that binds the function, so no call can bypass the count
    for module in [m for name, m in sys.modules.items() if name.startswith("krylovexact")]:
        if getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counting)
    code, out = run_cli(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--out", str(tmp_path / "run.csv"))
    assert code == 0, out.err
    assert "exactness check passed" in out.out
    assert calls == [function]


def _error_exit(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    return out.err


def test_serious_breakdown_exits_2(tmp_path, capsys):
    mat, w = tmp_path / "A.txt", tmp_path / "w.txt"
    with mat.open("w") as f:
        write_matrix(f, np.array([[0.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]))
    with w.open("w") as f:
        write_matrix(f, np.array([1.0, 1.0, -1.0]))
    err = _error_exit(capsys, "run", "bilanczos", "--problem", str(mat), "--e1", "--w-file", str(w))
    assert "serious breakdown" in err


def test_negative_k_exits_2(tmp_path, capsys):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--out", str(prob))
    assert "--k" in _error_exit(capsys, "run", "lanczos", "--problem", str(prob), "--k", "-1")


@pytest.mark.parametrize("algorithm, kind, full", [("lanczos", "jacobi", 8), ("blocklanczos", "blocktridiag", 4)])
def test_check_exact_rejects_a_shortened_k(tmp_path, capsys, algorithm, kind, full):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", kind, "--n", "8", "--p", "2", "--out", str(prob))
    err = _error_exit(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--k", str(full - 1))
    assert f"full run of {full} steps" in err
    code, _ = run_cli(capsys, "run", algorithm, "--problem", str(prob), "--check-exact", "--k", str(full))
    assert code == 0


def test_check_exact_on_another_kind_exits_2(tmp_path, capsys):
    prob = tmp_path / "prob.txt"
    run_cli(capsys, "gen", "structured", "--kind", "jacobi", "--n", "5", "--out", str(prob))
    assert "hessenberg problem" in _error_exit(capsys, "run", "arnoldi", "--problem", str(prob), "--check-exact")


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
    + [["structured", "--kind", kind, "--p", "2"] for kind in ("jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag")],
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
