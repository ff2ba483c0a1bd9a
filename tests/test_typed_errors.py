"""Each typed error of the package's entry checks, with its type and message."""

import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest
from test_golden_bits import FLAVORS, SEEDS, SIZES, _inputs, _runs

from krylovexact import fileio, fp, harness, krylov_general, problems
from krylovexact.fp import ShapeError
from krylovexact.krylov_general import SeriousBreakdownError
from krylovexact.problems import SignedPermutation


_CASES = {
    "jacobi-lengths": (lambda: problems.JacobiMatrix(np.ones(3), np.ones(3)), ShapeError, "Jacobi matrix needs n diagonal and n-1 off-diagonal entries"),
    "hessenberg-not-square": (lambda: problems.HessenbergMatrix(np.ones((2, 3))), ShapeError, "Hessenberg matrix must be square"),
    "nonsymtridiag-lengths": (lambda: problems.NonsymTridiagonal(np.ones(3), np.ones(2), np.ones(1)), ShapeError, "off-diagonal lengths must be n-1"),
    "nonsymtridiag-2d": (lambda: problems.NonsymTridiagonal(np.ones((2, 2)), np.ones(1), np.ones(1)), ShapeError, "tridiagonal entries must be 1-D arrays"),
    "lowerbidiag-length": (lambda: problems.LowerBidiagonal(np.ones(3), np.ones(3)), ShapeError, "subdiagonal length must be n-1"),
    "lowerbidiag-2d": (lambda: problems.LowerBidiagonal(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0])), ShapeError, "bidiagonal entries must be 1-D arrays"),
    "blocktridiag-block-count": (lambda: problems.BlockTridiagonal((np.eye(2),), (np.eye(2),)), ShapeError, "need m diagonal blocks and m-1 subdiagonal blocks"),
    "blocktridiag-int": (lambda: problems.BlockTridiagonal((np.eye(2, dtype=int),), ()), TypeError, "unsupported dtype int64; use float64 or float32"),
    "blocktridiag-b-shape": (lambda: problems.BlockTridiagonal((np.eye(2), np.eye(2)), (np.eye(3),)), ShapeError, "subdiagonal blocks must be p x p"),
    "blockperm-block-sizes": (
        lambda: problems.SignedBlockPermutation(np.arange(2), (SignedPermutation(np.arange(2), np.ones(2, int)), SignedPermutation(np.arange(3), np.ones(3, int)))),
        ShapeError,
        "all blocks must have equal size",
    ),
    "assemble-block-dims": (lambda: problems.assemble(problems.random_structured_problem("blocktridiag", 4, 0, p=2).T, problems.random_signed_permutation(4, 0), 1.0), ShapeError, "block dimensions of P and T do not agree"),
    "assemble-dims": (lambda: problems.assemble(problems.random_structure("jacobi", 3, 0), problems.random_signed_permutation(4, 0), 1.0), ShapeError, "dimensions of P and T do not agree"),
    "signed-permutation-n": (lambda: problems.random_signed_permutation(0, 0), ValueError, "n must be positive"),
    "jacobi-n": (lambda: problems.random_structure("jacobi", 0, 0), ValueError, "n must be positive"),
    "curves-gamma": (
        # energy errors that rise: ConvergenceCurves rejects them, so the curves are a plain namespace
        lambda: problems.prescribe_cg_curves(SimpleNamespace(n=2, residual_norms=np.ones(2), energy_errors=np.array([1.0, 2.0]))),
        ValueError,
        "gamma_0 <= 0: curves inconsistent with an SPD system",
    ),
    "curves-2d": (lambda: problems.ConvergenceCurves(np.ones((2, 2)), np.array([[2.0, 1.0], [2.0, 1.0]])), ShapeError, "curves must be 1-D of equal positive length"),
    "curves-int": (lambda: problems.ConvergenceCurves(np.array([2**53 + 1, 1]), np.array([3, 1])), TypeError, "unsupported dtype int64; use float64 or float32"),
    "lstsq-square": (lambda: krylov_general.hessenberg_lstsq(np.eye(2), np.ones(2)), ShapeError, "least squares needs an (m+1) x m matrix, got shape (2, 2)"),
    "lstsq-int": (lambda: krylov_general.hessenberg_lstsq(np.array([[1, 0], [1, 1], [0, 1]]), np.ones(3, int)), TypeError, "unsupported dtype int64; use float64 or float32"),
    "lstsq-mixed": (
        lambda: krylov_general.hessenberg_lstsq(np.ones((2, 1), np.float32), np.array([1 + 2.0**-40, 0.0])),
        ShapeError,
        "1-D operand float64 (2,) does not match the float32 (2, 1) matrix",
    ),
    "lstsq-below-subdiagonal": (
        lambda: krylov_general.hessenberg_lstsq(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.array([3.0, 1.0, 1.0])),  # the argmin is [2, 1]
        ValueError,
        "H has a nonzero entry below the subdiagonal",
    ),
    "first-bit-difference-shape": (lambda: fp.first_bit_difference(np.zeros(2), np.zeros(3)), ShapeError, "shape mismatch: (2,) vs (3,)"),
    "first-bit-difference-dtype": (lambda: fp.first_bit_difference(np.zeros(2), np.zeros(2, np.float32)), ShapeError, "dtype mismatch: float64 vs float32"),
    "matvec": (lambda: fp.matvec(np.eye(2), np.ones(3)), ShapeError, "matvec operands float64 (2, 2) and float64 (3,) do not agree"),
    "matmat": (lambda: fp.matmat(np.eye(2), np.ones((3, 2))), ShapeError, "matmat operands float64 (2, 2) and float64 (3, 2) do not agree"),
    "matrix-payload": (lambda: fileio.write_matrix(io.StringIO(), np.zeros((1, 1, 1))), TypeError, "cannot serialize ndarray"),
    "problem-deficient": (lambda: fileio.write_problem(io.StringIO(), harness._deficient_instance(6, 0)), ValueError, "a grade-deficient extension has no problem-file record"),
    "metric-series-max": (lambda: harness.MetricSeries("demo").max_value("loss"), KeyError, "no rows for metric 'loss'"),
    "report-mismatch-without-failure": (
        lambda: harness.ExactnessReport("lanczos", 4, 0, "binary64", True, True, True, "alpha[0]"),
        ValueError,
        "mismatch location must be recorded iff a check failed",
    ),
    "report-failure-without-mismatch": (
        lambda: harness.ExactnessReport("lanczos", 4, 0, "binary64", True, False, True),
        ValueError,
        "mismatch location must be recorded iff a check failed",
    ),
    "unknown-sweep": (lambda: harness.exactness_check("cg-hs", 4, 0), ValueError, "unknown sweep algorithm 'cg-hs'"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_entry_check_raises_its_typed_error(case):
    call, error, message = _CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.args == (message,)


def _finite_leaves(obj):
    """True when every float array and float scalar inside a result (its
    dataclass fields, lists and tuples) is finite; ints, strings and None pass."""
    if dataclasses.is_dataclass(obj):
        return all(_finite_leaves(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return all(_finite_leaves(item) for item in obj)
    if isinstance(obj, (np.ndarray, np.floating, float)):
        return bool(np.all(np.isfinite(obj)))
    return True


@pytest.mark.parametrize("precision", ["binary64", "binary32"])
@pytest.mark.parametrize("algorithm", list(harness.ALGORITHMS))
def test_every_algorithm_on_the_golden_grid_returns_finite_data_or_a_typed_error(algorithm, precision):
    """Each variant of each ALGORITHMS entry, on every general input of the
    golden grid, at the full run and at half of it."""
    dtype = np.float64 if precision == "binary64" else np.float32
    entry, runs = harness.ALGORITHMS[algorithm], [run for run in _runs() if run[0].split("[")[0] == algorithm]
    for n in SIZES:
        for seed in SEEDS:
            for flavor in FLAVORS:
                mats, v, w, blocks = _inputs(dtype, n, seed, flavor)
                for label, kind, opts, p in runs:
                    if p is not None and p not in blocks:
                        continue
                    x = harness.RunInputs(mats[kind], v, w, blocks.get(p), **opts)
                    for k in (entry.steps(x), entry.steps(x) // 2):
                        try:
                            res = entry.run(x, k)
                        except (ValueError, TypeError, SeriousBreakdownError):  # the typed errors the CLI maps to exit 2
                            continue
                        assert _finite_leaves(res), (label, kind, n, seed, flavor, k)
