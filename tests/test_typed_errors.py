"""Each typed error of the package's entry checks, with its type and message,
and the property that any array at an entry point gives the bits of the
native C-order call or a typed error."""

import dataclasses
import hashlib
import io
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_bits import FLAVORS, SEEDS, SIZES, _feed, _inputs, _runs
from test_harness import _forbid_arithmetic

from krylovexact import fileio, fp, harness, krylov_general, problems
from krylovexact.cg import cg_hs, cglanczos
from krylovexact.fp import ShapeError
from krylovexact.krylov_general import SeriousBreakdownError
from krylovexact.lanczos import lanczos
from krylovexact.problems import SignedPermutation

# binary64 and binary32 in the byte order that this machine does not use
_SWAPPED64, _SWAPPED32 = np.dtype(np.float64).newbyteorder(), np.dtype(np.float32).newbyteorder()


def _bands(kind):
    """The one ShapeError of the banded structure types, naming the kind."""
    return f"{kind} bands must be 1-D, the first n long and each later one n-1"


_CASES = {
    "jacobi-lengths": (lambda: problems.JacobiMatrix(np.ones(3), np.ones(3)), ShapeError, _bands("jacobi")),
    "jacobi-2d-later": (lambda: problems.JacobiMatrix(np.ones(3), np.ones((2, 1))), ShapeError, _bands("jacobi")),
    "hessenberg-not-square": (lambda: problems.HessenbergMatrix(np.ones((2, 3))), ShapeError, "Hessenberg matrix must be square"),
    "nonsymtridiag-lengths": (lambda: problems.NonsymTridiagonal(np.ones(3), np.ones(2), np.ones(1)), ShapeError, _bands("nonsymtridiag")),
    "nonsymtridiag-2d": (lambda: problems.NonsymTridiagonal(np.ones((2, 2)), np.ones(1), np.ones(1)), ShapeError, _bands("nonsymtridiag")),
    "nonsymtridiag-2d-later": (lambda: problems.NonsymTridiagonal(np.ones(3), np.ones(2), np.ones((2, 1))), ShapeError, _bands("nonsymtridiag")),
    "lowerbidiag-length": (lambda: problems.LowerBidiagonal(np.ones(3), np.ones(3)), ShapeError, _bands("lowerbidiag")),
    "lowerbidiag-2d": (lambda: problems.LowerBidiagonal(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0])), ShapeError, _bands("lowerbidiag")),
    "lowerbidiag-2d-later": (lambda: problems.LowerBidiagonal(np.ones(3), np.ones((2, 1))), ShapeError, _bands("lowerbidiag")),
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
    "seq-dot-int": (lambda: fp.seq_dot(np.array([1, 2]), np.array([3, 4])), TypeError, "unsupported dtype int64; use float64 or float32"),
    "seq-dot-complex": (lambda: fp.seq_dot(np.array([1 + 1j, 1.0]), np.array([2.0, 2.0 - 1j])), TypeError, "unsupported dtype complex128; use float64 or float32"),
    "norm2-bool": (lambda: fp.norm2(np.array([True, True])), TypeError, "unsupported dtype bool; use float64 or float32"),
    "matvec-float16": (lambda: fp.matvec(np.eye(2, dtype=np.float16), np.ones(2, np.float16)), TypeError, "unsupported dtype float16; use float64 or float32"),
    "matmat-float16": (lambda: fp.matmat(np.eye(2, dtype=np.float16), np.eye(2, dtype=np.float16)), TypeError, "unsupported dtype float16; use float64 or float32"),
    "frobenius-norm-float16": (lambda: fp.frobenius_norm(np.eye(2, dtype=np.float16)), TypeError, "unsupported dtype float16; use float64 or float32"),
    "matrix-operand": (lambda: lanczos(np.asmatrix(np.eye(2)), np.ones(2), 1), TypeError, "unsupported array type matrix; use numpy.ndarray"),
    "masked-operand": (lambda: krylov_general.arnoldi(np.ma.masked_array(np.eye(2)), np.ones(2), 1), TypeError, "unsupported array type MaskedArray; use numpy.ndarray"),
    "memmap-operand": (lambda: krylov_general.arnoldi(np.eye(2), np.ones(2).view(np.memmap), 1), TypeError, "unsupported array type memmap; use numpy.ndarray"),
    "list-vector": (lambda: cg_hs(np.eye(2), [1.0, 0.0]), TypeError, "unsupported array type list; use numpy.ndarray"),
    "list-matrix-gk": (lambda: krylov_general.golub_kahan([[1.0, 0.0], [0.0, 1.0]], np.ones(2), 1), TypeError, "unsupported array type list; use numpy.ndarray"),
    "list-block": (lambda: krylov_general.block_lanczos(np.eye(2), [[1.0], [0.0]], 1), TypeError, "unsupported array type list; use numpy.ndarray"),
    "lanczos-byte-order": (
        lambda: lanczos(np.eye(2, dtype=_SWAPPED64), np.ones(2, _SWAPPED64), 1),
        TypeError,
        f"unsupported byte order {_SWAPPED64}; use a native float64 or float32 array",
    ),
    "seq-dot-byte-order": (
        lambda: fp.seq_dot(np.ones(2, _SWAPPED32), np.ones(2, _SWAPPED32)),
        TypeError,
        f"unsupported byte order {_SWAPPED32}; use a native float64 or float32 array",
    ),
    "seq-dot-list": (lambda: fp.seq_dot([1.0, 2.0], [3.0, 4.0]), TypeError, "unsupported array type list; use numpy.ndarray"),
    "norm2-masked": (lambda: fp.norm2(np.ma.masked_array([3.0, 4.0])), TypeError, "unsupported array type MaskedArray; use numpy.ndarray"),
    "matvec-matrix": (lambda: fp.matvec(np.asmatrix(np.eye(2)), np.ones(2)), TypeError, "unsupported array type matrix; use numpy.ndarray"),
}

# Each recurrence entry on a 0-d array and on a NumPy scalar as A: the entry
# check's error, not one from reading A's length or shape first.
_ENTRIES = {
    "lanczos": lambda A: lanczos(A, np.ones(1), 1),
    "arnoldi": lambda A: krylov_general.arnoldi(A, np.ones(1), 1),
    "nonsym-lanczos": lambda A: krylov_general.nonsym_lanczos(A, np.ones(1), np.ones(1), 1),
    "golub-kahan": lambda A: krylov_general.golub_kahan(A, np.ones(1), 1),
    "block-lanczos": lambda A: krylov_general.block_lanczos(A, np.ones((1, 1)), 1),
    "cg-hs": lambda A: cg_hs(A, np.ones(1)),
    "cglanczos": lambda A: cglanczos(A, np.ones(1)),
}
for _name, _run in _ENTRIES.items():
    _square = "" if _name == "golub-kahan" else " and square"
    _CASES[f"{_name}-0d-matrix"] = (lambda run=_run: run(np.array(1.0)), ShapeError, f"matrix must be 2-D{_square}, got shape ()")
    _CASES[f"{_name}-scalar-matrix"] = (lambda run=_run: run(np.float64(2.0)), TypeError, "unsupported array type float64; use numpy.ndarray")


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
@pytest.mark.parametrize("case", list(_CASES))
def test_each_entry_check_raises_its_typed_error(case):
    call, error, message = _CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and info.value.args == (message,)


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
@pytest.mark.parametrize("make", [np.asmatrix, np.ma.masked_array, np.ndarray.tolist], ids=["matrix", "masked", "list"])
@pytest.mark.parametrize("algorithm", list(harness.ALGORITHMS))
def test_every_algorithm_rejects_a_matrix_that_is_not_an_ndarray_before_any_kernel(algorithm, make, monkeypatch):
    """Each entry at k = 1, with A an np.matrix, a masked array or a list:
    a TypeError naming the type, and no kernel run first."""
    n = 4
    I = np.eye(n)
    A = make(np.diag(np.arange(1.0, n + 1)))
    x = harness.RunInputs(A, I[:, 0].copy(), w=I[:, 0].copy(), U1=I[:, :2].copy())
    _forbid_arithmetic(monkeypatch)
    with pytest.raises(TypeError) as info:
        harness.ALGORITHMS[algorithm].run(x, 1)
    assert info.value.args == (f"unsupported array type {type(A).__name__}; use numpy.ndarray",)


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


# ---------------------------------------------------------------------------
# any array at the entry points: a bit-exact result or a typed error

_K = 2  # the step count of every algorithm call

# call name -> (call, the operand shapes for order n: "A" n x n, "v" n, "U" n x 2, "H" (n+1) x n, "r" n + 1)
_CALLS = {
    **{
        name: (lambda A, v, w, U1, name=name: harness.ALGORITHMS[name].run(harness.RunInputs(A, v, w, U1), _K), "AvvU")
        for name in harness.ALGORITHMS
    },
    "seq_dot": (fp.seq_dot, "vv"),
    "norm2": (fp.norm2, "v"),
    "matvec": (fp.matvec, "Av"),
    "matmat": (fp.matmat, "AU"),
    "hessenberg_lstsq": (krylov_general.hessenberg_lstsq, "Hr"),
}


def _special_entries(dtype):
    """+-0, subnormals, the exponent-range guard's edges and one step outside
    them, the largest finite value, NaN and +-inf."""
    p, info = fp.precision_of(np.zeros(1, dtype)), np.finfo(dtype)
    edges = [p.guard_lo, p.guard_hi, p.guard_lo / 2, p.guard_hi * 2, float(info.smallest_subnormal), float(info.max)]
    return [0.0, -0.0, np.nan, np.inf, -np.inf] + edges + [-x for x in edges]


@st.composite
def _base_operands(draw, shapes, dtype):
    """Native C-order operands of the given shapes: a symmetric, diagonally
    dominant A and rough vectors, then now and then a special entry, one
    operand 0-d, empty or one row short."""
    n = draw(st.integers(1, 4))
    dims = {"A": (n, n), "v": (n,), "U": (n, 2), "H": (n + 1, n), "r": (n + 1,)}
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for shape in shapes:
        x = g.integers(-8, 9, dims[shape]) / 4.0
        if shape == "A":
            x = x + x.T + 8 * np.eye(n)
        if shape == "H":
            x = np.triu(x, -1) + np.eye(n + 1, n, -1)
        ops.append(x.astype(dtype))
    for _ in range(draw(st.integers(0, 2))):
        x = ops[draw(st.integers(0, len(ops) - 1))]
        x[tuple(draw(st.integers(0, s - 1)) for s in x.shape)] = draw(st.sampled_from(_special_entries(dtype)))
    i, reshape = draw(st.integers(0, len(ops) - 1)), draw(st.sampled_from(["none"] * 6 + ["0-d", "empty", "1x1", "short"]))
    x = ops[i]
    ops[i] = {"none": x, "0-d": x.reshape(-1)[:1].reshape(()), "empty": x[:0], "1x1": x[:1, :1] if x.ndim == 2 else x[:1], "short": x[:-1]}[reshape]
    return ops


def _present(draw, x):
    """x with its values and another representation: a layout, byte order or type."""
    layout = draw(st.sampled_from(["C", "F", "strided", "negative", "read-only"]))
    y = x.astype(x.dtype.newbyteorder()) if draw(st.sampled_from([False] * 3 + [True])) else x.copy()
    if layout == "F":
        y = y.copy(order="F")
    elif layout == "strided":
        wide = np.zeros(tuple(2 * s for s in y.shape), dtype=y.dtype)
        wide[(slice(None, None, 2),) * y.ndim] = y
        y = wide[(slice(None, None, 2),) * y.ndim]
    elif layout == "negative":
        y = np.flip(np.flip(y).copy())
    elif layout == "read-only":
        y.flags.writeable = False
    kind = draw(st.sampled_from(["ndarray"] * 4 + ["matrix", "masked", "list"]))
    if kind == "matrix" and y.ndim <= 2:
        return np.asmatrix(y)
    if kind == "masked":
        return np.ma.masked_array(y, mask=draw(st.booleans()))
    return y.tolist() if kind == "list" else y


def _outcome(call, operands):
    try:
        return call(*operands), None
    except Exception as exc:  # every error is judged below
        return None, exc


def _typed(exc):
    """A class of the package, or a TypeError or ValueError that the package raised itself."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    in_package = "krylovexact" in Path(tb.tb_frame.f_code.co_filename).parts
    return type(exc).__module__.startswith("krylovexact") or (isinstance(exc, (TypeError, ValueError)) and in_package)


def _bits(result):
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_any_array_at_an_entry_point_gives_the_native_result_or_a_typed_error(data):
    name = data.draw(st.sampled_from(list(_CALLS)))
    call, shapes = _CALLS[name]
    base = data.draw(_base_operands(shapes, data.draw(st.sampled_from([np.float64, np.float32]))))
    native = [x.copy() for x in base]
    with np.errstate(all="ignore"):  # the entries' own arithmetic, not the call's
        operands = [_present(data.draw, x) for x in base]
    got, exc = _outcome(call, operands)
    if exc is not None:
        assert _typed(exc), (name, repr(exc))
        return
    want, ref_exc = _outcome(call, native)
    assert ref_exc is None, (name, repr(ref_exc))
    assert _bits(got) == _bits(want), name
