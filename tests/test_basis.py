"""fp._basis, the one builder of a Krylov basis from its row table, against
the literal transposed copy Rt.T.copy() of that table."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylovexact import fp
from krylovexact.krylov_general import SeriousBreakdownError, arnoldi, golub_kahan, gram_schmidt_qr, nonsym_lanczos
from krylovexact.lanczos import REORTH, VARIANTS, lanczos
from krylovexact.problems import random_structured_problem
from rebind import rebind

# Full 53-bit mantissas (their products round), signed zeros, scales 2^+-20.
rough = st.builds(lambda m, e, s: s * m * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(-3, 2), st.sampled_from([-1.0, 1.0]))
entry = st.one_of(rough, st.sampled_from([0.0, -0.0]))


def _recorded(run, *args, **kwargs):
    """run(*args, **kwargs) with every _basis call recorded as (Rt.T.copy(),
    the builder's output); each output is checked against its literal copy
    bit for bit, in C order and the row table's dtype.  fp._SCATTER is 0, so
    these small tables take the scatter that large ones take.  Returns
    (result, calls), or (None, calls) when the run raised a ValueError (a
    zero start, a serious breakdown)."""
    calls, basis = [], fp._basis

    def spy(Rt, *a, **kw):
        out = basis(Rt, *a, **kw)
        calls.append((Rt.T.copy(), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "_SCATTER", 0)
        rebind(mp, fp, "_basis", spy)
        try:
            result = run(*args, **kwargs)
        except (ValueError, SeriousBreakdownError):
            result = None
    for want, got in calls:
        assert got.flags.c_contiguous and got.dtype == want.dtype and got.shape == want.shape
        assert fp.bitwise_equal(got, want)
    return result, calls


@st.composite
def chain_case(draw, symmetric=True, square=True):
    """A general n x m matrix A and a start v, where the Krylov rows start as
    signed coordinates and may turn dense.  A's leading p x p block is a
    chain: a tridiagonal (its diagonal may be zero) whose rows and columns
    before p - 1 are zero outside it; row and column p - 1 and the rest are
    general.  So from a v on e_0 the first rows are ones that _unit writes on
    a coordinate, and the rows after the chain are dense.  v is general, or a
    multiple of e_0 with signed zeros elsewhere, whose start row keeps its -0s."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(1, 8))
    m = n if square else draw(st.integers(1, 8))
    A = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    p = draw(st.integers(0, min(n, m)))
    if p:
        A[: p - 1, :] = 0.0
        A[:, : p - 1] = 0.0
        i = np.arange(p)
        A[i, i] = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5]) | rough, min_size=p, max_size=p))
        A[i[1:], i[:-1]] = draw(st.lists(rough, min_size=p - 1, max_size=p - 1))
        A[i[:-1], i[1:]] = draw(st.lists(rough, min_size=p - 1, max_size=p - 1))
    if symmetric:
        A = np.triu(A) + np.triu(A, 1).T
    if draw(st.booleans()):
        v = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    else:
        v = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
        v[0] = draw(rough)
    scale = [2.0 ** draw(st.sampled_from([-20, 0, 20])) for _ in range(2)]
    return (A * scale[0]).astype(dtype), (v * scale[1]).astype(dtype)


# v = (-2^-20, 0, 0, -0): v_1 = (-1, 0, 0, -0) has the coordinate 0, and a
# scatter of its one entry would lose the -0.  The chain is a Jacobi path.
_PINNED_V = np.array([-(2.0**-20), 0.0, 0.0, -0.0])
_PINNED_A = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.5, 0.25, 2.0], 1) + np.diag([0.5, 0.25, 2.0], -1)


@settings(max_examples=80, deadline=None)
@given(chain_case(), st.sampled_from(VARIANTS), st.sampled_from(REORTH))
@example((_PINNED_A, _PINNED_V), "mgs", "none")
@example((_PINNED_A.astype(np.float32), _PINNED_V.astype(np.float32)), "cgs", "double")
def test_lanczos_and_arnoldi_bases_are_the_transposed_copy(case, variant, reorth):
    A, v = case
    result, calls = _recorded(lanczos, A, v, len(A), variant, reorth)
    assert len(calls) == (result is not None)
    result, calls = _recorded(arnoldi, A, v, len(A))
    assert len(calls) == (result is not None)


@settings(max_examples=80, deadline=None)
@given(chain_case(symmetric=False), st.data())
def test_bilanczos_bases_are_the_transposed_copy(case, data):
    """w is v or a general draw, so beta_{i+1} takes either sign and W's
    whole divides put -0s where it is negative."""
    A, v = case
    w = v if data.draw(st.booleans()) else np.array(data.draw(st.lists(entry, min_size=len(v), max_size=len(v))), dtype=v.dtype)
    result, calls = _recorded(nonsym_lanczos, A, v, w, len(A))
    assert len(calls) == 2 * (result is not None)


@settings(max_examples=80, deadline=None)
@given(chain_case(symmetric=False, square=False))
def test_golub_kahan_bases_are_the_transposed_copy(case):
    A, v = case
    result, calls = _recorded(golub_kahan, A, v, min(A.shape))
    assert len(calls) == 2 * (result is not None)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_pinned_start_keeps_its_negative_zero_in_every_loop(dtype):
    """Each single-vector loop copies its start row whole: V[:, 0] (S[:, 0])
    is (-1, +0, +0, -0), bit for bit."""
    A, v = _PINNED_A.astype(dtype), _PINNED_V.astype(dtype)
    want = np.array([-1.0, 0.0, 0.0, -0.0], dtype=dtype)
    for run, args, field in ((lanczos, (A, v, 4), "V"), (arnoldi, (A, v, 4), "V"), (nonsym_lanczos, (A, v, v, 4), "V"), (golub_kahan, (A, v, 4), "S")):
        result, calls = _recorded(run, *args)
        assert calls and fp.bitwise_equal(getattr(result, field)[:, 0], want), run.__name__


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "A, v, breakdown",
    [
        ([[1.0, 2.0], [0.0, 0.0], [3.0, 0.5]], [0.0, 1.0, 0.0], ("gamma", 1)),  # A^T s_1 = 0: s_1 lies on a zero row
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], ("delta", 2)),  # A w_1 = gamma_1 s_1
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [-1.0, 0.0, -0.0], ("gamma", 2)),
        ([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [1.0, 0.0, -0.0], ("delta", 3)),
    ],
)
def test_golub_kahan_bases_on_both_breakdown_kinds_are_the_transposed_copy(dtype, A, v, breakdown):
    A = np.array(A, dtype=dtype)
    result, calls = _recorded(golub_kahan, A, np.array(v, dtype=dtype), min(A.shape))
    assert result.breakdown == breakdown and len(calls) == 2


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float64, np.float32]), st.integers(1, 6), st.integers(1, 4), st.sampled_from(VARIANTS), st.data())
def test_the_block_qr_basis_is_the_transposed_copy(dtype, n, p, variant, data):
    """Full rank, a repeated column (a zero pivot, the early return) and a
    signed-coordinate column all copy every row whole."""
    R = np.array(data.draw(st.lists(entry, min_size=n * p, max_size=n * p))).reshape(n, p).astype(dtype)
    if p > 1 and data.draw(st.booleans()):
        R[:, -1] = R[:, 0]
    result, calls = _recorded(gram_schmidt_qr, R, variant)
    assert len(calls) == 1 and result[0] is calls[0][1]



@pytest.mark.parametrize("precision", [fp.BINARY64, fp.BINARY32], ids=lambda p: p.name)
def test_the_scatter_starts_at_2_16_entries(precision):
    """A basis of fewer than fp._SCATTER = 2^16 entries is the one transposed
    copy, and a larger one is scattered into np.zeros; both are Rt.T.copy()
    bit for bit."""
    for n, scattered in ((200, False), (256, True)):
        prob = random_structured_problem("jacobi", n, 3, precision)
        Rt = np.ascontiguousarray(lanczos(prob.A, prob.v, n).V.T)  # rows v_1..v_n, each on a coordinate
        coord = np.array([fp._coordinate(row) for row in Rt])
        shapes, zeros = [], np.zeros
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "zeros", lambda shape, *a, **k: shapes.append(shape) or zeros(shape, *a, **k))
            B = fp._basis(Rt, coord, whole=1)
        assert fp.bitwise_equal(B, Rt.T.copy()) and B.flags.c_contiguous and (shapes == [(n, n)]) is scattered
