from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from krylovexact.fp import (
    BINARY32,
    BINARY64,
    NonFiniteError,
    RangeError,
    ShapeError,
    bitwise_equal,
    exact_op_catalog,
    first_bit_difference,
    freeze,
    frobenius_norm,
    matmat,
    matvec,
    norm2,
    precision_named,
    precision_of,
    seq_dot,
    seq_dot_reference,
    sqrt_square_roundtrip,
)

guarded64 = st.floats(min_value=2.0**-400, max_value=2.0**400, allow_nan=False).map(
    lambda x: x if x > 0 else 1.0
)
signed64 = st.tuples(guarded64, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


def test_precision_lookup():
    assert precision_named("binary64") is BINARY64
    assert precision_named("binary32") is BINARY32
    with pytest.raises(ValueError):
        precision_named("binary16")
    assert precision_of(np.zeros(3, dtype=np.float32)) is BINARY32
    with pytest.raises(TypeError):
        precision_of(np.zeros(3, dtype=np.int64))


def test_unit_roundoff_values():
    assert BINARY64.unit_roundoff == 2.0**-53
    assert BINARY32.unit_roundoff == 2.0**-24


@given(signed64)
def test_exact_op_catalog_holds(a):
    assert all(exact_op_catalog(a).values())


@given(signed64)
def test_sqrt_square_roundtrip_in_guard(a):
    assert sqrt_square_roundtrip(a)


def test_sqrt_square_roundtrip_guard_violations():
    with pytest.raises(RangeError):
        sqrt_square_roundtrip(1e200)  # alpha^2 overflows
    with pytest.raises(RangeError):
        sqrt_square_roundtrip(np.float32(1e30), BINARY32)


def test_bitwise_zero_signs():
    a = np.array([0.0])
    b = np.array([-0.0])
    assert a[0] == b[0]
    assert not bitwise_equal(a, b)
    assert first_bit_difference(a, b) == (0,)


def test_first_bit_difference_location():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.5, 3.0])
    assert first_bit_difference(a, b) == (1,)
    assert first_bit_difference(a, a.copy()) is None


def test_freeze_blocks_writes():
    a = freeze(np.zeros(2))
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_require_finite_via_norm2():
    with pytest.raises(NonFiniteError):
        norm2(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        norm2(np.array([0.0, np.nan], dtype=np.float32))


vecs = st.lists(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).map(
        lambda x: float(np.float64(x))
    ),
    min_size=1,
    max_size=12,
)


@given(vecs, st.randoms())
def test_seq_dot_matches_reference(xs, rnd):
    ys = [rnd.choice([-1.0, 0.0, 1.0, 0.5, 3.0]) for _ in xs]
    x = np.array(xs)
    y = np.array(ys)
    assert seq_dot(x, y) == seq_dot_reference(x, y)
    got = seq_dot(x, y)
    # an accumulator that starts at +0 never turns into -0
    if got == 0:
        assert not np.signbit(got)


@given(vecs)
def test_seq_dot_float32_matches_reference(xs):
    x = np.array(xs, dtype=np.float32)
    y = np.array(xs[::-1], dtype=np.float32)
    got = seq_dot(x, y)
    assert got.dtype == np.float32
    assert got == seq_dot_reference(x, y)


def test_seq_dot_shape_error():
    with pytest.raises(ShapeError):
        seq_dot(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        seq_dot(np.ones(2, dtype=np.float32), np.ones(2))


# zeros of both signs, NaN, infinities, subnormals, and magnitudes whose
# products or sums overflow, mixed with ordinary values
special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-45, 1e-40, 3e38, -2e38, 1e200, -1e300, 1.5, -0.75])
entries = st.one_of(special, st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))


@given(st.lists(st.tuples(entries, entries), min_size=1, max_size=10), st.sampled_from([np.float64, np.float32]))
def test_seq_dot_raises_exactly_when_the_reference_is_not_finite(pairs, dtype):
    with np.errstate(all="ignore"):
        x = np.array([a for a, _ in pairs], dtype=dtype)
        y = np.array([b for _, b in pairs], dtype=dtype)
        ref = seq_dot_reference(x, y)
    if np.isfinite(ref):
        assert bitwise_equal(np.asarray(seq_dot(x, y)), np.asarray(ref))
    else:
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            seq_dot(x, y)


def test_seq_dot_does_not_skip_nan_times_zero():
    with pytest.raises(NonFiniteError):
        seq_dot(np.array([np.nan, 1.0]), np.array([0.0, 2.0]))


def _matvec_reference(A, x):
    dt = A.dtype.type
    y = np.empty(A.shape[0], dtype=A.dtype)
    for r in range(A.shape[0]):
        acc = dt(0.0)
        for c in range(A.shape[1]):
            acc = acc + A[r, c] * x[c]
        y[r] = acc
    return y


@given(st.integers(1, 6), st.integers(0, 10))
def test_matvec_matches_rowwise_reference(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    A = g.uniform(-4, 4, (n, n))
    x = g.uniform(-4, 4, n)
    x[g.integers(0, n)] = 0.0  # exercise the zero-column skip
    assert bitwise_equal(matvec(A, x), _matvec_reference(A, x))


@given(st.integers(1, 6), st.integers(0, 10), st.sampled_from([1.0, -1.0, 3.5]))
def test_matvec_single_nonzero_fast_path(n, seed, s):
    g = np.random.Generator(np.random.Philox(key=seed))
    A = g.uniform(-4, 4, (n, n))
    x = np.zeros(n)
    x[g.integers(0, n)] = s
    assert bitwise_equal(matvec(A, x), _matvec_reference(A, x))


def test_matvec_and_matmat_scan_the_columns_x_skips():
    A = np.eye(3)
    A[1, 0] = np.nan
    x = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NonFiniteError):
        matvec(A, x)
    with pytest.raises(NonFiniteError):
        matmat(A, x[:, None])


def test_matvec_signed_zero_renormalization():
    # a signed-identity column times a negative entry must not leave -0 rows
    A = np.array([[0.0, -2.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    y = matvec(A, x)
    assert y[1] == 0.0 and not np.signbit(y[1])


def test_norm2_of_signed_identity_column_is_exact():
    v = np.zeros(7)
    v[3] = -2.5
    r = norm2(v)
    assert r == 2.5 and isinstance(r, float)
    v32 = v.astype(np.float32)
    r32 = norm2(v32)
    assert r32 == np.float32(2.5) and r32.dtype == np.float32


@given(vecs)
def test_norm2_matches_fraction_oracle(xs):
    x = np.array(xs)
    exact = sum(Fraction(v) * Fraction(v) for v in xs)
    got = norm2(x)
    assert abs(Fraction(got) ** 2 - exact) <= Fraction(8 * len(xs)) * Fraction(2) ** -52 * max(
        exact, Fraction(1)
    )


def test_frobenius_norm_zero_matrix_is_positive_zero():
    r = frobenius_norm(np.zeros((3, 3)))
    assert r == 0.0 and not np.signbit(np.float64(r))


def test_guard_interval():
    assert BINARY64.in_guard(1.0)
    assert not BINARY64.in_guard(0.0)
    assert not BINARY64.in_guard(2.0**501)
    assert BINARY32.in_guard(np.float32(2.0**-59))
    assert not BINARY32.in_guard(np.float32(2.0**61))
