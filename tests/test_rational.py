import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.rational import (
    MAX_ORACLE_DIM,
    is_spd_rational,
    rat_dot,
    rat_matvec,
    rat_norm2_sq,
    rat_solve,
    rational_cg,
    rational_lanczos_directions,
    rational_lstsq,
    to_rational_matrix,
    to_rational_vector,
)


def test_dyadic_conversion_is_exact():
    xs = np.array([0.1, -2.5, 3.0])
    rs = to_rational_vector(xs)
    assert rs[1] == Fraction(-5, 2)
    assert float(rs[0]) == 0.1  # exact binary value of the double 0.1


def test_rat_solve_known_2x2():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(3), Fraction(4)]
    x = rat_solve(A, b)
    assert x == [Fraction(1), Fraction(1)]
    assert rat_matvec(A, x) == b


def test_rat_solve_singular_raises():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError):
        rat_solve(A, [Fraction(1), Fraction(0)])


def test_is_spd_rational():
    spd = to_rational_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert is_spd_rational(spd)
    indef = to_rational_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
    assert not is_spd_rational(indef)


def test_rational_cg_terminates_at_exact_solution():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
    b = np.array([1.0, 0.0, 2.0])
    tr = rational_cg(A, b)
    xs_last = tr.x[-1]
    assert rat_matvec(to_rational_matrix(A), xs_last) == to_rational_vector(b)
    assert tr.rnorm2[-1] == 0
    # energy error strictly decreasing until termination
    for a, c in zip(tr.energy2, tr.energy2[1:]):
        assert c < a


def test_rational_cg_residuals_mutually_orthogonal():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
    b = np.array([1.0, 1.0, 1.0])
    tr = rational_cg(A, b)
    rs = [r for r in tr.r if any(x != 0 for x in r)]
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            assert rat_dot(rs[i], rs[j]) == 0


def test_rational_lanczos_directions_are_orthogonal():
    A = to_rational_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]]))
    v = [Fraction(1), Fraction(0), Fraction(0)]
    U = rational_lanczos_directions(A, v)
    for i in range(len(U)):
        for j in range(i + 1, len(U)):
            assert rat_dot(U[i], U[j]) == 0


def test_rational_lstsq_consistent_system():
    H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    y = rational_lstsq(H, [Fraction(1), Fraction(2), Fraction(3)])
    assert y == [Fraction(1), Fraction(2)]


def test_rational_lstsq_matches_normal_equations_by_hand():
    # min ||[1;1]y - [0;1]||: y = 1/2
    H = [[Fraction(1)], [Fraction(1)]]
    assert rational_lstsq(H, [Fraction(0), Fraction(1)]) == [Fraction(1, 2)]


def _normal_equations_lstsq(H, rhs):
    """Reference: the normal equations H^T H y = H^T rhs, solved exactly."""
    Hr, br = to_rational_matrix(H), to_rational_vector(rhs)
    cols = range(len(Hr[0]))
    G = [[sum(row[i] * row[j] for row in Hr) for j in cols] for i in cols]
    return rat_solve(G, [sum(row[i] * b for row, b in zip(Hr, br)) for i in cols])


@st.composite
def _hessenberg_lstsq_inputs(draw):
    """An unreduced (m+1) x m upper Hessenberg H of binary64 or binary32 dyadics,
    with +-0 entries on and above the diagonal, and an arbitrary rhs."""
    dtype, bits = draw(st.sampled_from([(np.float64, 53), (np.float32, 24)]))
    m = draw(st.integers(1, 16))

    def value(nonzero=False):
        mantissas = st.integers(1, 2**bits - 1)
        mantissa = draw(mantissas if nonzero else st.just(0) | mantissas)
        return math.copysign(math.ldexp(mantissa, draw(st.integers(-bits - 20, 20))), draw(st.sampled_from([1.0, -1.0])))

    H = np.zeros((m + 1, m), dtype=dtype)
    for j in range(m):
        H[: j + 1, j] = [value() for _ in range(j + 1)]
        H[j + 1, j] = value(nonzero=True)
    return H, np.array([value() for _ in range(m + 1)], dtype=dtype)


@settings(max_examples=40, deadline=None)
@given(_hessenberg_lstsq_inputs())
def test_rational_lstsq_matches_the_normal_equations_on_unreduced_hessenberg(inputs):
    H, rhs = inputs
    assert rational_lstsq(H, rhs) == _normal_equations_lstsq(H, rhs)


@settings(max_examples=40, deadline=None)
@given(_hessenberg_lstsq_inputs())
def test_rational_lstsq_matches_the_normal_equations_after_a_breakdown(inputs):
    H, rhs = inputs
    H[-1] = 0.0
    try:
        expected = _normal_equations_lstsq(H, rhs)
    except ValueError:  # the leading m x m block is singular
        with pytest.raises(ValueError, match="singular"):
            rational_lstsq(H, rhs)
        return
    assert rational_lstsq(H, rhs) == expected


@pytest.mark.parametrize(
    "H, message",
    [
        ([[1, 2], [1, 1], [1, 1]], "below the subdiagonal"),
        ([[1, 2], [0, 1], [0, 1]], "zero subdiagonal"),
        ([[1, 2], [1, 1]], r"\(m\+1\) x m"),
    ],
    ids=["below-subdiagonal", "zero-subdiagonal", "square"],
)
def test_rational_lstsq_rejects_other_shapes(H, message):
    Hr = [[Fraction(h) for h in row] for row in H]
    with pytest.raises(ValueError, match=message):
        rational_lstsq(Hr, [Fraction(1)] * len(Hr))


def test_dimension_guard():
    n = MAX_ORACLE_DIM + 1
    A = np.eye(n)
    with pytest.raises(ValueError):
        rational_cg(A, np.ones(n))


def test_rat_norm2_sq():
    assert rat_norm2_sq([Fraction(3), Fraction(4)]) == 25
