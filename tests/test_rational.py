import ast
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from krylovexact import rational
from krylovexact.problems import prescribe_cg_curves, random_convergence_curves, random_structure
from krylovexact.rational import (
    MAX_ORACLE_DIM,
    RationalCGTrace,
    is_spd_rational,
    nonzero_rows,
    rat_dot,
    rat_matvec,
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


def test_int_entries_above_2_53_convert_exactly():
    assert to_rational_vector(np.array([2**60 + 1])) == [Fraction(2**60 + 1)]
    assert to_rational_matrix(np.array([[2**60 + 1, -3]])) == [[Fraction(2**60 + 1), Fraction(-3)]]
    assert rational_cg(np.array([[2**53 + 1]]), np.array([1])).x_exact == [Fraction(1, 2**53 + 1)]


def test_rat_solve_known_2x2():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(3), Fraction(4)]
    x = rat_solve(A, b)
    assert x == [Fraction(1), Fraction(1)]
    assert rat_matvec(nonzero_rows(A), x) == b


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
    assert rat_matvec(nonzero_rows(A), xs_last) == to_rational_vector(b)
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


@pytest.mark.parametrize("v", [[0, 0, 0], [0, 1, 0]], ids=["zero", "eigenvector"])
def test_rational_lanczos_directions_stop_at_a_zero_direction(v):
    """v = 0 stops before the first product, and an eigenvector of A after it
    (its next direction is 0): either way v is the one direction."""
    A = to_rational_matrix(np.diag([2.0, 3.0, 5.0]))
    v = [Fraction(x) for x in v]
    assert rational_lanczos_directions(A, v) == [v]


def test_rational_lstsq_consistent_system():
    H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    y = rational_lstsq(H, [Fraction(1), Fraction(2), Fraction(3)])
    assert y == [Fraction(1), Fraction(2)]


def test_rational_lstsq_matches_normal_equations_by_hand():
    # min ||[1;1]y - [0;1]||: y = 1/2
    H = [[Fraction(1)], [Fraction(1)]]
    assert rational_lstsq(H, [Fraction(0), Fraction(1)]) == [Fraction(1, 2)]


def _normal_equations_lstsq(H, rhs):
    """Reference: the normal equations H^T H y = H^T rhs, solved exactly, for
    float arrays or lists of Fractions and ints."""
    Hr = [[Fraction(h) for h in row] for row in (H.tolist() if isinstance(H, np.ndarray) else H)]
    br = [Fraction(b) for b in (rhs.tolist() if isinstance(rhs, np.ndarray) else rhs)]
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


@settings(max_examples=40, deadline=None, phases=[p for p in Phase if p != Phase.explain])
@given(_hessenberg_lstsq_inputs())
def test_rational_lstsq_matches_the_normal_equations_on_unreduced_hessenberg(inputs):
    H, rhs = inputs
    assert rational_lstsq(H, rhs) == _normal_equations_lstsq(H, rhs)


@settings(max_examples=40, deadline=None, phases=[p for p in Phase if p != Phase.explain])
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


@pytest.mark.parametrize("H", [[[2, 1], [3, 5], [0, 7]], [[2, 1], [3, 5], [0, 0]]], ids=["unreduced", "breakdown"])
def test_lstsq_integers_back_substitutes_once_in_either_shape(H, monkeypatch):
    calls = []
    back_substitute = rational._back_substitute

    def counted(*args):
        calls.append(args)
        return back_substitute(*args)

    monkeypatch.setattr(rational, "_back_substitute", counted)
    _same_fractions(rational_lstsq(H, [1, 2, 3]), _normal_equations_lstsq(H, [1, 2, 3]))
    assert len(calls) == 1


def test_dimension_guard():
    n = MAX_ORACLE_DIM + 1
    A = np.eye(n)
    with pytest.raises(ValueError):
        rational_cg(A, np.ones(n))


def test_rat_norm2_sq():
    x = [Fraction(3), Fraction(4)]
    assert rat_dot(x, x) == 25


# ---------------------------------------------------------------------------
# The integer-accumulated kernels against the former Fraction folds


def _fold_dot(x, y):
    """Reference: the former term-by-term Fraction fold."""
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def _dense_matvec(A, x):
    return [_fold_dot(row, x) for row in A]


def _dense_solve(A, b):
    """Reference: the former dense elimination over every column."""
    n = len(A)
    m = [row[:] + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix in exact solve")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        fp = m[col][col]
        for r in range(col + 1, n):
            fr = m[r][col]
            if fr == 0:
                continue
            ratio = fr / fp
            for c in range(col, n + 1):
                m[r][c] -= m[col][c] * ratio
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def _dense_is_spd(A):
    n = len(A)
    m = [row[:] for row in A]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                return False
    for col in range(n):
        if m[col][col] <= 0:
            return False
        fp = m[col][col]
        for r in range(col + 1, n):
            fr = m[r][col]
            if fr == 0:
                continue
            ratio = fr / fp
            for c in range(col, n):
                m[r][c] -= m[col][c] * ratio
    return True


def _same_fractions(got, want):
    """Equal values with the same numerator and denominator, entry by entry."""
    got, want = list(got), list(want)
    assert all(type(g) is Fraction for g in got)
    assert [(g.numerator, g.denominator) for g in got] == [(w.numerator, w.denominator) for w in want]


# Dyadic entries (exact binary64 values), non-dyadic ones over odd denominators
# that share some factors and not others, and exact zeros; _ENTRIES also has
# ints, and int zeros.
_DYADIC = st.builds(
    lambda m, e: Fraction(m) * Fraction(2) ** e, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-80, 30)
)
_NON_DYADIC = st.builds(Fraction, st.integers(-(10**9), 10**9), st.sampled_from([3, 5, 7, 9, 15, 21, 35, 77, 3**12, 1001]))
_ZERO = st.sampled_from([0, Fraction(0)])
_FRACTIONS = st.one_of(_DYADIC, _NON_DYADIC, _ZERO.map(Fraction))
_ENTRIES = st.one_of(_DYADIC, _NON_DYADIC, _ZERO, st.integers(-(2**70), 2**70))

STRUCTURES = ("dense", "tridiagonal", "hessenberg", "zero-rows")


@st.composite
def _matrices(draw, entries, n_max=7, structures=STRUCTURES):
    """An n x n list matrix whose entries outside the structure are exact zeros."""
    n = draw(st.integers(1, n_max))
    structure = draw(st.sampled_from(structures))
    inside = {
        "dense": lambda i, j: True,
        "tridiagonal": lambda i, j: abs(i - j) <= 1,
        "hessenberg": lambda i, j: i <= j + 1,
        "zero-rows": lambda i, j: i % 3 != 1,
    }[structure]
    return [[draw(entries) if inside(i, j) else Fraction(0) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ENTRIES, _ENTRIES), max_size=40))
def test_rat_dot_matches_the_fraction_fold(pairs):
    x, y = [a for a, _ in pairs], [b for _, b in pairs]
    _same_fractions([rat_dot(x, y)], [_fold_dot(x, y)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rat_matvec_on_nonzero_rows_matches_the_dense_fold(data):
    A = data.draw(_matrices(_ENTRIES, n_max=9))
    x = data.draw(st.lists(_ENTRIES, min_size=len(A), max_size=len(A)))
    _same_fractions(rat_matvec(nonzero_rows(A), x), _dense_matvec(A, x))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nonzero_rows_of_a_float_array_match_its_rational_matrix(data):
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    n = data.draw(st.integers(1, 8))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -3.5e-30, 7.25e12])
    A = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)), dtype=dtype)
    x = data.draw(st.lists(_FRACTIONS, min_size=n, max_size=n))
    rows = nonzero_rows(A)
    assert all(a for row in rows for _, a in row)
    _same_fractions(rat_matvec(rows, x), _dense_matvec(to_rational_matrix(A), x))


def _as_fractions(A):
    return [[Fraction(a) for a in row] for row in A]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rat_solve_matches_the_dense_elimination(data):
    """Int entries solve to the Fractions of their values; the reference, whose
    int / int pivots would give floats, gets them as Fractions."""
    A = data.draw(_matrices(_ENTRIES))
    n = len(A)
    if data.draw(st.booleans()) and n > 1:  # a row that repeats a multiple of another: singular
        i, j = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(_ENTRIES)
        A[i] = [c * a for a in A[j]]
    b = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    try:
        want = _dense_solve(_as_fractions(A), [Fraction(v) for v in b])
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            rat_solve(A, b)
        return
    _same_fractions(rat_solve(A, b), want)


def test_int_lists_give_the_fractions_of_their_values():
    A, b = [[2, 1, 0], [1, 3, 1], [0, 1, 4]], [1, 0, 2]
    want = rational_cg(_as_fractions(A), [Fraction(v) for v in b])
    got = rational_cg(A, b)
    _same_fractions(got.x_exact, want.x_exact)
    for k in range(len(want.x)):
        _same_fractions(got.x[k], want.x[k])
    _same_fractions(got.rnorm2 + got.energy2 + got.gammas, want.rnorm2 + want.energy2 + want.gammas)
    _same_fractions(rat_solve([[3]], [1]), [Fraction(1, 3)])
    assert is_spd_rational([[2, 1], [1, 1]]) and not is_spd_rational([[1, 2], [2, 3]])


_LSTSQ_REJECTIONS = {
    "below": "H has a nonzero entry below the subdiagonal",
    "zero-subdiagonal": "H has a zero subdiagonal entry above a nonzero last row",
    "shape": "least squares needs an (m+1) x m matrix and a right-hand side of length m+1",
}


@st.composite
def _hessenberg_lists(draw):
    """An (m+1) x m list H of _ENTRIES (non-dyadic Fractions, ints, zeros) and a
    rhs, in one shape: unreduced; a zero last row over an unreduced or a
    reducible leading block, singular or not; or one of the three rejected
    shapes.  Returns (H, rhs, the expected rejection message or None)."""
    shape = draw(st.sampled_from(["unreduced", "breakdown", "reducible", "singular", *_LSTSQ_REJECTIONS]))
    m = draw(st.integers(2 if shape in ("reducible", "below", "zero-subdiagonal") else 1, 7))
    nonzero = _ENTRIES.map(lambda e: e or 1)
    H = [[draw(_ENTRIES) if i <= j else draw(nonzero) if i == j + 1 else draw(_ZERO) for j in range(m)] for i in range(m + 1)]
    rhs = draw(st.lists(_ENTRIES, min_size=m + 1, max_size=m + 1))
    if shape in ("breakdown", "reducible", "singular"):
        H[m][m - 1] = draw(_ZERO)
    if shape in ("reducible", "zero-subdiagonal"):
        j = draw(st.integers(0, m - 2))
        H[j + 1][j] = draw(_ZERO)
    if shape == "singular":  # row 0 a multiple of row 1, or 0 when m = 1
        c = draw(_ENTRIES)
        H[0] = [c * h for h in H[1]] if m > 1 else [0]
        if draw(st.booleans()) and m > 2:  # over a reducible block as well
            H[2][1] = draw(_ZERO)
    if shape == "below":
        j = draw(st.integers(0, m - 2))
        H[draw(st.integers(j + 2, m))][j] = draw(nonzero)
    if shape == "shape":
        H, rhs = draw(st.sampled_from([(H[:m], rhs[:m]), (H, rhs[:m]), (H, rhs + [1]), ([row[:-1] for row in H], rhs), (H[:m] + [H[m] + [0]], rhs)]))
    return H, rhs, _LSTSQ_REJECTIONS.get(shape)


# No explain phase: on a failing run it spends minutes drawing from this
# strategy before the failure is reported.
@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p != Phase.explain])
@given(_hessenberg_lists())
def test_rational_lstsq_on_lists_matches_the_normal_equations(case):
    """A common scale that is not a power of two, the rat_solve path of a
    reducible block, a singular block and the three rejections."""
    H, rhs, message = case
    if message:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rational_lstsq(H, rhs)
        return
    try:
        want = _normal_equations_lstsq(H, rhs)
    except ValueError:  # the leading m x m block is singular
        with pytest.raises(ValueError, match="^singular matrix in exact solve$"):
            rational_lstsq(H, rhs)
        return
    _same_fractions(rational_lstsq(H, rhs), want)


@st.composite
def _symmetric_matrices(draw):
    """L D L^T for a unit lower L of the drawn structure (tridiagonal or dense
    products), then, at times, an entry that breaks the symmetry.  The result
    is SPD exactly when every entry of D is positive and no entry was broken."""
    L = draw(_matrices(_FRACTIONS, structures=("dense", "tridiagonal", "zero-rows")))
    n = len(L)
    for i in range(n):
        L[i][i] = Fraction(1)
        L[i][i + 1 :] = [Fraction(0)] * (n - i - 1)
    positive = st.builds(Fraction, st.integers(1, 10**6), st.sampled_from([1, 2, 3, 2**40, 35]))
    D = [draw(positive) for _ in range(n)]
    if draw(st.booleans()):  # indefinite or singular
        D[draw(st.integers(0, n - 1))] *= draw(st.sampled_from([0, -1]))
    A = [[_fold_dot([L[i][k] * D[k] for k in range(n)], L[j]) for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.permutations(range(n)))[:2])
        A[j][i] += draw(_FRACTIONS.filter(bool))
    if draw(st.booleans()):  # integral entries as ints
        A = [[int(a) if a.denominator == 1 else a for a in row] for row in A]
    return A, all(d > 0 for d in D) and all(A[i][j] == A[j][i] for i in range(n) for j in range(i))


@settings(max_examples=150, deadline=None)
@given(_symmetric_matrices())
def test_is_spd_rational_matches_the_dense_elimination(case):
    A, spd = case
    assert is_spd_rational(A) is _dense_is_spd(_as_fractions(A)) is spd


@settings(max_examples=60, deadline=None)
@given(_matrices(_FRACTIONS, structures=("dense", "hessenberg")))
def test_is_spd_rational_rejects_non_symmetric_input(A):
    n = len(A)
    if all(A[i][j] == A[j][i] for i in range(n) for j in range(i)):
        A[n - 1][0] += 1
        if n == 1:
            return
    assert not is_spd_rational(A) and not _dense_is_spd(A)


def test_jacobi_oracle_is_linear_in_n(monkeypatch):
    """On a Jacobi matrix the SPD test and the solve add no fill-in: they make
    at most 3n Fraction products (the dense loops make O(n^2))."""
    calls = [0]
    mul = Fraction.__mul__

    def counting_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting_mul)
    for n in (12, 24, 48):
        T = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            T[i][i] = Fraction(4)
            if i + 1 < n:
                T[i][i + 1] = T[i + 1][i] = Fraction(1, 3)
        b = [Fraction(1)] * n
        calls[0] = 0
        assert is_spd_rational(T)
        x = rat_solve(T, b)
        assert calls[0] <= 3 * n, (n, calls[0])
        _same_fractions(x, _dense_solve(T, b))


# ---------------------------------------------------------------------------
# The CG oracle against the former one, which solved A x = b a second time


def _rational_cg_two_solves(A, b):
    """Reference: the former rational_cg, which took x* from rat_solve and each
    energy error from the error vector, e_k^T A e_k."""
    Ar = A if isinstance(A, list) else to_rational_matrix(A)
    br = b if isinstance(b, list) else to_rational_vector(b)
    n = len(br)
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"rational oracle limited to n <= {MAX_ORACLE_DIM}, got {n}")
    if not is_spd_rational(Ar):
        raise ValueError("matrix is not symmetric positive definite over the rationals")
    rows = nonzero_rows(Ar)
    xs = rat_solve(Ar, br)
    tr = RationalCGTrace(x_exact=xs)

    def record(xk, rk, pk, rr):
        e = [a - b_ for a, b_ in zip(xs, xk)]
        tr.x.append(xk)
        tr.r.append(rk)
        tr.p.append(pk)
        tr.rnorm2.append(rr)
        tr.energy2.append(rat_dot(e, rat_matvec(rows, e)))

    x = [Fraction(0)] * n
    r = [Fraction(bi) for bi in br]
    p = r[:]
    rr = rat_dot(r, r)
    record(x, r, p, rr)
    for _ in range(n):
        if rr == 0:
            break
        Ap = rat_matvec(rows, p)
        gamma = rr / rat_dot(p, Ap)
        x = [xi + gamma * pi for xi, pi in zip(x, p)]
        r = [ri - gamma * ai for ri, ai in zip(r, Ap)]
        rr_new = rat_dot(r, r)
        delta = rr_new / rr
        p = [ri + delta * pi for ri, pi in zip(r, p)]
        tr.gammas.append(gamma)
        tr.deltas.append(delta)
        rr = rr_new
        record(x, r, p, rr)
    return tr


def _same_cg(A, b):
    """rational_cg and the two-solve reference raise the same error, or give the
    same numerator and denominator in every entry of every field."""
    try:
        want = _rational_cg_two_solves(A, b)
    except ValueError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            rational_cg(A, b)
        return None
    got = rational_cg(A, b)
    for name in ("x", "r", "p"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        for g, w in zip(getattr(got, name), getattr(want, name)):
            _same_fractions(g, w)
    for name in ("gammas", "deltas", "rnorm2", "energy2", "x_exact"):
        _same_fractions(getattr(got, name), getattr(want, name))
    return got


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rational_cg_gives_the_fractions_of_the_two_solve_oracle(data):
    """SPD, indefinite, singular, asymmetric and int-entry matrices, with any b."""
    A, _ = data.draw(_symmetric_matrices())
    _same_cg(A, data.draw(st.lists(_ENTRIES, min_size=len(A), max_size=len(A))))


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_rational_cg_on_dense_binary64_arrays_gives_the_two_solve_fractions(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    A = (A + A.T) / 2  # bitwise symmetric
    assert _same_cg(A, rng.standard_normal(n)) is not None
    _same_cg(A - 2 * n * np.eye(n), np.ones(n))  # indefinite: the same error


@pytest.mark.parametrize("n", [1, 2, 8, 16, 24])
def test_rational_cg_on_a_jacobi_matrix_from_e1_gives_the_two_solve_fractions(n):
    T = random_structure("jacobi", n, n, spd=True).to_dense()
    b = np.zeros(n)
    b[0] = 1.0
    assert len(_same_cg(T, b).x) == n + 1


def test_rational_cg_solves_nothing_a_second_time(monkeypatch):
    def forbidden(*args):
        raise AssertionError("rat_solve called")

    monkeypatch.setattr(rational, "rat_solve", forbidden)
    T = random_structure("jacobi", 12, 1, spd=True).to_dense()
    tr = rational_cg(T, np.ones(12))
    assert rat_matvec(nonzero_rows(T), tr.x_exact) == to_rational_vector(np.ones(12))
    assert tr.energy2[-1] == 0 and all(c < a for a, c in zip(tr.energy2, tr.energy2[1:]))


# ---------------------------------------------------------------------------
# The CG oracle against the literal recurrence, which skips no zero term


def _literal_hs_cg(A, b):
    """Reference: Hestenes-Stiefel CG from x_0 = 0 in Fractions, with every
    product of every sum and every entry of every vector update formed; x* is
    the last iterate, and each energy error is e_k^T A e_k of its error vector."""
    A = [[Fraction(a) for a in row] for row in A]

    def dot(u, w):
        return sum((ui * wi for ui, wi in zip(u, w)), Fraction(0))

    x, r = [Fraction(0)] * len(b), [Fraction(bi) for bi in b]
    p, rr = r[:], dot(r, r)
    tr = RationalCGTrace(x=[x], r=[r], p=[p], rnorm2=[rr])
    while rr:
        Ap = [dot(row, p) for row in A]
        gamma = rr / dot(p, Ap)
        x = [xi + gamma * pi for xi, pi in zip(x, p)]
        r = [ri - gamma * ai for ri, ai in zip(r, Ap)]
        rr_new = dot(r, r)
        delta = rr_new / rr
        p = [ri + delta * pi for ri, pi in zip(r, p)]
        rr = rr_new
        tr.gammas.append(gamma)
        tr.deltas.append(delta)
        tr.x.append(x)
        tr.r.append(r)
        tr.p.append(p)
        tr.rnorm2.append(rr)
    tr.x_exact = x
    errors = ([xs - xi for xs, xi in zip(x, xk)] for xk in tr.x)
    tr.energy2 = [dot(e, [dot(row, e) for row in A]) for e in errors]
    return tr


def _same_as_literal(A, b):
    got, want = rational_cg(A, b), _literal_hs_cg(A, b)
    for name in ("x", "r", "p"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        for g, w in zip(getattr(got, name), getattr(want, name)):
            _same_fractions(g, w)
    for name in ("gammas", "deltas", "rnorm2", "energy2", "x_exact"):
        _same_fractions(getattr(got, name), getattr(want, name))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_rational_cg_on_prescribed_curves_gives_the_literal_recurrence_s_fractions(n, seed):
    """T is Jacobi and b = ||r_0|| e_1, so the iterates' tails are zeros that
    rational_cg's vector updates skip."""
    system = prescribe_cg_curves(random_convergence_curves(n, seed))
    _same_as_literal(system.exact_matrix(), system.exact_rhs())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([int, float, Fraction]), st.data())
def test_rational_cg_on_dense_spd_lists_gives_the_literal_recurrence_s_fractions(n, kind, data):
    """A = M M^T + n I and b with small int entries, given as int lists, as
    floats scaled by 0.1 (rounded) and as Fractions over 3 and 7."""
    small = st.integers(-4, 4)
    M = [[data.draw(small) for _ in range(n)] for _ in range(n)]
    A = [[sum(M[i][l] * M[j][l] for l in range(n)) + n * (i == j) for j in range(n)] for i in range(n)]
    b = [data.draw(small) for _ in range(n)]
    if kind is float:
        A, b = [[a * 0.1 for a in row] for row in A], [bi * 0.1 for bi in b]
    elif kind is Fraction:
        A, b = [[Fraction(a, 3) for a in row] for row in A], [Fraction(bi, 7) for bi in b]
    _same_as_literal(A, b)


# ---------------------------------------------------------------------------
# One conversion: every presentation of the same values gives the same result


def _presentations(a):
    """The array a, its tolist() floats, a list of Fractions, a list of its
    NumPy scalars and, when every entry is an integer, a list of ints and a
    list of np.int64 scalars."""
    floats = a.tolist()
    out = [a, floats, [Fraction(x) for x in floats] if a.ndim == 1 else _as_fractions(floats), _scalars(a)]
    if np.array_equal(a, np.trunc(a)):
        out += [a.astype(np.int64).tolist(), _scalars(a.astype(np.int64))]
    return out


def _scalars(a):
    """a as a list (of lists) of its own NumPy scalars."""
    return list(a) if a.ndim == 1 else [list(row) for row in a]


def _outcome(call):
    """The result with each Fraction as its (numerator, denominator) pair, so an
    int or a float in its place differs; or the exception's type and args.
    Each Fraction must hold Python ints, which never wrap."""

    def pairs(v):
        if isinstance(v, RationalCGTrace):
            return pairs([v.x, v.r, v.p, v.gammas, v.deltas, v.rnorm2, v.energy2, v.x_exact])
        if isinstance(v, list):
            return [pairs(w) for w in v]
        if isinstance(v, Fraction):
            assert type(v.numerator) is int and type(v.denominator) is int, v
            return v.numerator, v.denominator
        return v

    try:
        return pairs(call())
    except Exception as e:  # every presentation must raise the same
        return type(e), e.args


@st.composite
def _thin_gram_systems(draw):
    """A = M M^T in binary64 for M n x (n - 1), n = 2..4, uniform on [-2, 2] or
    with entries in -2..2: singular in exact arithmetic, so its rounding leaves
    it just SPD, indefinite or singular.  b is a vector on the same range."""
    n, g = draw(st.integers(2, 4)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = (lambda s: g.integers(-2, 3, s).astype(float)) if draw(st.booleans()) else (lambda s: g.uniform(-2, 2, s))
    M = entries((n, n - 1))
    return M @ M.T, entries(n)


@settings(max_examples=40, deadline=None)
@given(_thin_gram_systems())
# SPD over the rationals; eliminated in floats, its second pivot is <= 0
@example((np.array([[float.fromhex("0x1.37f07065380c1p+1"), float.fromhex("-0x1.b427ee425dc93p+0")],
                    [float.fromhex("-0x1.b427ee425dc93p+0"), float.fromhex("0x1.30eb1ef380b72p+0")]]), np.array([1.0, 0.0])))
# in np.int64 arithmetic the elimination wraps
@example((np.array([[2.0**40, 1.0], [1.0, 2.0**40]]), np.array([1.0, 1.0])))
def test_every_presentation_of_the_operands_gives_the_same_fractions(system):
    """rational_cg, is_spd_rational, rat_solve and rational_lanczos_directions
    on each presentation of A and of b give the array's result, Fraction for
    Fraction, or its exception."""
    A, b = system
    calls = [rational_cg, lambda A, b: is_spd_rational(A), rat_solve, rational_lanczos_directions]
    for call in calls:
        want = _outcome(lambda: call(A, b))
        for Ap in _presentations(A):
            for bp in _presentations(b):
                assert _outcome(lambda: call(Ap, bp)) == want


def test_only_rational_uses_its_private_names_and_krylov_general_holds_no_exact_numbers():
    """No module but rational imports a _-prefixed name from rational, and
    krylov_general imports neither fractions nor math."""
    hits = []
    for path in sorted(Path(rational.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rational" and path.name != "rational.py":
                hits += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
            if path.name == "krylov_general.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module] if not node.level else []
                hits += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] in ("fractions", "math")]
    assert hits == []


# ---------------------------------------------------------------------------
# The CG oracle's support bookkeeping against the literal recurrence


@st.composite
def _sparse_spd_systems(draw):
    """A strictly diagonally dominant, so SPD, int matrix with a sparse
    pattern: a Jacobi matrix permuted as P T P^T, Jacobi blocks with no
    coupling between them, or a band of half-width 2 or 3; and b with 1-3
    nonzeros at drawn positions.  Both are given as int lists, as float lists
    and arrays (scaled by 0.1, rounded), or as Fraction lists (over 3 and 7)."""
    n = draw(st.integers(1, 8))
    pattern = draw(st.sampled_from(["permuted-jacobi", "decoupled-jacobi", "banded"]))
    width = draw(st.integers(2, 3)) if pattern == "banded" else 1
    small = st.integers(-3, 3)
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(i + width + 1, n)):
            A[i][j] = A[j][i] = draw(small)
    if pattern == "decoupled-jacobi" and n > 1:
        for i in draw(st.sets(st.integers(0, n - 2), min_size=1)):
            A[i][i + 1] = A[i + 1][i] = 0
    for i in range(n):
        A[i][i] = sum(abs(a) for a in A[i]) + draw(st.integers(1, 4))
    if pattern == "permuted-jacobi":
        perm = draw(st.permutations(range(n)))
        A = [[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    b = [0] * n
    for i in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
        b[i] = draw(small.filter(bool))
    kind = draw(st.sampled_from(["int", "float", "Fraction", "array"]))
    if kind in ("float", "array"):
        A, b = [[a * 0.1 for a in row] for row in A], [bi * 0.1 for bi in b]
    elif kind == "Fraction":
        A, b = [[Fraction(a, 3) for a in row] for row in A], [Fraction(bi, 7) for bi in b]
    return (np.array(A), np.array(b)) if kind == "array" else (A, b)


@settings(max_examples=80, deadline=None)
@given(_sparse_spd_systems())
def test_rational_cg_on_sparse_systems_gives_the_literal_recurrence_s_fractions(system):
    """Every field of the trace, numerator and denominator, while the
    supports of r and p grow, split into decoupled blocks and lose entries."""
    _same_as_literal(*system)


def test_rational_cg_drops_an_entry_of_r_that_cancels_inside_its_support():
    """r_1 = (1/2, 0, 1/2) and r_2 = (0, 8/15, 0): both entries of r_1's support
    cancel to exact zeros at step 2 of 3."""
    A, b = [[5, -2, 0], [-2, 7, -2], [0, -2, 3]], [-2, 0, 2]
    tr = rational_cg(A, b)
    assert tr.r[1] == [Fraction(1, 2), 0, Fraction(1, 2)] and tr.r[2] == [0, Fraction(8, 15), 0]
    assert len(tr.r) == 4 and tr.rnorm2[3] == 0
    _same_as_literal(A, b)


def test_a_fraction_of_numpy_ints_is_read_as_python_ints():
    """Fraction(np.int64(a)) keeps the int64; the oracles rebuild it, so the
    elimination does not wrap and the results hold the Python-int Fractions."""
    F = Fraction(np.int64(2**40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_fractions(rat_solve([[F, 1], [1, F]], [1, 1]), [Fraction(1, 2**40 + 1)] * 2)
        got = _outcome(lambda: rational_cg([[F, 1], [1, F]], [Fraction(np.int64(3), np.int64(7)), F]))
    assert got == _outcome(lambda: rational_cg([[2**40, 1], [1, 2**40]], [Fraction(3, 7), 2**40]))


@pytest.mark.parametrize("A", [[[2, 1], [0, 2]], [[2, 0], [1, 2]], [[3, 1, 0], [1, 3, 1], [0, 0, 3]]])
def test_is_spd_rational_rejects_an_entry_whose_mirror_is_an_exact_zero(A):
    """The symmetric check reads nonzero entries only, so an entry whose
    mirror is left out as zero must still fail it, above or below the
    diagonal, although either triangle alone passes the elimination."""
    assert not is_spd_rational(A) and not _dense_is_spd(_as_fractions(A))
    with pytest.raises(ValueError, match="^matrix is not symmetric positive definite over the rationals$"):
        rational_cg(A, [1] * len(A))


@pytest.mark.parametrize(
    "A, b",
    [
        ([[2, 0], [0, 2]], [1, 1, 1]),
        (np.diag([2.0, 2.0, 2.0]), [1, 1]),
        ([[1, 0, 5], [0, 1, 0]], [1, 1]),
        ([[2], [0, 2]], [1, 1]),
    ],
    ids=["b-longer", "b-shorter", "extra-column", "ragged"],
)
def test_rational_cg_rejects_a_matrix_that_is_not_n_x_n_for_b(A, b):
    """A b entry beyond A's rows once made the loop run forever (its residual
    entry never changed); a shorter b, an extra column or a short row is as
    wrong.  Each raises before the conversion and the SPD test."""
    with pytest.raises(ValueError, match=r"^rational_cg needs an n x n matrix for b of length n = \d+$"):
        rational_cg(A, b)


@pytest.mark.parametrize("A", [[[1, 0, 5], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[2], [0, 2]], np.eye(3)[:2]])
def test_is_spd_rational_is_false_on_a_matrix_that_is_not_square(A):
    """Its entries are read sparsely, so the shape is checked on its own: an
    extra column, zero or not, an extra row or a short row."""
    assert is_spd_rational(A) is False


def test_the_fallback_to_the_public_fraction_constructor_gives_the_same_fractions(monkeypatch):
    """_plus_scaled builds its entries through Fraction's private constructor
    where this Python has one, and through the public Fraction otherwise; the
    chosen one builds a canonical Fraction, and the fallback gives every trace
    field the same numerators and denominators."""
    built = rational._from_coprime(-3, 2)
    assert type(built) is Fraction and (built.numerator, built.denominator) == (-3, 2)
    curves = prescribe_cg_curves(random_convergence_curves(9, 5))
    systems = [
        (curves.exact_matrix(), curves.exact_rhs()),
        ([[5, -2, 0], [-2, 7, -2], [0, -2, 3]], [-2, 0, 2]),
        ([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]], [0.1, -0.7, 0.3]),
    ]
    want = [rational_cg(A, b) for A, b in systems]
    monkeypatch.setattr(rational, "_from_coprime", Fraction)
    for (A, b), w in zip(systems, want):
        got = rational_cg(A, b)
        for name in ("x", "r", "p"):
            for g, v in zip(getattr(got, name), getattr(w, name), strict=True):
                _same_fractions(g, v)
        for name in ("gammas", "deltas", "rnorm2", "energy2", "x_exact"):
            _same_fractions(getattr(got, name), getattr(w, name))


def test_rational_cg_sums_ap_over_p_s_support_when_b_is_dense(monkeypatch):
    """With every support dense, A p over p's support takes n terms per entry
    and the recurrence A r + delta A p_prev takes n + 1, so each step takes
    the first.  The recurrence alone gives the same Fractions but made a
    dense SPD n = 20 about 6x slower (ROADMAP "Measured and dropped")."""
    sizes = []
    real = rational._sum_products

    def counting(pairs):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return real(pairs)

    n = 6
    A = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    b = list(range(1, n + 1))
    monkeypatch.setattr(rational, "_sum_products", counting)
    tr = rational_cg(A, b)
    assert len(tr.gammas) == n and all(all(ri for ri in r) for r in tr.r[:-1])
    assert max(sizes) == n
    _same_as_literal(A, b)
