"""Exact rational-arithmetic linear algebra used as the reference oracle.

Floats convert to dyadic rationals losslessly (Fraction(float) is exact),
so running an algorithm here gives its exact-arithmetic result for the
same floating-point input data.  No square roots are ever needed: the CG
coefficients, iterates, squared norms, and cross products are all rational.
The CG oracle is the exact SPD test plus the CG recurrence alone: x* is the
iterate at which r reaches 0, and the energy errors are sums of the
recurrence's own gamma_j ||r_j||^2, exact because r_{j+1} is orthogonal to p_j.

The Fraction kernels (dots, matrix-vector rows, rat_solve's back
substitution) take every exact sum of products through one kernel,
_sum_products.  It carries the sum in plain ints over a running common
denominator and builds one Fraction at the end.  Exact sums do not depend on
the order of their terms, and Fraction is canonical (lowest terms, positive
denominator), so Fraction(num, den) has the same numerator and denominator
as a term-by-term Fraction fold.  A zero term adds exactly nothing, so the
kernel skips it; for the same reason rat_matvec visits only each row's
nonzero (column, entry) pairs, and the eliminations of rat_solve and
is_spd_rational update only the columns where the pivot row is nonzero.  A
Jacobi matrix has no fill-in, so its solve and SPD test take O(n) Fraction
operations.

The GMRES witness's exact arithmetic lives here too (witness_norms).  Its
Hessenberg least squares (_lstsq_integers) builds no Fraction in its loops:
it reads H and the right-hand side once as ints over one common denominator,
runs one null-space recurrence over the columns with a nonzero subdiagonal
(all of them when H is unreduced, all but the last after a breakdown) and
one back substitution, scaled by the product of those subdiagonal entries so
that every division is exact.  Entries are read through tolist(), so an int
array entry stays exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, ldexp, prod
from operator import mul

import numpy as np

from .fp import RangeError

# A bound on n only.  Exact CG's own numbers grow: the denominators of x_k are
# Krylov Gram determinants, so their bit length, not the Fraction overhead,
# sets the cost, and it depends on b as well as on A.  Measured CPU time of
# rational_cg on a 2-vCPU VM: 6.03 s for a dense SPD A at n = 20; 10.8 s for
# random_structure("jacobi", 24, 3, spd=True) with b = ones; 0.08 s in all for
# fig3's calls (T_24 with b = e_1).
MAX_ORACLE_DIM = 48


def to_rational_vector(x) -> list[Fraction]:
    return [Fraction(v) for v in np.asarray(x).ravel().tolist()]


def to_rational_matrix(A) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in np.asarray(A).tolist()]


def nonzero_rows(A) -> list[list[tuple[int, Fraction]]]:
    """Each row's nonzero entries as (column, Fraction) pairs, the form rat_matvec
    takes.  Float entries convert exactly; zeros are left out."""
    rows = A.tolist() if isinstance(A, np.ndarray) else A
    return [[(j, Fraction(a)) for j, a in enumerate(row) if a] for row in rows]


def _sum_products(pairs) -> Fraction:
    """Exact sum of a*b over pairs of Fractions or ints, carried in ints over a
    running common denominator and normalized once."""
    num, den = 0, 1
    for a, b in pairs:
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            g = gcd(d, den)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def rat_matvec(rows: list[list[tuple[int, Fraction]]], x: list[Fraction]) -> list[Fraction]:
    """A x for A given by nonzero_rows(A)."""
    return [_sum_products((a, x[j]) for j, a in row) for row in rows]


def rat_dot(x: list[Fraction], y: list[Fraction]) -> Fraction:
    return _sum_products(zip(x, y))


def rat_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Exact solve by Gaussian elimination with partial (nonzero) pivoting."""
    n = len(A)
    m = [row[:] + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix in exact solve")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        fp = Fraction(prow[col])  # an int pivot would make int / int a float
        cols = [c for c in range(col + 1, n + 1) if prow[c]]
        for r in range(col + 1, n):
            row = m[r]
            if row[col]:
                ratio = row[col] / fp
                for c in cols:
                    row[c] -= prow[c] * ratio
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        x[r] = (row[n] - _sum_products(zip(row[r + 1 : n], x[r + 1 :]))) / row[r]
    return x


def is_spd_rational(A: list[list[Fraction]]) -> bool:
    """Exact SPD test via rational LDL^T pivots.  The Schur complements stay
    exactly symmetric, so the rows to update are the pivot row's nonzero
    columns, and only their upper triangle is kept."""
    n = len(A)
    m = [row[:] for row in A]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                return False
    for col in range(n):
        prow = m[col]
        fp = Fraction(prow[col])  # an int pivot would make int / int a float
        if fp <= 0:
            return False
        cols = [c for c in range(col + 1, n) if prow[c]]
        for i, r in enumerate(cols):
            row = m[r]
            ratio = prow[r] / fp
            for c in cols[i:]:
                row[c] -= prow[c] * ratio
    return True


@dataclass
class RationalCGTrace:
    """Exact CG history: iterates, residuals, directions, coefficients, norms.

    Index k of x/r/p/rnorm2/energy2 runs 0..m where m is the termination step;
    index k - 1 of gammas and deltas holds gamma_{k-1} and delta_k of step k.
    """

    x: list[list[Fraction]] = field(default_factory=list)
    r: list[list[Fraction]] = field(default_factory=list)
    p: list[list[Fraction]] = field(default_factory=list)
    gammas: list[Fraction] = field(default_factory=list)
    deltas: list[Fraction] = field(default_factory=list)
    rnorm2: list[Fraction] = field(default_factory=list)
    energy2: list[Fraction] = field(default_factory=list)  # ||x* - x_k||_A^2
    x_exact: list[Fraction] | None = None


def rational_cg(A, b) -> RationalCGTrace:
    """Hestenes-Stiefel CG in exact rational arithmetic, from x0 = 0 until r = 0.

    Accepts int or float arrays or rational lists; entries convert exactly.
    On SPD A exact CG reaches r_m = 0 within m <= n steps, so x_m is x*, and
    since r_{j+1} is orthogonal to p_j the squared energy errors are the
    suffix sums ||x* - x_k||_A^2 = sum_{j>=k} gamma_j ||r_j||^2 (Hestenes and
    Stiefel, 1952): no solve and no error vector is formed.

    n > MAX_ORACLE_DIM raises ValueError.  That limit bounds n only; the cost
    also depends on b (see MAX_ORACLE_DIM for measured costs).
    """
    Ar = A if isinstance(A, list) else to_rational_matrix(A)
    br = b if isinstance(b, list) else to_rational_vector(b)
    n = len(br)
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"rational oracle limited to n <= {MAX_ORACLE_DIM}, got {n}")
    if not is_spd_rational(Ar):
        raise ValueError("matrix is not symmetric positive definite over the rationals")
    rows = nonzero_rows(Ar)
    x = [Fraction(0)] * n
    r = [Fraction(bi) for bi in br]  # r_0 = b - A x_0 with x_0 = 0
    p = r[:]
    rr = rat_dot(r, r)
    tr = RationalCGTrace(x=[x], r=[r], p=[p], rnorm2=[rr])
    while rr:  # each step builds new lists, so none is copied
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
        tr.x.append(x)
        tr.r.append(r)
        tr.p.append(p)
        tr.rnorm2.append(rr)
    tr.x_exact = x[:]
    tr.energy2 = [Fraction(0)]
    for gamma, rr in zip(reversed(tr.gammas), reversed(tr.rnorm2[:-1])):
        tr.energy2.append(tr.energy2[-1] + gamma * rr)
    tr.energy2.reverse()
    return tr


def rational_lanczos_directions(A, v) -> list[list[Fraction]]:
    """Unnormalized exact Lanczos directions u_1, u_2, ..., at most n of them.

    u_j is a positive rational multiple of the j-th Lanczos vector, computed
    without square roots via the Stieltjes recurrence
    u_{j+1} = A u_j - (u_j^T A u_j / u_j^T u_j) u_j - (u_j^T u_j / u_{j-1}^T u_{j-1}) u_{j-1},
    from u_0 = 0 with u_0^T u_0 := 1, so the first step subtracts an exact zero.
    """
    rows = nonzero_rows(A)
    u = v if isinstance(v, list) else to_rational_vector(v)
    out = [u[:]]
    prev, nrm_prev = [0] * len(u), 1  # u_0 and u_0^T u_0
    for _ in range(len(u) - 1):
        nrm = rat_dot(u, u)
        if nrm == 0:
            break
        Au = rat_matvec(rows, u)
        a = rat_dot(u, Au) / nrm
        nxt = [w - a * ui for w, ui in zip(Au, u)]
        bcoef = nrm / nrm_prev
        nxt = [t - bcoef * pi for t, pi in zip(nxt, prev)]
        prev, nrm_prev = u, nrm
        u = nxt
        if all(c == 0 for c in u):
            break
        out.append(u[:])
    return out


def _integers_over_lcm(values) -> tuple[list[int], int]:
    """Integers N and one positive L with values[i] == N[i] / L exactly, where L
    is the lcm of the values' denominators: a power of two when they are
    floats.  Takes floats, ints and Fractions."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios], scale


def _back_substitute(cols, s, b, y) -> list[int]:
    """Integer back substitution on rows 1.. of a Hessenberg matrix given by its
    band columns: for i = len(b) - 1, ..., 0, y[i] = (b[i] - sum_{l>i}
    cols[l][i+1] y[l]) / s[i].  Entries of y from len(b) on are given.  Every
    division must be exact; the callers' scalings make it so."""
    for i in range(len(b) - 1, -1, -1):
        y[i] = (b[i] - sum(cols[l][i + 1] * y[l] for l in range(i + 1, len(y)))) // s[i]
    return y


def _lstsq_integers(H, rhs) -> tuple[list[int], int]:
    """rational_lstsq's argmin y as ints Y over one denominator F, y[i] ==
    Fraction(Y[i], F), with the same checks and errors.

    H's band (rows <= j+1 of column j) and rhs are read once as ints over their
    common denominator L.  Scaling every row by L leaves the argmin unchanged,
    so only G = L H and r = L rhs are used.  Let s_j = G[j+1][j], and let c = m
    for an unreduced H and c = m - 1 for a zero last row.

    One recurrence serves both shapes: with D = prod(s_0..s_{c-1}), Z_0 = D and
    Z_{j+1} = -(sum_{i<=j} Z_i G[i][j]) / s_j for j < c, Z spans the left null
    space of G's first c columns.  Then one back substitution over rows 1..c,
    whose diagonal is s, gives Y_i = (b_i - sum_{l>i} G[i+1][l] Y_l) / s_i:

    - Unreduced H (c = m).  G y = r - (Z.r / Q) Z with Q = Z.Z, so b_i =
      (r_{i+1} Q - (Z.r) Z_{i+1}) D, and y = Y / (Q D).
    - Zero last row (c = m - 1).  y solves the leading m x m system, and Z
      annihilates its first m - 1 columns, so y_{m-1} = Z.r / M with M =
      Z.h_{m-1}, h_{m-1} the last column.  M = 0 iff the system is singular.
      b_i = r_{i+1} M D, the preset Y_{m-1} = (Z.r) D, and y = Y / (M D).
    - A zero last row over a reducible leading block (an s_j = 0 with j < c):
      rat_solve.

    Every division is exact: by induction Z_j is a multiple of prod_{l>=j}
    s_l, and Y_j of prod_{l<j} s_l, since b_i and every Y_l with l > i are
    multiples of prod_{l<=i} s_l.  So the O(m^2) operations are int products
    and sums, and no gcd is taken.
    """
    Hr = H if isinstance(H, list) else np.asarray(H).tolist()
    br = rhs if isinstance(rhs, list) else np.asarray(rhs).ravel().tolist()
    m = len(Hr) - 1
    if m < 0 or len(br) != m + 1 or any(len(row) != m for row in Hr):
        raise ValueError("least squares needs an (m+1) x m matrix and a right-hand side of length m+1")
    if any(Hr[i][j] for j in range(m) for i in range(j + 2, m + 1)):
        raise ValueError("H has a nonzero entry below the subdiagonal")
    ints, _ = _integers_over_lcm([Hr[i][j] for j in range(m) for i in range(j + 2)] + br)
    it = iter(ints)
    cols = [list(islice(it, j + 2)) for j in range(m)]  # cols[j][i] = G[i][j], i <= j + 1
    r = list(it)
    s = [col[-1] for col in cols]
    c = m if any(Hr[m]) else m - 1
    if m == 0 or not all(s[:c]):
        if c == m:
            raise ValueError("H has a zero subdiagonal entry above a nonzero last row")
        return _integers_over_lcm(rat_solve([[col[i] if i < len(col) else 0 for col in cols] for i in range(m)], r[:m]))
    D = prod(s[:c])
    Z = [D]
    for col, sj in zip(cols[:c], s):
        Z.append(-sum(map(mul, Z, col)) // sj)
    Zr = sum(map(mul, Z, r))
    if c == m:
        F = sum(map(mul, Z, Z))  # Q
        b, preset = [ri * F - Zr * zi for ri, zi in zip(r[1:], Z[1:])], []
    else:
        F = sum(map(mul, Z, cols[-1]))  # M = Z.h_{m-1}
        if not F:
            raise ValueError("singular matrix in exact solve")
        b, preset = [ri * F for ri in r[1:m]], [Zr * D]
    return _back_substitute(cols, s, [bi * D for bi in b], [0] * c + preset), F * D


def rational_lstsq(H, rhs) -> list[Fraction]:
    """Exact least-squares argmin ||H y - rhs|| for an (m+1) x m upper Hessenberg H.

    H must have one of the two shapes Arnoldi produces: unreduced (every
    subdiagonal entry H[j+1][j] nonzero), or a zero last row (breakdown), when
    y solves the leading m x m system exactly.  Anything else raises
    ValueError: H not (m+1) x m or rhs not of length m+1, a nonzero entry below
    the subdiagonal, a zero subdiagonal entry above a nonzero last row, or a
    singular leading block after a breakdown.  Floats, ints and Fractions
    convert exactly.

    The argmin is computed in ints over one common scale (_lstsq_integers) in
    O(m^2) operations; the normal equations H^T H y = H^T rhs would cost O(m^3)
    on numbers of twice the bit length.
    """
    Y, F = _lstsq_integers(H, rhs)
    return [Fraction(y, F) for y in Y]


def _distance(nums: list[int], den: int, computed) -> float:
    """||nums / den - computed|| for int numerators over one denominator, as
    float(sqrt(num / den2)) of the exact squared norm q = num / den2 in ints
    (int / int is float(q), correctly rounded, without a gcd); where it
    overflows, the root of q / 4^e times 2^e.  RangeError if the norm is beyond binary64."""
    cs, scale = _integers_over_lcm(np.asarray(computed).ravel().tolist())
    num, den2 = sum((a * scale - b * den) ** 2 for a, b in zip(nums, cs)), (den * scale) ** 2
    try:
        return float(np.sqrt(num / den2))
    except OverflowError:  # q is beyond binary64; its root need not be
        q = Fraction(num, den2)
        e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return ldexp(float(np.sqrt(float(q / (1 << 2 * e)))), e)  # 4^e = 2^(2e), an exact int
    except OverflowError:
        raise RangeError("the error norm is beyond binary64") from None


def witness_norms(V, H, rhs, xbar, ybar) -> tuple[float, float]:
    """The GMRES witness pair (||x - xbar||, ||y - ybar||) for the exact
    y = argmin ||H y - rhs|| and x = V y.

    y is Y / F in ints (_lstsq_integers), and x is V Y / (L F), with V's
    nonzero entries taken as ints over their common denominator L.
    """
    Y, F = _lstsq_integers(H, rhs)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in V.tolist()]
    vs, scale = _integers_over_lcm([a for row in rows for _, a in row])
    vs = iter(vs)
    X = [sum(next(vs) * Y[j] for j, _ in row) for row in rows]
    return _distance(X, scale * F, xbar), _distance(Y, F, ybar)
