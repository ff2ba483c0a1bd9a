"""Exact rational-arithmetic linear algebra used as the reference oracle.

Floats convert to dyadic rationals losslessly (Fraction(float) is exact),
so running an algorithm here gives its exact-arithmetic result for the
same floating-point input data.  No square roots are ever needed: the CG
coefficients, iterates, squared norms, and cross products are all rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MAX_ORACLE_DIM = 48  # entry bit-length grows quickly under exact elimination


def to_rational_vector(x) -> list[Fraction]:
    return [Fraction(float(v)) for v in np.asarray(x).ravel()]


def to_rational_matrix(A) -> list[list[Fraction]]:
    A = np.asarray(A)
    return [[Fraction(float(v)) for v in row] for row in A]


def rat_matvec(A: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, x) if a and b), Fraction(0)) for row in A]


def rat_dot(x: list[Fraction], y: list[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def rat_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Exact solve by Gaussian elimination with partial (nonzero) pivoting."""
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


def is_spd_rational(A: list[list[Fraction]]) -> bool:
    """Exact SPD test via rational Cholesky-style pivots (LDL^T of a dense matrix)."""
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


@dataclass
class RationalCGTrace:
    """Exact CG history: iterates, residuals, directions, coefficients, norms.

    Index k of x/r/p runs 0..m where m is the termination step; gammas[k] is
    gamma_{k-1} of step k and deltas[k] is delta_k (deltas[0] == 0).
    """

    x: list[list[Fraction]] = field(default_factory=list)
    r: list[list[Fraction]] = field(default_factory=list)
    p: list[list[Fraction]] = field(default_factory=list)
    gammas: list[Fraction] = field(default_factory=list)
    deltas: list[Fraction] = field(default_factory=list)
    rnorm2: list[Fraction] = field(default_factory=list)
    energy2: list[Fraction] = field(default_factory=list)  # ||x* - x_k||_A^2
    x_exact: list[Fraction] | None = None


def rational_cg(A, b, kmax: int | None = None, x0=None) -> RationalCGTrace:
    """Hestenes-Stiefel CG in exact rational arithmetic.

    Accepts float arrays or rational lists; floats are converted exactly.
    Also returns the exact squared energy errors via an exact solve of Ax=b.
    """
    Ar = A if isinstance(A, list) else to_rational_matrix(A)
    br = b if isinstance(b, list) else to_rational_vector(b)
    n = len(br)
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"rational oracle limited to n <= {MAX_ORACLE_DIM}, got {n}")
    if not is_spd_rational(Ar):
        raise ValueError("matrix is not symmetric positive definite over the rationals")
    if kmax is None:
        kmax = n
    x = [Fraction(0)] * n if x0 is None else (x0 if isinstance(x0, list) else to_rational_vector(x0))
    xs = rat_solve(Ar, br)
    r = [bi - ai for bi, ai in zip(br, rat_matvec(Ar, x))]
    p = r[:]
    tr = RationalCGTrace(x_exact=xs)

    def record(xk, rk):
        e = [a - b_ for a, b_ in zip(xs, xk)]
        tr.x.append(xk[:])
        tr.r.append(rk[:])
        tr.rnorm2.append(rat_dot(rk, rk))
        tr.energy2.append(rat_dot(e, rat_matvec(Ar, e)))

    record(x, r)
    tr.p.append(p[:])
    rr = tr.rnorm2[0]
    for _ in range(kmax):
        if rr == 0:
            break
        Ap = rat_matvec(Ar, p)
        pAp = rat_dot(p, Ap)
        gamma = rr / pAp
        x = [xi + gamma * pi for xi, pi in zip(x, p)]
        r = [ri - gamma * ai for ri, ai in zip(r, Ap)]
        rr_new = rat_dot(r, r)
        delta = rr_new / rr
        p = [ri + delta * pi for ri, pi in zip(r, p)]
        tr.gammas.append(gamma)
        tr.deltas.append(delta)
        record(x, r)
        tr.p.append(p[:])
        rr = rr_new
    return tr


def rational_lanczos_directions(A, v, kmax: int | None = None) -> list[list[Fraction]]:
    """Unnormalized exact Lanczos directions u_1, u_2, ...

    u_j is a positive rational multiple of the j-th Lanczos vector, computed
    without square roots via the Stieltjes recurrence
    u_{j+1} = A u_j - (u_j^T A u_j / u_j^T u_j) u_j - (u_j^T u_j / u_{j-1}^T u_{j-1}) u_{j-1}.
    """
    Ar = A if isinstance(A, list) else to_rational_matrix(A)
    u = v if isinstance(v, list) else to_rational_vector(v)
    n = len(u)
    if kmax is None:
        kmax = n
    out = [u[:]]
    prev = None
    nrm_prev = None
    for _ in range(kmax - 1):
        nrm = rat_dot(u, u)
        if nrm == 0:
            break
        Au = rat_matvec(Ar, u)
        a = rat_dot(u, Au) / nrm
        nxt = [w - a * ui for w, ui in zip(Au, u)]
        if prev is not None:
            bcoef = nrm / nrm_prev
            nxt = [t - bcoef * pi for t, pi in zip(nxt, prev)]
        prev, nrm_prev = u, nrm
        u = nxt
        if all(c == 0 for c in u):
            break
        out.append(u[:])
    return out


def rational_lstsq(H, rhs) -> list[Fraction]:
    """Exact least-squares argmin ||H y - rhs|| for an (m+1) x m upper Hessenberg H.

    H must have one of the two shapes Arnoldi produces: unreduced (every
    subdiagonal entry H[j+1][j] nonzero), or a zero last row (breakdown), when
    y solves the leading m x m system exactly.  Anything else raises
    ValueError: H not (m+1) x m or rhs not of length m+1, a nonzero entry below
    the subdiagonal, a zero subdiagonal entry above a nonzero last row, or a
    singular leading block after a breakdown.  Floats convert exactly.

    For unreduced H, z with z_0 = 1, z_{j+1} = -(sum_{i<=j} z_i H[i][j]) / H[j+1][j]
    spans the null space of H^T, so H y = rhs - (z^T rhs / z^T z) z, solved by
    back-substitution on rows 1..m, whose diagonal is the subdiagonal of H.
    That is O(m^2) Fraction operations; the normal equations H^T H y = H^T rhs
    cost O(m^3) on numbers of twice the bit length.
    """
    Hr = H if isinstance(H, list) else to_rational_matrix(H)
    br = rhs if isinstance(rhs, list) else to_rational_vector(rhs)
    m = len(Hr) - 1
    if m < 0 or len(br) != m + 1 or any(len(row) != m for row in Hr):
        raise ValueError("least squares needs an (m+1) x m matrix and a right-hand side of length m+1")
    if any(Hr[i][j] for j in range(m) for i in range(j + 2, m + 1)):
        raise ValueError("H has a nonzero entry below the subdiagonal")
    if not any(Hr[m]):
        return rat_solve(Hr[:m], br[:m])
    if not all(Hr[j + 1][j] for j in range(m)):
        raise ValueError("H has a zero subdiagonal entry above a nonzero last row")
    z = [Fraction(1)]
    for j in range(m):
        z.append(-rat_dot(z, [Hr[i][j] for i in range(j + 1)]) / Hr[j + 1][j])
    c = rat_dot(z, br) / rat_dot(z, z)
    p = [b - c * zi for b, zi in zip(br, z)]
    y = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        row = Hr[i + 1]
        y[i] = (p[i + 1] - rat_dot(row[i + 1 :], y[i + 1 :])) / row[i]
    return y


def rat_norm2_sq(x: list[Fraction]) -> Fraction:
    return rat_dot(x, x)


def float_of(q: Fraction) -> float:
    return float(q)  # Fraction.__float__ is correctly rounded
