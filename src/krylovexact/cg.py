"""Conjugate gradient: the Hestenes-Stiefel iteration and cgLanczos.

cg_hs is the classical Hestenes-Stiefel iteration.  cglanczos is CG rebuilt
from the Lanczos recurrence: `lanczos` gives the coefficients and basis,
`ldl` the LDL^T factors of T_k, and a vector block turns them into the CG
iterates.  Its residuals are the Lanczos vectors scaled by rho_k, so they are
exactly orthogonal whenever the input data has the structured form that lets
Lanczos compute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp import NonFiniteError, ShapeError, _dot, _matvec, _norm2, bitwise_symmetric, validate_operands
from .lanczos import lanczos


@dataclass(frozen=True)
class LDLFactors:
    """T = L D L^T with unit lower bidiagonal L: pivots d and multipliers ell."""

    d: np.ndarray
    ell: np.ndarray


@dataclass
class CGTrace:
    """Per-iteration CG history; index k runs from 0 (initial state)."""

    x: list = field(default_factory=list)
    r: list = field(default_factory=list)
    p: list = field(default_factory=list)
    gammas: list = field(default_factory=list)  # gamma_{k-1} of step k
    deltas: list = field(default_factory=list)  # delta_k of step k
    residual_norms: list = field(default_factory=list)
    # cgLanczos internals
    rho: list = field(default_factory=list)
    d: list = field(default_factory=list)
    ell: list = field(default_factory=list)
    lanczos_V: np.ndarray | None = None
    lanczos_alpha: np.ndarray | None = None
    lanczos_beta: np.ndarray | None = None
    exact_termination: bool = False

    @property
    def steps(self) -> int:
        return len(self.x) - 1

    def record(self, x, r, p) -> None:
        """Append x_k, r_k and p_k (fresh arrays, not copied) and ||r_k||."""
        self.x.append(x)
        self.r.append(r)
        self.p.append(p)
        self.residual_norms.append(_norm2(r))


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def cg_hs(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """Hestenes-Stiefel CG from x0 = 0, recording all iterates; stops on ||r_k|| = 0 exactly.
    A nonzero b whose squared norm underflows raises ValueError."""
    n = len(A)
    kmax = n if kmax is None else kmax
    validate_operands(A, b, k=kmax, limit=n, square=True)
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")
    x = np.zeros(n, dtype=A.dtype)
    r = b - _matvec(A.T, x)  # A is bitwise symmetric: same bits, contiguous columns
    p = r.copy()
    rr = _dot(r, r)
    if rr == 0 and b.any():  # a zero b is solved by x = 0; this one is not
        raise ValueError("right-hand side's squared norm underflows")
    tr = CGTrace()
    tr.record(x, r, p)
    for _ in range(kmax):
        if rr == 0:
            tr.exact_termination = True
            break
        Ap = _matvec(A.T, p)
        pAp = _dot(p, Ap)
        if pAp <= 0:
            raise ValueError("p^T A p <= 0: matrix is not numerically positive definite")
        gamma = rr / pAp
        x = x + gamma * p
        r = r - gamma * Ap
        rr_new = _dot(r, r)
        delta = rr_new / rr
        p = r + delta * p
        rr = rr_new
        tr.gammas.append(gamma)
        tr.deltas.append(delta)
        tr.record(x, r, p)
    return tr


@np.errstate(over="ignore", invalid="ignore")  # an overflowed inner ell_j makes d_{j+1} -inf, which raises
def ldl(alpha: np.ndarray, beta: np.ndarray) -> LDLFactors:
    """d_1 = alpha_1; ell_j = beta_{j+1}/d_j; d_{j+1} = alpha_{j+1} - beta_{j+1} ell_j.

    beta holds beta_2 .. beta_n, or also a trailing beta_{n+1} (as a Lanczos
    run returns it), which gives a last multiplier ell_n.  No pivot follows
    ell_n, so it raises NonFiniteError itself if it is not finite.
    """
    n = len(alpha)
    if len(beta) not in (n - 1, n):
        raise ShapeError(f"{n} pivots need {n - 1} or {n} off-diagonal entries, got {len(beta)}")
    d = np.empty(n, dtype=alpha.dtype)
    ell = np.empty(len(beta), dtype=alpha.dtype)
    for j in range(n):
        d[j] = alpha[j] if j == 0 else alpha[j] - beta[j - 1] * ell[j - 1]
        if d[j] <= 0:
            raise ValueError(f"nonpositive pivot d_{j + 1}: matrix is not positive definite")
        if j < len(beta):
            ell[j] = beta[j] / d[j]
    if len(ell) == n > 0 and not np.isfinite(ell[-1]):
        raise NonFiniteError(f"the trailing multiplier ell_{n} = beta_{n + 1}/d_{n} is not finite")
    return LDLFactors(d, ell)


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def cglanczos(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """CG reconstructed from the Lanczos recurrence (x0 = 0).

    lanczos(A, b, kmax) gives alpha_k, beta_{k+1} and v_{k+1}; ldl gives
    d_k = alpha_k - beta_k ell_{k-1} and ell_k = beta_{k+1}/d_k; the vector
    block is rho_k = ell_k rho_{k-1}, x_k = x_{k-1} + p_{k-1}/d_k,
    r_k = (-1)^k rho_k v_{k+1}, p_k = r_k + ell_k^2 p_{k-1}.
    """
    n = len(A)
    res = lanczos(A, b, n if kmax is None else kmax)  # validates A and b, and rejects b = 0
    rho = res.beta1
    f = ldl(res.alpha, res.beta)
    dt = A.dtype.type

    tr = CGTrace(
        rho=[rho],
        d=list(f.d),
        ell=list(f.ell),
        lanczos_V=res.V,
        lanczos_alpha=res.alpha,
        lanczos_beta=res.beta,
        exact_termination=res.breakdown is not None,
    )
    x = np.zeros(n, dtype=A.dtype)
    p = b.copy()
    tr.record(x, b.copy(), p)  # ||r_0|| = _norm2(b) has the bits of rho
    Vt = res.V.T  # row k is the Lanczos vector v_{k+1}
    for k, (d_k, ell_k) in enumerate(zip(f.d, f.ell), start=1):
        rho = ell_k * rho
        x = x + p / d_k
        if k == res.breakdown:
            r = np.zeros(n, dtype=A.dtype)
            p = np.zeros(n, dtype=A.dtype)
        else:
            r = rho * Vt[k]
            if k % 2 == 1:
                r = -r  # exact sign flip, fl(-a) = -a
            p = r + (ell_k * ell_k) * p
        tr.rho.append(rho)
        tr.record(x, r, p)
        tr.gammas.append(dt(1.0) / d_k)
        tr.deltas.append(ell_k * ell_k)
    return tr
