"""Conjugate gradient: the Hestenes-Stiefel iteration and cgLanczos.

cg_hs is the classical Hestenes-Stiefel iteration.  cglanczos is CG rebuilt
from one Lanczos run: one pass over its steps forms the LDL^T factors of T_k
and turns them into the CG iterates.  Its residuals are the Lanczos vectors
scaled by rho_k, so they are exactly orthogonal whenever the input data has
the structured form that lets Lanczos compute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp import NonFiniteError, _dot, _matvec, _norm2, bitwise_symmetric, validate_operands
from .lanczos import lanczos


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


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def cglanczos(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """CG reconstructed from the Lanczos recurrence (x0 = 0).

    lanczos(A, b, kmax) gives alpha_k, beta_{k+1} and v_{k+1}.  Step k forms
    the pivot d_k = alpha_k - beta_k ell_{k-1} and the multiplier
    ell_k = beta_{k+1}/d_k of T_k = L D L^T, then the vector block
    rho_k = ell_k rho_{k-1}, x_k = x_{k-1} + p_{k-1}/d_k,
    r_k = (-1)^k rho_k v_{k+1}, p_k = r_k + ell_k^2 p_{k-1}.

    A pivot d_k <= 0 raises ValueError.  So does an ell_k that is not finite
    when a step follows, since d_{k+1} = alpha_{k+1} - beta_{k+1} ell_k is
    then -inf; a last ell_k that is not finite raises NonFiniteError.
    """
    n = len(A)
    res = lanczos(A, b, n if kmax is None else kmax)  # validates A and b, and rejects b = 0
    dt = A.dtype.type
    rho = res.beta1
    tr = CGTrace(rho=[rho], exact_termination=res.breakdown is not None)
    x = np.zeros(n, dtype=A.dtype)
    p = b.copy()
    tr.record(x, b.copy(), p)  # ||r_0|| = _norm2(b) has the bits of rho
    Vt = res.V.T  # row k is the Lanczos vector v_{k+1}
    beta_k = ell_k = dt(0.0)  # beta_1 ell_0 = +0, so d_1 = alpha_1
    for k, (alpha_k, beta_next) in enumerate(zip(res.alpha, res.beta), start=1):
        d_k = alpha_k - beta_k * ell_k
        if d_k <= 0:
            raise ValueError(f"nonpositive pivot d_{k}: matrix is not positive definite")
        ell_k = beta_next / d_k
        if not np.isfinite(ell_k):
            if k < res.k:
                raise ValueError(f"nonpositive pivot d_{k + 1}: matrix is not positive definite")
            raise NonFiniteError(f"the trailing multiplier ell_{k} = beta_{k + 1}/d_{k} is not finite")
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
        tr.d.append(d_k)
        tr.ell.append(ell_k)
        tr.rho.append(rho)
        tr.record(x, r, p)
        tr.gammas.append(dt(1.0) / d_k)
        tr.deltas.append(ell_k * ell_k)
        beta_k = beta_next
    return tr
