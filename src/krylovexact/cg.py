"""Conjugate gradient: the Hestenes-Stiefel iteration and cgLanczos.

cg_hs is the classical Hestenes-Stiefel iteration.  cglanczos is CG rebuilt
from one Lanczos run: each Lanczos step is followed by the CG step that
forms the LDL^T factors of T_k and turns them into the CG iterates.  Its
residuals are the Lanczos vectors scaled by rho_k, so they are exactly
orthogonal whenever the input data has the structured form that lets
Lanczos compute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp import NonFiniteError, _dot, _matvec, bitwise_symmetric, require_finite, validate_operands
from .lanczos import _lanczos_steps


@dataclass
class CGTrace:
    """Per-iteration CG history: x, r, p, residual_norms and rho hold step k at index k, from the initial state k = 0."""

    x: list = field(default_factory=list)
    r: list = field(default_factory=list)
    p: list = field(default_factory=list)
    gammas: list = field(default_factory=list)  # index k - 1: gamma_{k-1} of step k
    deltas: list = field(default_factory=list)  # index k - 1: delta_k of step k
    residual_norms: list = field(default_factory=list)
    # cgLanczos internals
    rho: list = field(default_factory=list)
    d: list = field(default_factory=list)  # index k - 1: d_k of step k
    ell: list = field(default_factory=list)  # index k - 1: ell_k of step k
    exact_termination: bool = False

    @property
    def steps(self) -> int:
        return len(self.x) - 1

    def record(self, x, r, p, gamma, delta, rr) -> None:
        """Append step k >= 1: x_k, r_k, p_k (fresh arrays, not copied), ||r_k|| = sqrt(rr),
        gamma_{k-1} and delta_k.  rr is the caller's _dot(r_k, r_k), which raised on a
        non-finite r_k; a non-finite x_k, p_k or gamma_{k-1} raises NonFiniteError."""
        k = len(self.x)
        require_finite(x, f"CG iterate x_{k}")
        require_finite(p, f"CG direction p_{k}")
        require_finite(gamma, f"CG step gamma_{k - 1}")
        self.gammas.append(gamma)
        self.deltas.append(delta)
        self.x.append(x)
        self.r.append(r)
        self.p.append(p)
        self.residual_norms.append(np.sqrt(rr))


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def cg_hs(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """Hestenes-Stiefel CG from x0 = 0, recording all iterates; stops on ||r_k|| = 0 exactly.
    A nonzero b whose squared norm underflows raises ValueError; an x_k, p_k
    or gamma_{k-1} that overflows raises NonFiniteError (CGTrace.record)."""
    validate_operands(A, b, k=0 if kmax is None else kmax, square=True)
    n = len(A)
    kmax = n if kmax is None else kmax
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")
    x = np.zeros(n, dtype=A.dtype)
    r = b.copy()  # r_0 = b - A x_0 = b - (+0), which is b bit for bit
    p = r.copy()
    rr = _dot(r, r)
    if rr == 0 and b.any():  # a zero b is solved by x = 0; this one is not
        raise ValueError("right-hand side's squared norm underflows")
    tr = CGTrace(x=[x], r=[r], p=[p], residual_norms=[np.sqrt(rr)])
    for _ in range(kmax):
        if rr == 0:
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
        tr.record(x, r, p, gamma, delta, rr)
    tr.exact_termination = bool(rr == 0)  # also after the last allowed step
    return tr


@np.errstate(over="ignore", invalid="ignore")  # once per run, for its Lanczos steps too; non-finite results raise in the kernels
def cglanczos(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """CG reconstructed from the Lanczos recurrence (x0 = 0).

    Lanczos step k, of the run lanczos(A, b, kmax), gives alpha_k, beta_{k+1}
    and v_{k+1}, and CG step k runs at once on them.  Step k forms
    the pivot d_k = alpha_k - beta_k ell_{k-1} and the multiplier
    ell_k = beta_{k+1}/d_k of T_k = L D L^T, then the vector block
    rho_k = ell_k rho_{k-1}, x_k = x_{k-1} + p_{k-1}/d_k,
    r_k = (-1)^k rho_k v_{k+1}, p_k = r_k + ell_k^2 p_{k-1}.

    A pivot d_k <= 0 raises ValueError.  So does an ell_k that is not finite
    when a step follows, since d_{k+1} = alpha_{k+1} - beta_{k+1} ell_k is
    then -inf; a last ell_k that is not finite raises NonFiniteError, and so
    does an x_k, p_k or gamma_{k-1} = 1/d_k that overflows (CGTrace.record).
    Errors come in step order, because the steps interleave: a Lanczos step
    runs only after every earlier CG step, and a CG error ends the run before
    the next Lanczos step.
    """
    steps = _lanczos_steps(A, b, kmax, "mgs", "none")
    _, rho, _ = next(steps)  # validates A and b, rejects b = 0, and gives rho_0 = beta_1 = ||b||
    n = len(A)
    kmax = n if kmax is None else kmax
    dt = A.dtype.type
    x = np.zeros(n, dtype=A.dtype)
    p = b.copy()
    tr = CGTrace(x=[x], r=[b.copy()], p=[p], residual_norms=[rho], rho=[rho])  # ||r_0|| = rho
    beta_k = ell_k = dt(0.0)  # beta_1 ell_0 = +0, so d_1 = alpha_1
    for k, (alpha_k, beta_next, v_next) in enumerate(steps, start=1):
        d_k = alpha_k - beta_k * ell_k
        if d_k <= 0:
            raise ValueError(f"nonpositive pivot d_{k}: matrix is not positive definite")
        ell_k = beta_next / d_k
        if not np.isfinite(ell_k):
            if k < kmax:
                raise ValueError(f"nonpositive pivot d_{k + 1}: matrix is not positive definite")
            raise NonFiniteError(f"the trailing multiplier ell_{k} = beta_{k + 1}/d_{k} is not finite")
        rho = ell_k * rho
        x = x + p / d_k
        if beta_next == 0:  # the Lanczos run broke down: the last step, and r_k = 0 exactly
            tr.exact_termination = True
            r = np.zeros(n, dtype=A.dtype)
            p = np.zeros(n, dtype=A.dtype)
        else:
            r = (-rho if k % 2 else rho) * v_next  # fl(-rho v) = -fl(rho v), signed zeros too
            p = r + (ell_k * ell_k) * p
        tr.d.append(d_k)
        tr.ell.append(ell_k)
        tr.rho.append(rho)
        tr.record(x, r, p, dt(1.0) / d_k, ell_k * ell_k, _dot(r, r))
        beta_k = beta_next
    return tr
