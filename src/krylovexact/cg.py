"""Conjugate gradient variants and the LDL^T machinery connecting them to Lanczos.

cg_hs is the classical Hestenes-Stiefel iteration.  cglanczos reconstructs
the CG quantities from the Lanczos recurrence and the LDL^T factors, which
makes the residual vectors exactly orthogonal whenever the input data has
the structured form that lets Lanczos compute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp import ShapeError, _dot, _matvec, norm2, seq_dot, validate_operands
from .problems import JacobiMatrix


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


def cg_hs(A: np.ndarray, b: np.ndarray, x0: np.ndarray | None = None, kmax: int | None = None) -> CGTrace:
    """Hestenes-Stiefel CG, recording all iterates; stops on ||r_k|| = 0 exactly."""
    n = len(A)
    kmax = n if kmax is None else kmax
    validate_operands(A, b, x0, k=kmax, limit=n)
    x = np.zeros(n, dtype=A.dtype) if x0 is None else x0.copy()
    r = b - _matvec(A, x)
    p = r.copy()
    tr = CGTrace()
    tr.x.append(x.copy())
    tr.r.append(r.copy())
    tr.p.append(p.copy())
    rr = seq_dot(r, r)
    tr.residual_norms.append(norm2(r))
    for _ in range(kmax):
        if rr == 0:
            tr.exact_termination = True
            break
        Ap = _matvec(A, p)
        pAp = seq_dot(p, Ap)
        if pAp <= 0:
            raise ValueError("p^T A p <= 0: matrix is not numerically positive definite")
        gamma = rr / pAp
        x = x + gamma * p
        r = r - gamma * Ap
        rr_new = seq_dot(r, r)
        delta = rr_new / rr
        p = r + delta * p
        rr = rr_new
        tr.gammas.append(gamma)
        tr.deltas.append(delta)
        tr.x.append(x.copy())
        tr.r.append(r.copy())
        tr.p.append(p.copy())
        tr.residual_norms.append(norm2(r))
    return tr


def ldl(T: JacobiMatrix) -> LDLFactors:
    """d_1 = alpha_1; ell_j = beta_{j+1}/d_j; d_{j+1} = alpha_{j+1} - beta_{j+1} ell_j."""
    alpha = T.alpha
    beta = T.beta
    dt = alpha.dtype.type
    d = np.empty(T.n, dtype=alpha.dtype)
    ell = np.empty(max(T.n - 1, 0), dtype=alpha.dtype)
    d[0] = alpha[0]
    if d[0] <= 0:
        raise ValueError("nonpositive pivot d_1")
    for j in range(T.n - 1):
        ell[j] = beta[j] / d[j]
        d[j + 1] = alpha[j + 1] - beta[j] * ell[j]
        if d[j + 1] <= 0:
            raise ValueError(f"nonpositive pivot d_{j + 2}")
    return LDLFactors(d, ell)


def ldl_solve(factors: LDLFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve L D L^T y = rhs by forward substitution, scaling, back substitution."""
    d, ell = factors.d, factors.ell
    k = len(d)
    y = rhs.astype(d.dtype).copy()
    for j in range(1, k):
        y[j] = y[j] - ell[j - 1] * y[j - 1]
    for j in range(k):
        y[j] = y[j] / d[j]
    for j in range(k - 2, -1, -1):
        y[j] = y[j] - ell[j] * y[j + 1]
    return y


def coeffs_cg_to_lanczos(gammas, deltas, dtype=np.float64):
    """Map CG coefficients to Lanczos ones.

    gammas = [gamma_0, ..., gamma_{k-1}], deltas = [delta_1, ..., delta_{k-1}]
    (a trailing delta_k is accepted and ignored; delta_0 = 0 and gamma_{-1} = 1
    are the boundary conventions).  alpha_j = 1/gamma_{j-1} + delta_{j-1}/gamma_{j-2},
    beta_{j+1} = sqrt(delta_j)/gamma_{j-1}.
    """
    dt = np.dtype(dtype).type
    k = len(gammas)
    if len(deltas) not in (k, k - 1):
        raise ShapeError("coefficient lists have inconsistent lengths")
    if any(float(g) <= 0 for g in gammas):
        raise ValueError("nonpositive gamma")
    alphas = np.empty(k, dtype=dtype)
    alphas[0] = dt(1.0) / dt(gammas[0])
    for j in range(2, k + 1):
        alphas[j - 1] = dt(1.0) / dt(gammas[j - 1]) + dt(deltas[j - 2]) / dt(gammas[j - 2])
    betas = np.empty(k - 1, dtype=dtype)
    for j in range(1, k):
        betas[j - 1] = np.sqrt(dt(deltas[j - 1])) / dt(gammas[j - 1])
    return alphas, betas


def cg_from_lanczos_solve(A: np.ndarray, b: np.ndarray, k: int):
    """CG approximation x_k = V_k y_k with T_k y_k = ||b|| e1 solved via LDL^T.

    x0 = 0 is fixed.  Returns (x_k, y_k, hit_breakdown); on Lanczos breakdown
    before k the solution at the breakdown index is returned.
    """
    from .lanczos import lanczos

    res = lanczos(A, b, k, variant="mgs", reorth="none")
    keff = res.k
    T = res.tridiagonal()
    rhs = np.zeros(keff, dtype=A.dtype)
    rhs[0] = res.beta1
    y = ldl_solve(ldl(T), rhs)
    x = _matvec(res.V[:, :keff], y)
    return x, y, res.breakdown is not None and res.breakdown < k


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def cglanczos(A: np.ndarray, b: np.ndarray, kmax: int | None = None) -> CGTrace:
    """CG reconstructed from the Lanczos recurrence (x0 = 0).

    Runs the Lanczos block (w, alpha_k, beta_{k+1}, v_{k+1}), the LDL^T block
    (d_k = alpha_k - beta_k ell_{k-1}, ell_k = beta_{k+1}/d_k), and the vector
    block (rho_k = ell_k rho_{k-1}, x_k = x_{k-1} + p_{k-1}/d_k,
    r_k = (-1)^k rho_k v_{k+1}, p_k = r_k + ell_k^2 p_{k-1}).
    """
    n = len(A)
    kmax = n if kmax is None else kmax
    validate_operands(A, b, k=kmax, limit=n)
    dt = A.dtype.type

    tr = CGTrace()
    x = np.zeros(n, dtype=A.dtype)
    r = b.copy()
    p = r.copy()
    rho = norm2(b)
    if rho == 0:
        raise ValueError("right-hand side is zero")
    tr.x.append(x.copy())
    tr.r.append(r.copy())
    tr.p.append(p.copy())
    tr.residual_norms.append(rho)
    tr.rho.append(rho)

    Vt = np.zeros((kmax + 1, n), dtype=A.dtype)  # row k is the Lanczos vector v_{k+1}
    Vt[0] = b / rho
    vprev = np.zeros(n, dtype=A.dtype)
    beta_k = dt(0.0)
    ell_prev = dt(0.0)
    alphas = []
    betas = []
    cols = 1
    for k in range(1, kmax + 1):
        vk = Vt[k - 1]
        w = _matvec(A, vk) - beta_k * vprev
        alpha_k = _dot(w, vk)
        w = w - alpha_k * vk
        beta_next = norm2(w)
        alphas.append(alpha_k)
        betas.append(beta_next)

        d_k = alpha_k - beta_k * ell_prev
        if d_k <= 0:
            raise ValueError(f"nonpositive pivot d_{k}: matrix is not positive definite")
        ell_k = beta_next / d_k
        rho = ell_k * rho
        x = x + p / d_k
        if beta_next == 0:
            r = np.zeros(n, dtype=A.dtype)
            p = np.zeros(n, dtype=A.dtype)
            tr.exact_termination = True
        else:
            Vt[k] = w / beta_next
            cols = k + 1
            r = rho * Vt[k]
            if k % 2 == 1:
                r = -r  # exact sign flip, fl(-a) = -a
            p = r + (ell_k * ell_k) * p
        tr.d.append(d_k)
        tr.ell.append(ell_k)
        tr.rho.append(rho)
        tr.x.append(x.copy())
        tr.r.append(r.copy())
        tr.p.append(p.copy())
        tr.residual_norms.append(norm2(r))
        tr.gammas.append(dt(1.0) / d_k)
        tr.deltas.append(ell_k * ell_k)
        vprev = vk
        beta_k = beta_next
        ell_prev = ell_k
        if tr.exact_termination:
            break
    tr.lanczos_V = Vt[:cols].T.copy()
    tr.lanczos_alpha = np.array(alphas, dtype=A.dtype)
    tr.lanczos_beta = np.array(betas, dtype=A.dtype)
    return tr
