"""Krylov basis algorithms beyond symmetric Lanczos, with exactness counterparts.

Arnoldi (modified Gram-Schmidt), two-sided nonsymmetric Lanczos, Golub-Kahan
bidiagonalization, block Lanczos with Gram-Schmidt QR, and the GMRES
coordinate-error identity for structured Hessenberg inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import ShapeError, _dot, _gram, _matmat, _matvec, _mgs, _norm2, _start, require_finite, validate_operands
from .lanczos import VARIANTS
from .rational import witness_norms


@dataclass(frozen=True)
class ArnoldiResult:
    V: np.ndarray  # n x (k+1), or n x j on breakdown at step j
    H: np.ndarray  # (k+1) x k extended Hessenberg; H[j+1, j] = 0 on breakdown
    breakdown: int | None

    @property
    def k(self) -> int:
        return self.H.shape[1]

    def square(self) -> np.ndarray:
        return self.H[: self.k, :].copy()


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def arnoldi(A: np.ndarray, v: np.ndarray, k: int) -> ArnoldiResult:
    """Algorithm: w = A v_j; for i = 1..j: h_{i,j} = v_i^T w, w = w - h_{i,j} v_i;
    h_{j+1,j} = ||w||; stop on exact zero."""
    n = len(A)
    validate_operands(A, v, k=k, limit=n, square=True)
    Vt = np.zeros((k + 1, n), dtype=A.dtype)  # row j is v_{j+1}
    _, Vt[0] = _start(v, "starting vector")
    H = np.zeros((k + 1, k), dtype=A.dtype)
    Af = np.asfortranarray(A)  # _matvec gathers columns of A: make them contiguous once per run
    for j in range(k):
        w = _mgs(Vt[: j + 1], _matvec(Af, Vt[j]), H[: j + 1, j])
        hnext = _norm2(w)
        H[j + 1, j] = hnext
        if hnext == 0:
            return ArnoldiResult(Vt[: j + 1].T.copy(), H[: j + 2, : j + 1].copy(), j + 1)
        Vt[j + 1] = w / hnext
    return ArnoldiResult(Vt.T.copy(), H, None)


@dataclass(frozen=True)
class NonsymLanczosResult:
    V: np.ndarray
    W: np.ndarray
    alpha: np.ndarray  # alpha_1..alpha_k
    beta: np.ndarray  # beta_2..beta_k (superdiagonal of T_k)
    gamma: np.ndarray  # gamma_2..gamma_k (subdiagonal of T_k)
    gamma1: object  # ||v||
    beta1: object  # w^T v_1
    breakdown: int | None  # step with gamma_{i+1} = 0 (lucky)

    @property
    def k(self) -> int:
        return len(self.alpha)


class SeriousBreakdownError(RuntimeError):
    """beta_{i+1} = 0 with a nonzero continuation vector: biorthogonalization failed."""


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def nonsym_lanczos(A: np.ndarray, v: np.ndarray, w: np.ndarray, k: int) -> NonsymLanczosResult:
    n = len(A)
    validate_operands(A, v, w, k=k, limit=n, square=True)
    At = A.T
    Vt = np.zeros((k + 1, n), dtype=A.dtype)  # rows are the basis vectors
    gamma1, Vt[0] = _start(v, "right starting vector")
    Wt = np.zeros((k + 1, n), dtype=A.dtype)
    beta1 = _dot(w, Vt[0])
    if beta1 == 0:
        raise ValueError("w^T v_1 = 0: the starting pair is biorthogonally degenerate")
    Wt[0] = w / beta1
    vprev = np.zeros(n, dtype=A.dtype)
    wprev = np.zeros(n, dtype=A.dtype)
    alphas, betas, gammas = [], [], []
    beta_i = beta1
    gamma_i = gamma1
    breakdown = None
    for i in range(k):
        vi = Vt[i]
        wi = Wt[i]
        Av = _matvec(A, vi)
        alpha_i = _dot(wi, Av)
        alphas.append(alpha_i)
        vnew = Av - alpha_i * vi
        vnew = vnew - beta_i * vprev
        gamma_next = _norm2(vnew)
        if gamma_next == 0:
            breakdown = i + 1
            break
        vnext = vnew / gamma_next
        wnew = _matvec(At, wi) - alpha_i * wi
        wnew = wnew - gamma_i * wprev
        beta_next = _dot(vnext, wnew)
        if beta_next == 0:
            raise SeriousBreakdownError(f"serious breakdown at step {i + 1}")
        Vt[i + 1] = vnext
        Wt[i + 1] = wnew / beta_next
        gammas.append(gamma_next)
        betas.append(beta_next)
        vprev, wprev = vi, wi
        beta_i, gamma_i = beta_next, gamma_next
    keff = len(alphas)
    cols = breakdown or k + 1
    return NonsymLanczosResult(
        V=Vt[:cols].T.copy(),
        W=Wt[:cols].T.copy(),
        alpha=np.array(alphas, dtype=A.dtype),
        beta=np.array(betas[: keff - 1], dtype=A.dtype),
        gamma=np.array(gammas[: keff - 1], dtype=A.dtype),
        gamma1=gamma1,
        beta1=beta1,
        breakdown=breakdown,
    )


@dataclass(frozen=True)
class GolubKahanResult:
    S: np.ndarray  # left vectors s_1..s_{k+1} (n x cols)
    W: np.ndarray  # right vectors w_1..w_k (m x cols)
    gamma: np.ndarray  # diagonal of L
    delta: np.ndarray  # delta_2.. (subdiagonal of L); delta_1 = ||v|| kept separately
    delta1: object
    breakdown: tuple | None  # ("gamma", i) or ("delta", i) naming the zero coefficient

    @property
    def k(self) -> int:
        return len(self.gamma)


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def golub_kahan(A: np.ndarray, v: np.ndarray, k: int) -> GolubKahanResult:
    """Alternating recurrence gamma_i w_i = A^T s_i - delta_i w_{i-1},
    delta_{i+1} s_{i+1} = A w_i - gamma_i s_i, coefficients by normalization."""
    validate_operands(A, v, k=k, limit=min(A.shape))
    n, m = A.shape
    At = A.T
    St = np.zeros((k + 1, n), dtype=A.dtype)  # rows are the basis vectors
    delta1, St[0] = _start(v, "starting vector")
    Wt = np.zeros((k, m), dtype=A.dtype)
    gammas, deltas = [], []
    delta_i = delta1
    breakdown = None
    for i in range(k):
        t = _matvec(At, St[i])
        if i > 0:  # at i = 0, t - delta_1 * 0 would be t bit for bit
            t = t - delta_i * Wt[i - 1]
        gamma_i = _norm2(t)
        if gamma_i == 0:
            breakdown = ("gamma", i + 1)
            break
        Wt[i] = t / gamma_i
        gammas.append(gamma_i)
        u = _matvec(A, Wt[i]) - gamma_i * St[i]
        delta_next = _norm2(u)
        if delta_next == 0:
            breakdown = ("delta", i + 2)
            break
        deltas.append(delta_next)
        St[i + 1] = u / delta_next
        delta_i = delta_next
    kg = len(gammas)
    return GolubKahanResult(
        S=St[: len(deltas) + 1].T.copy(),
        W=Wt[:kg].T.copy(),
        gamma=np.array(gammas, dtype=A.dtype),
        delta=np.array(deltas[: kg - 1] if kg else [], dtype=A.dtype),
        delta1=delta1,
        breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# block Lanczos


@np.errstate(over="ignore", invalid="ignore")  # once per call; non-finite results raise in the kernels
def gram_schmidt_qr(R: np.ndarray, variant: str = "mgs"):
    """QR of a tall matrix by classical or modified Gram-Schmidt.

    The diagonal of the triangular factor consists of the (nonnegative)
    normalization norms, so the positive-diagonal convention holds without
    sign flips.  A zero pivot signals rank deficiency; the caller treats it
    as breakdown.  Returns (Q, Rfac, zero_pivot_col or None).  variant is
    'cgs' or 'mgs' (lanczos.VARIANTS); block_lanczos checks it at its entry.
    """
    n, p = R.shape
    Qt = np.zeros((p, n), dtype=R.dtype)  # row j is q_{j+1}
    Rf = np.zeros((p, p), dtype=R.dtype)
    for j in range(p):
        w = R[:, j]
        if variant == "cgs":
            Rf[:j, j] = _gram(Qt[:j].T, R[:, j : j + 1])[:, 0]
            for i in range(j):
                w = w - Rf[i, j] * Qt[i]
        else:
            w = _mgs(Qt[:j], w, Rf[:j, j])
        Rf[j, j] = _norm2(w)
        if Rf[j, j] == 0:
            return Qt.T.copy(), Rf, j
        Qt[j] = w / Rf[j, j]
    return Qt.T.copy(), Rf, None


@dataclass(frozen=True)
class BlockLanczosResult:
    U: tuple  # orthonormal blocks U_1..U_k, each n x p
    M: tuple  # diagonal blocks M_1..M_k
    B: tuple  # subdiagonal blocks B_2..B_k
    breakdown: int | None  # block step whose QR hit a zero pivot

    @property
    def k(self) -> int:
        return len(self.M)


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def block_lanczos(A: np.ndarray, U1: np.ndarray, k: int, qr_variant: str = "mgs") -> BlockLanczosResult:
    """Block three-term recurrence R_{i+1} = A U_i - U_i M_i - U_{i-1} B_i^T with
    Gram-Schmidt QR of R_{i+1} and M_{i+1} = U_{i+1}^T A U_{i+1}."""
    n, p = len(A), U1.shape[-1] if U1.ndim else 0
    validate_operands(A, block=U1, k=k, limit=n // max(p, 1), square=True)
    if p == 0:
        raise ShapeError("starting block has no columns")
    if n % p:
        raise ValueError("n must be a multiple of the block size")
    if qr_variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    Us = [U1.copy()]
    AU = _matmat(A, U1)  # A U_i: M_i and then R_{i+1} use the one product
    Ms = [_gram(U1, AU)]
    Bs = []
    Uprev = U1.copy()
    Bprev = np.zeros((p, p), dtype=A.dtype)  # B_1 = 0, U_0 = U_1 per the recurrence
    breakdown = None
    for i in range(1, k + 1):
        Ui = Us[-1]
        R = AU - _matmat(Ui, Ms[-1])
        R = R - _matmat(Uprev, np.ascontiguousarray(Bprev.T))
        Q, Bi, zero_col = gram_schmidt_qr(R, qr_variant)
        if zero_col is not None:
            breakdown = i  # an invariant block subspace of dimension i*p
            break
        if i == k:
            break
        Us.append(Q)
        Bs.append(Bi)
        AU = _matmat(A, Q)
        Ms.append(_gram(Q, AU))
        Uprev = Ui
        Bprev = Bi
    return BlockLanczosResult(tuple(Us), tuple(Ms), tuple(Bs), breakdown)


# ---------------------------------------------------------------------------
# GMRES on structured inputs


@dataclass(frozen=True)
class GmresResult:
    x: np.ndarray  # computed approximation V_k ybar_k
    y: np.ndarray  # computed coordinates ybar_k
    x_error_norm: float  # ||x_k - xbar_k||, exact coordinates from the rational oracle
    y_error_norm: float  # ||y_k - ybar_k||
    breakdown: int | None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite y raises below
def hessenberg_lstsq(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least squares min ||H y - rhs|| for (m+1) x m Hessenberg H by Givens QR.
    Raises NonFiniteError on a non-finite y (a Givens norm of 0, a zero pivot)."""
    m = H.shape[1]
    R = H.copy()
    g = rhs.astype(H.dtype)
    for j in range(m):
        a, b = R[j, j], R[j + 1, j]
        if b == 0:
            continue
        t = _norm2(np.array([a, b], dtype=H.dtype))
        c = a / t
        s = b / t
        rj = R[j, :].copy()
        rj1 = R[j + 1, :].copy()
        R[j, :] = c * rj + s * rj1
        R[j + 1, :] = c * rj1 - s * rj
        gj = g[j]
        g[j] = c * gj + s * g[j + 1]
        g[j + 1] = c * g[j + 1] - s * gj
    y = np.zeros(m, dtype=H.dtype)
    for i in range(m - 1, -1, -1):
        acc = g[i]
        for j in range(m - 1, i, -1):
            acc = acc - R[i, j] * y[j]
        y[i] = acc / R[i, i]
    require_finite(y, "least-squares solution")
    return y


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def gmres_structured(A: np.ndarray, v: np.ndarray, k: int) -> GmresResult:
    """GMRES iterate x_k = V_k y_k for A x = v from x0 = 0, with
    y_k = argmin ||H_{k+1,k} y - ||v|| e1||.  Returns the witness pair
    (||x_k - xbar_k||, ||y_k - ybar_k||) with the exact coordinates computed by
    the exact least squares of rational.witness_norms.  A zero v raises
    ValueError.
    """
    res = arnoldi(A, v, k)
    keff = res.k
    H = res.H  # (keff+1) x keff
    rhs = np.zeros(keff + 1, dtype=A.dtype)
    rhs[0] = _norm2(v)
    ybar = hessenberg_lstsq(H, rhs)
    V = res.V[:, :keff]
    xbar = _matvec(V, ybar)
    return GmresResult(xbar, ybar, *witness_norms(V, H, rhs, xbar, ybar), res.breakdown)
