"""Krylov basis algorithms beyond symmetric Lanczos, with exactness counterparts.

Arnoldi (modified Gram-Schmidt), two-sided nonsymmetric Lanczos, Golub-Kahan
bidiagonalization, block Lanczos with Gram-Schmidt QR, and the GMRES
coordinate-error identity for structured Hessenberg inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import ShapeError, _coordinate, _dot, _gram, _matmat, _matvec, _mgs, _norm2, _start, _sub_scaled, _unit, require_finite, validate_operands
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


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def arnoldi(A: np.ndarray, v: np.ndarray, k: int) -> ArnoldiResult:
    """w = A v_j; for i = 1..j: h_{i,j} = v_i^T w, w = w - h_{i,j} v_i; h_{j+1,j} = ||w||;
    stop on exact zero, at the loop's one exit.  V and H are one slice each of Vt and H."""
    n = len(A)
    validate_operands(A, v, k=k, limit=n, square=True)
    Vt = np.zeros((k + 1, n), dtype=A.dtype)  # row j is v_{j+1}
    coord = np.full(k + 1, -1)  # coord[j] is v_{j+1}'s _coordinate
    _, Vt[0], coord[0] = _start(v, "starting vector")
    H = np.zeros((k + 1, k), dtype=A.dtype)
    Af = np.asfortranarray(A)  # _matvec gathers columns of A: make them contiguous once per run
    breakdown = None
    for j in range(k):
        w = _mgs(Vt[: j + 1], _matvec(Af, Vt[j], coord[j]), H[: j + 1, j], coord[: j + 1])
        H[j + 1, j], coord[j + 1] = _unit(w, Vt[j + 1])
        if H[j + 1, j] == 0:
            breakdown = j + 1
            break
    steps = breakdown or k
    return ArnoldiResult(Vt[: (breakdown or k + 1)].T.copy(), H[: steps + 1, : steps].copy(), breakdown)


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


class SeriousBreakdownError(RuntimeError):
    """beta_{i+1} = 0 with a nonzero continuation vector: biorthogonalization failed."""


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def nonsym_lanczos(A: np.ndarray, v: np.ndarray, w: np.ndarray, k: int) -> NonsymLanczosResult:
    """gamma_{i+1} v_{i+1} = A v_i - alpha_i v_i - beta_i v_{i-1} and its A^T twin for w, from v_0 = w_0 = +0 (fp's Row layout)."""
    n = len(A)
    validate_operands(A, v, w, k=k, limit=n, square=True)
    Vt = np.zeros((k + 2, n), dtype=A.dtype)  # row i is v_i; row 0 is v_0 = +0
    Wt = np.zeros((k + 2, n), dtype=A.dtype)  # row i is w_i; row 0 is w_0 = +0
    alpha = np.zeros(k + 1, dtype=A.dtype)  # alpha[i] is alpha_i
    beta = np.zeros(k + 2, dtype=A.dtype)  # beta[i] is beta_i
    gamma = np.zeros(k + 2, dtype=A.dtype)  # gamma[i] is gamma_i
    cv, cw = np.full(k + 2, -1), np.full(k + 2, -1)  # cv[i] and cw[i] are the _coordinates of v_i and w_i
    cv[0] = cw[0] = 0  # v_0 = w_0 = +0 take index 0
    gamma[1], Vt[1], cv[1] = _start(v, "right starting vector")
    beta[1] = _dot(w, Vt[1], cv[1])
    if beta[1] == 0:
        raise ValueError("w^T v_1 = 0: the starting pair is biorthogonally degenerate")
    Wt[1], cw[1] = w / beta[1], _coordinate(w)
    breakdown = None
    for i in range(1, k + 1):
        vnew = _matvec(A, Vt[i], cv[i])  # A v_i, and then in place the next v before its normalization
        alpha[i] = _dot(Wt[i], vnew, cw[i])
        _sub_scaled(vnew, alpha[i], Vt[i], cv[i])
        _sub_scaled(vnew, beta[i], Vt[i - 1], cv[i - 1])
        gamma[i + 1], cv[i + 1] = _unit(vnew, Vt[i + 1])
        if gamma[i + 1] == 0:
            breakdown = i
            break
        wnew = _matvec(A.T, Wt[i], cw[i])
        _sub_scaled(wnew, alpha[i], Wt[i], cw[i])
        _sub_scaled(wnew, gamma[i], Wt[i - 1], cw[i - 1])
        cw[i + 1] = _coordinate(wnew)
        beta[i + 1] = _dot(Vt[i + 1], wnew, cw[i + 1])
        if beta[i + 1] == 0:
            raise SeriousBreakdownError(f"serious breakdown at step {i}")
        Wt[i + 1] = wnew / beta[i + 1]  # a full divide: beta_{i+1} < 0 turns a +0 into -0
    steps = breakdown or k
    cols = breakdown or k + 1
    return NonsymLanczosResult(
        V=Vt[1 : cols + 1].T.copy(),
        W=Wt[1 : cols + 1].T.copy(),
        alpha=alpha[1 : steps + 1],
        beta=beta[2 : steps + 1],
        gamma=gamma[2 : steps + 1],
        gamma1=gamma[1],
        beta1=beta[1],
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


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def golub_kahan(A: np.ndarray, v: np.ndarray, k: int) -> GolubKahanResult:
    """Alternating recurrence gamma_i w_i = A^T s_i - delta_i w_{i-1} from w_0 = +0,
    delta_{i+1} s_{i+1} = A w_i - gamma_i s_i, coefficients by normalization (fp's Row layout)."""
    validate_operands(A, v, k=k, limit=min(np.shape(A)))
    n, m = A.shape
    St = np.zeros((k + 2, n), dtype=A.dtype)  # row i is s_i; row 0 is unused
    Wt = np.zeros((k + 1, m), dtype=A.dtype)  # row i is w_i; row 0 is w_0 = +0
    gamma = np.zeros(k + 1, dtype=A.dtype)  # gamma[i] is gamma_i
    delta = np.zeros(k + 2, dtype=A.dtype)  # delta[i] is delta_i
    cs, cw = np.full(k + 2, -1), np.full(k + 1, -1)  # cs[i] and cw[i] are the _coordinates of s_i and w_i
    cw[0] = 0  # w_0 = +0 takes index 0
    delta[1], St[1], cs[1] = _start(v, "starting vector")
    breakdown = None
    for i in range(1, k + 1):
        t = _matvec(A.T, St[i], cs[i])
        _sub_scaled(t, delta[i], Wt[i - 1], cw[i - 1])  # at i = 1, t - delta_1 * (+0) is t bit for bit
        gamma[i], cw[i] = _unit(t, Wt[i])
        if gamma[i] == 0:
            breakdown = ("gamma", i)
            break
        u = _matvec(A, Wt[i], cw[i])
        _sub_scaled(u, gamma[i], St[i], cs[i])
        delta[i + 1], cs[i + 1] = _unit(u, St[i + 1])
        if delta[i + 1] == 0:
            breakdown = ("delta", i + 1)
            break
    kind, j = breakdown or ("gamma", k + 1)  # a full run keeps what a zero gamma_{k+1} would
    return GolubKahanResult(
        S=St[1 : j + (kind == "gamma")].T.copy(),  # a zero delta_j leaves s_j unformed
        W=Wt[1:j].T.copy(),
        gamma=gamma[1:j],
        delta=delta[2:j],
        delta1=delta[1],
        breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# block Lanczos


@np.errstate(over="ignore", invalid="ignore")  # once per call; non-finite results raise in the kernels
def gram_schmidt_qr(R: np.ndarray, variant: str = "mgs"):
    """QR of a tall matrix by classical or modified Gram-Schmidt, in one per-row
    loop: Rfac[i, j] is the _dot of Q's column i with R's column j (CGS) or
    with the running w (MGS), and then w = w - Rfac[i, j] Q[:, i].

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
        for i in range(j):
            Rf[i, j] = _dot(Qt[i], R[:, j] if variant == "cgs" else w)
            w = w - Rf[i, j] * Qt[i]
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


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def block_lanczos(A: np.ndarray, U1: np.ndarray, k: int, qr_variant: str = "mgs") -> BlockLanczosResult:
    """Block three-term recurrence R_{i+1} = A U_i - U_i M_i - U_{i-1} B_i^T, M_i = U_i^T A U_i,
    with Gram-Schmidt QR R_{i+1} = U_{i+1} B_{i+1} from U_0 = B_1 = +0 (fp's Row layout).
    Returns U_1..U_s, M_1..M_s and B_2..B_s: s is k, the breakdown step, or 1 when k = 0."""
    n, p = len(A), np.shape(U1)[-1] if np.ndim(U1) else 0
    validate_operands(A, block=U1, k=k, limit=n // max(p, 1), square=True)
    if p == 0:
        raise ShapeError("starting block has no columns")
    if n % p:
        raise ValueError("n must be a multiple of the block size")
    if qr_variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    U = np.zeros((k + 2, n, p), dtype=A.dtype)  # U[i] is U_i; U[0] is U_0 = +0
    M = np.zeros((k + 2, p, p), dtype=A.dtype)  # M[i] is M_i
    B = np.zeros((k + 2, p, p), dtype=A.dtype)  # B[i] is B_i; B[1] is B_1 = +0
    U[1] = U1
    breakdown = None
    for i in range(1, max(k, 1) + 1):
        AU = _matmat(A, U[i])  # A U_i: M_i and then R_{i+1} use the one product
        M[i] = _gram(U[i], AU)
        if i > k:  # k = 0 forms M_1 and takes no step
            break
        R = AU - _matmat(U[i], M[i])
        R = R - _matmat(U[i - 1], B[i].T)  # evaluated, not skipped: at i = 1, R - U_0 B_1^T is R bit for bit
        U[i + 1], B[i + 1], zero_col = gram_schmidt_qr(R, qr_variant)
        if zero_col is not None:
            breakdown = i  # an invariant block subspace of dimension i*p
            break
    s = breakdown or max(k, 1)
    return BlockLanczosResult(tuple(U[1 : s + 1]), tuple(M[1 : s + 1]), tuple(B[2 : s + 1]), breakdown)


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
    """Least squares min ||H y - rhs|| for (m+1) x m Hessenberg H by Givens QR of [H | rhs].
    H and rhs are checked as validate_operands checks them; H not (m+1) x m raises
    ShapeError, a nonzero entry below its subdiagonal ValueError, and a non-finite y
    (a Givens norm of 0, a zero pivot) NonFiniteError."""
    validate_operands(H, rhs)
    m = H.shape[1]
    if H.shape[0] != m + 1:
        raise ShapeError(f"least squares needs an (m+1) x m matrix, got shape {H.shape}")
    if np.tril(H, -2).any():
        raise ValueError("H has a nonzero entry below the subdiagonal")
    R = np.column_stack([H, rhs])  # [H | rhs]: each rotation turns the rhs with the rows
    for j in range(m):
        a, b = R[j, j], R[j + 1, j]
        if b == 0:
            continue
        t = _norm2(np.array([a, b], dtype=H.dtype))
        c = a / t
        s = b / t
        rj = R[j].copy()
        R[j] = c * rj + s * R[j + 1]
        R[j + 1] = c * R[j + 1] - s * rj
    y = np.zeros(m, dtype=H.dtype)
    for i in range(m - 1, -1, -1):
        acc = R[i, m]
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
