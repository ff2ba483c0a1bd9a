"""Structured problem construction, recognition, and generation.

The central object is the pair (A, v) = (P T P^T, beta1 * P e1) where P is a
signed permutation and T is tridiagonal with positive off-diagonals.  The
assembly performs only sign flips and placement, never arithmetic, so the
materialized dense data is bit-identical to the generating data.

All generators are driven by a named counter-based RNG (numpy Philox keyed
by the seed) and are bitwise deterministic given (seed, size, precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fp import (
    BINARY64,
    Precision,
    RangeError,
    ShapeError,
    bitwise_symmetric,
    freeze,
    precision_of,
    require_finite,
    validate_operands,
)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox 4x64) keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def _fisher_yates(g: np.random.Generator, n: int) -> np.ndarray:
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(g.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


# ---------------------------------------------------------------------------
# structured matrix types


def _check_entries(finite, positive=(), positive_msg="", guarded=(), range_msg=""):
    """Entry checks shared by the structure types, after their shape checks:
    the (name, array) pairs of finite hold no NaN or infinity, the arrays of
    positive are > 0, and the entries of guarded (which get squared) lie in
    the exponent-range guard of the first array's precision.  Then every
    array of finite is frozen."""
    for name, a in finite:
        require_finite(a, name)
    if any(np.any(a <= 0) for a in positive):
        raise ValueError(positive_msg)
    if guarded:
        p = precision_of(finite[0][1])
        if not all(p.in_guard(x) for a in guarded for x in a.tolist()):
            raise RangeError(range_msg)
    for _, a in finite:
        freeze(a)


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal with strictly positive off-diagonals."""

    kind = "jacobi"
    alpha: np.ndarray  # diagonal, length n
    beta: np.ndarray  # off-diagonal, length n-1

    def __post_init__(self):
        if self.alpha.ndim != 1 or self.beta.ndim != 1 or len(self.beta) != len(self.alpha) - 1:
            raise ShapeError("Jacobi matrix needs n diagonal and n-1 off-diagonal entries")
        if self.alpha.dtype != self.beta.dtype:
            raise ShapeError("mixed dtypes in Jacobi matrix")
        _check_entries(
            (("diagonal", self.alpha), ("off-diagonal", self.beta)),
            (self.beta,), "Jacobi off-diagonals must be positive",
            (self.beta,), "off-diagonal outside the exponent-range guard",
        )

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def precision(self) -> Precision:
        return precision_of(self.alpha)

    def to_dense(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n), dtype=self.alpha.dtype)
        A[np.arange(n), np.arange(n)] = self.alpha
        i = np.arange(n - 1)
        A[i, i + 1] = self.beta
        A[i + 1, i] = self.beta
        return A


@dataclass(frozen=True)
class HessenbergMatrix:
    """Upper Hessenberg with positive subdiagonal, stored dense."""

    kind = "hessenberg"
    entries: np.ndarray

    def __post_init__(self):
        H = self.entries
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ShapeError("Hessenberg matrix must be square")
        below = np.flatnonzero(np.tril(H, -2))  # row-major; a NaN counts as nonzero
        if below.size:
            i, j = divmod(int(below[0]), H.shape[1])
            raise ValueError(f"nonzero below the subdiagonal at ({i},{j})")
        sub = np.diagonal(H, -1)
        _check_entries(
            (("Hessenberg entries", H),),
            (sub,), "subdiagonal entries must be positive",
            (sub,), "subdiagonal outside the exponent-range guard",
        )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.entries.copy()


@dataclass(frozen=True)
class NonsymTridiagonal:
    """Tridiagonal with nonzero superdiagonal and positive subdiagonal."""

    kind = "nonsymtridiag"
    alpha: np.ndarray  # diagonal
    beta: np.ndarray  # superdiagonal (row i, col i+1)
    gamma: np.ndarray  # subdiagonal (row i+1, col i)

    def __post_init__(self):
        n = len(self.alpha)
        if len(self.beta) != n - 1 or len(self.gamma) != n - 1:
            raise ShapeError("off-diagonal lengths must be n-1")
        if np.any(self.beta == 0):
            raise ValueError("superdiagonal entries must be nonzero")
        _check_entries(
            (("diagonal", self.alpha), ("superdiagonal", self.beta), ("subdiagonal", self.gamma)),
            (self.gamma,), "subdiagonal entries must be positive",
            (self.gamma,), "subdiagonal outside the exponent-range guard",
        )

    @property
    def n(self) -> int:
        return len(self.alpha)

    def to_dense(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n), dtype=self.alpha.dtype)
        A[np.arange(n), np.arange(n)] = self.alpha
        i = np.arange(n - 1)
        A[i, i + 1] = self.beta
        A[i + 1, i] = self.gamma
        return A


@dataclass(frozen=True)
class LowerBidiagonal:
    """Lower bidiagonal with positive diagonal and subdiagonal."""

    kind = "lowerbidiag"
    gamma: np.ndarray  # diagonal
    delta: np.ndarray  # subdiagonal

    def __post_init__(self):
        if len(self.delta) != len(self.gamma) - 1:
            raise ShapeError("subdiagonal length must be n-1")
        _check_entries(
            (("diagonal", self.gamma), ("subdiagonal", self.delta)),
            (self.gamma, self.delta), "bidiagonal entries must be positive",
            (self.gamma, self.delta), "bidiagonal entry outside the exponent-range guard",
        )

    @property
    def n(self) -> int:
        return len(self.gamma)

    def to_dense(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n), dtype=self.gamma.dtype)
        A[np.arange(n), np.arange(n)] = self.gamma
        i = np.arange(n - 1)
        A[i + 1, i] = self.delta
        return A


@dataclass(frozen=True)
class BlockTridiagonal:
    """Block tridiagonal with symmetric diagonal blocks M_i and upper
    triangular subdiagonal blocks B_{i+1} with positive diagonal."""

    kind = "blocktridiag"
    M: tuple  # m symmetric p x p blocks
    B: tuple  # m-1 upper triangular p x p blocks

    def __post_init__(self):
        if len(self.B) != len(self.M) - 1:
            raise ShapeError("need m diagonal blocks and m-1 subdiagonal blocks")
        p = self.M[0].shape[0]
        for Mi in self.M:
            if Mi.shape != (p, p) or not bitwise_symmetric(Mi):
                raise ValueError("diagonal blocks must be bitwise symmetric p x p")
        for Bi in self.B:
            if Bi.shape != (p, p):
                raise ShapeError("subdiagonal blocks must be p x p")
            if np.any(np.tril(Bi, -1) != 0):
                raise ValueError("subdiagonal blocks must be upper triangular")
        _check_entries(
            [("diagonal block", Mi) for Mi in self.M] + [("subdiagonal block", Bi) for Bi in self.B],
            [np.diagonal(Bi) for Bi in self.B], "subdiagonal block diagonals must be positive",
        )

    @property
    def p(self) -> int:
        return self.M[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.M)

    @property
    def n(self) -> int:
        return self.m * self.p

    def to_dense(self) -> np.ndarray:
        m, p = self.m, self.p
        A = np.zeros((m * p, m * p), dtype=self.M[0].dtype)
        for i, Mi in enumerate(self.M):
            A[i * p : (i + 1) * p, i * p : (i + 1) * p] = Mi
        for i, Bi in enumerate(self.B):
            A[(i + 1) * p : (i + 2) * p, i * p : (i + 1) * p] = Bi
            A[i * p : (i + 1) * p, (i + 1) * p : (i + 2) * p] = Bi.T
        return A


# kind -> structure type: the one list of the structured kinds, one per process.
# kind is a plain class attribute, so it is not a dataclass field.
STRUCTURES = {cls.kind: cls for cls in (JacobiMatrix, HessenbergMatrix, NonsymTridiagonal, LowerBidiagonal, BlockTridiagonal)}


@dataclass(frozen=True)
class SignedPermutation:
    """Signed permutation: column j has the single entry signs[j] at row perm[j]."""

    perm: np.ndarray  # column -> row, a bijection on 0..n-1
    signs: np.ndarray  # +-1 per column (integer array)

    def __post_init__(self):
        if sorted(self.perm.tolist()) != list(range(len(self.perm))):
            raise ValueError("perm is not a bijection")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be +-1")
        freeze(self.perm)
        freeze(self.signs)

    @property
    def n(self) -> int:
        return len(self.perm)

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        P = np.zeros((self.n, self.n), dtype=dtype)
        P[self.perm, np.arange(self.n)] = self.signs.astype(dtype)
        return P


@dataclass(frozen=True)
class SignedBlockPermutation:
    """Block matrix with one signed-permutation block per block row/column."""

    block_perm: np.ndarray  # block column -> block row
    blocks: tuple  # one SignedPermutation of size p per block column

    def __post_init__(self):
        if sorted(self.block_perm.tolist()) != list(range(len(self.block_perm))):
            raise ValueError("block_perm is not a bijection")
        p = self.blocks[0].n
        if any(b.n != p for b in self.blocks):
            raise ShapeError("all blocks must have equal size")
        freeze(self.block_perm)

    @property
    def m(self) -> int:
        return len(self.block_perm)

    @property
    def p(self) -> int:
        return self.blocks[0].n

    @property
    def n(self) -> int:
        return self.m * self.p

    def flatten(self) -> SignedPermutation:
        """Equivalent scalar signed permutation on n = m*p indices."""
        p = self.p
        perm = np.empty(self.n, dtype=int)
        signs = np.empty(self.n, dtype=int)
        for bj, blk in enumerate(self.blocks):
            br = self.block_perm[bj]
            for j in range(p):
                perm[bj * p + j] = br * p + blk.perm[j]
                signs[bj * p + j] = blk.signs[j]
        return SignedPermutation(perm, signs)

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        return self.flatten().to_dense(dtype)


# ---------------------------------------------------------------------------
# assembly and detection


@dataclass(frozen=True)
class StructuredProblem:
    """Materialized (A, v) together with its generating data.

    d is the grade (expected breakdown step), equal to n except for
    deficient extensions.  Nonsymmetric problems carry the left starting
    vector w; block problems carry the starting block U1.
    """

    P: object
    T: object
    beta1: object
    A: np.ndarray
    v: np.ndarray
    d: int
    w: np.ndarray | None = None
    gamma1: object | None = None
    U1: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.A, self.v, self.w, self.U1):
            if a is not None:
                freeze(a)

    @property
    def kind(self) -> str:
        return self.T.kind


def _signed_conjugate(P: SignedPermutation, T: np.ndarray) -> np.ndarray:
    """A = P T P^T by placement and sign flips only (no rounding)."""
    signs = P.signs
    flip = np.not_equal.outer(signs < 0, signs < 0)
    Ts = np.where(flip, -T, T)
    A = np.zeros_like(T)
    A[np.ix_(P.perm, P.perm)] = Ts
    return A


def _scaled_column(P: SignedPermutation, j: int, scale, dtype) -> np.ndarray:
    v = np.zeros(P.n, dtype=dtype)
    s = dtype(scale)
    v[P.perm[j]] = s if P.signs[j] > 0 else -s
    return v


def assemble(T, P, beta1, gamma1=None) -> StructuredProblem:
    """Materialize (A, v) = (P T P^T, beta1 * P e1) without arithmetic rounding.

    For NonsymTridiagonal T, gamma1 scales the right starting vector v and
    beta1 scales the left starting vector w.  For BlockTridiagonal T, P must
    be a SignedBlockPermutation and U1 = P [I, 0, ..., 0]^T is produced.
    """
    Td = T.to_dense()
    dtype = Td.dtype.type
    if float(beta1) <= 0:
        raise ValueError("beta1 must be positive")

    if isinstance(T, BlockTridiagonal):
        if not isinstance(P, SignedBlockPermutation) or P.n != T.n or P.p != T.p:
            raise ShapeError("block dimensions of P and T do not agree")
        flat = P.flatten()
        A = _signed_conjugate(flat, Td)
        p = T.p
        U1 = np.zeros((T.n, p), dtype=dtype)
        for j in range(p):
            U1[:, j] = _scaled_column(flat, j, 1.0, dtype)
        v = U1[:, 0].copy()
        return StructuredProblem(P, T, dtype(beta1), A, v, T.m, U1=U1)

    if not isinstance(P, SignedPermutation) or P.n != T.n:
        raise ShapeError("dimensions of P and T do not agree")
    A = _signed_conjugate(P, Td)
    if isinstance(T, NonsymTridiagonal):
        if gamma1 is None or float(gamma1) <= 0:
            raise ValueError("nonsymmetric problems need gamma1 > 0")
        v = _scaled_column(P, 0, gamma1, dtype)
        w = _scaled_column(P, 0, beta1, dtype)
        return StructuredProblem(P, T, dtype(beta1), A, v, T.n, w=w, gamma1=dtype(gamma1))
    v = _scaled_column(P, 0, beta1, dtype)
    return StructuredProblem(P, T, dtype(beta1), A, v, T.n)


def detect_structure(A: np.ndarray, v: np.ndarray):
    """Recover (P, T, beta1) with T Jacobi from (A, v), or None.

    Succeeds iff v has a single nonzero entry and the off-diagonal adjacency
    graph of the (bitwise symmetric) matrix A is a simple path starting at
    that entry's index.  Signs are canonicalized into P so that T has
    positive off-diagonals; the factorization is then unique.
    """
    validate_operands(A, v)
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")
    n = A.shape[0]
    nz = np.nonzero(v)[0]
    if nz.size != 1:
        return None
    start = int(nz[0])
    neighbors = [set(np.nonzero(A[r])[0].tolist()) - {r} for r in range(n)]
    if any(len(s) > 2 for s in neighbors):
        return None
    if n > 1 and len(neighbors[start]) != 1:
        return None
    order = [start]
    seen = {start}
    while len(order) < n:
        cur = order[-1]
        nxt = [c for c in neighbors[cur] if c not in seen]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    if n > 1 and len(neighbors[order[-1]]) != 1:
        return None

    dtype = A.dtype.type
    signs = np.empty(n, dtype=int)
    signs[0] = 1 if float(v[start]) > 0 else -1
    for k in range(n - 1):
        off = float(A[order[k], order[k + 1]])
        signs[k + 1] = signs[k] if off > 0 else -signs[k]
    alpha = np.array([A[r, r] for r in order], dtype=A.dtype)
    beta = np.array([abs(A[order[k], order[k + 1]]) for k in range(n - 1)], dtype=A.dtype)
    P = SignedPermutation(np.array(order), signs)
    T = JacobiMatrix(alpha, beta)
    beta1 = abs(v[start])
    return P, T, dtype(beta1)


def extend_deficient(T: JacobiMatrix, P: SignedPermutation, R1: np.ndarray, R2: np.ndarray, beta1) -> StructuredProblem:
    """Block-diagonal extension diag(P, R1), diag(T, R2) with grade d = T.n.

    The leading d x d block of A and the vector v are still assembled
    exactly; the trailing block A22 = R1 R2 R1^T is ordinary floating-point
    arithmetic, which is irrelevant to the exactness claims (the Lanczos run
    stops at step d before touching it).
    """
    if R1.shape != R2.shape or R1.ndim != 2 or R1.shape[0] != R1.shape[1]:
        raise ShapeError("R1 and R2 must be square of equal size")
    from .fp import matmat

    d = T.n
    n = d + R1.shape[0]
    lead = assemble(T, P, beta1)
    A = np.zeros((n, n), dtype=lead.A.dtype)
    A[:d, :d] = lead.A
    if R1.shape[0]:
        C = matmat(matmat(R1, R2), np.ascontiguousarray(R1.T))
        # mirror the upper triangle so the matrix is bitwise symmetric, which
        # the Lanczos precondition demands; with symmetric R2 this only papers
        # over the last rounding of the triple product
        A[d:, d:] = np.triu(C) + np.ascontiguousarray(np.triu(C, 1).T)
    v = np.zeros(n, dtype=lead.v.dtype)
    v[:d] = lead.v
    return StructuredProblem(P, T, lead.beta1, A, v, d)


# ---------------------------------------------------------------------------
# generators


def _uniform(g, lo, hi, size, dtype):
    return g.uniform(lo, hi, size).astype(dtype)


def random_signed_permutation(n: int, seed: int) -> SignedPermutation:
    if n < 1:
        raise ValueError("n must be positive")
    g = make_rng(seed)
    perm = _fisher_yates(g, n)
    signs = 2 * g.integers(0, 2, n) - 1
    return SignedPermutation(perm, signs)


def random_jacobi(n: int, seed: int, spd: bool = False, precision: Precision = BINARY64) -> JacobiMatrix:
    """alpha uniform on [-4, 4), beta uniform on [1/8, 8): inside both precisions' exponent-range guards."""
    if n < 1:
        raise ValueError("n must be positive")
    g = make_rng(seed)
    dt = precision.dtype
    alpha = _uniform(g, -4.0, 4.0, n, dt)
    beta = _uniform(g, 0.125, 8.0, n - 1, dt)
    if spd:
        # Gershgorin shift: make every row strictly diagonally dominant with
        # a positive diagonal, which forces positive definiteness.
        pad = np.zeros(n, dtype=dt)
        pad[:-1] += beta
        pad[1:] += beta
        alpha = np.abs(alpha) + pad + dt(1.0)
    return JacobiMatrix(alpha, beta)


def random_structure(kind: str, n: int, seed: int, precision: Precision = BINARY64, p: int = 1, spd: bool = False, positive_beta: bool = False):
    """Seeded n x n structure of the given kind, drawn from make_rng(seed).

    spd applies to jacobi (random_jacobi), positive_beta to the superdiagonal
    of nonsymtridiag (else its signs are drawn), and the block size p to
    blocktridiag, which needs n = m p; the other kinds ignore them.
    """
    if kind not in STRUCTURES:
        raise ValueError(f"unknown structured kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "jacobi":
        return random_jacobi(n, seed, spd=spd, precision=precision)
    g = make_rng(seed)
    dt = precision.dtype
    if kind == "hessenberg":
        H = np.zeros((n, n), dtype=dt)
        for j in range(n):
            H[: j + 2, j] = _uniform(g, -2.0, 2.0, min(j + 2, n), dt)
            if j + 1 < n:
                H[j + 1, j] = dt(float(g.uniform(0.125, 2.0)))
        return HessenbergMatrix(H)
    if kind == "nonsymtridiag":
        alpha = _uniform(g, -2.0, 2.0, n, dt)
        beta = _uniform(g, 0.125, 2.0, n - 1, dt)
        if not positive_beta:
            beta = (beta * (2 * g.integers(0, 2, n - 1) - 1).astype(dt)).astype(dt)
        return NonsymTridiagonal(alpha, beta, _uniform(g, 0.125, 2.0, n - 1, dt))
    if kind == "lowerbidiag":
        return LowerBidiagonal(_uniform(g, 0.125, 2.0, n, dt), _uniform(g, 0.125, 2.0, n - 1, dt))
    if p < 1:
        raise ValueError("the block size must be positive")
    if n % p:
        raise ValueError("n must be a multiple of the block size")
    M = []
    for _ in range(n // p):
        W = _uniform(g, -2.0, 2.0, (p, p), dt)
        M.append(np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T))
    B = []
    for _ in range(n // p - 1):
        Bi = np.triu(_uniform(g, -2.0, 2.0, (p, p), dt))
        Bi[np.diag_indices(p)] = _uniform(g, 0.125, 2.0, p, dt)
        B.append(Bi)
    return BlockTridiagonal(tuple(M), tuple(B))


def random_signed_block_permutation(m: int, p: int, seed: int) -> SignedBlockPermutation:
    g = make_rng(seed)
    block_perm = _fisher_yates(g, m)
    blocks = []
    for _ in range(m):
        perm = _fisher_yates(g, p)
        signs = 2 * g.integers(0, 2, p) - 1
        blocks.append(SignedPermutation(perm, signs))
    return SignedBlockPermutation(block_perm, tuple(blocks))


def random_structured_problem(kind: str, n: int, seed: int, precision: Precision = BINARY64, p: int = 1, spd: bool = False) -> StructuredProblem:
    """Seeded structured instance for a given algorithm family."""
    scale_seed = seed ^ 0x5EED
    g = make_rng(scale_seed)
    beta1 = precision.dtype(float(g.uniform(0.25, 4.0)))
    T = random_structure(kind, n, seed, precision, p=p, spd=spd, positive_beta=True)
    if kind == "blocktridiag":
        P = random_signed_block_permutation(T.m, p, scale_seed + 1)
    else:
        P = random_signed_permutation(n, scale_seed + 1)
    gamma1 = precision.dtype(float(g.uniform(0.25, 4.0))) if kind == "nonsymtridiag" else None
    return assemble(T, P, beta1, gamma1=gamma1)


# ---------------------------------------------------------------------------
# spectra


def strakos_spectrum(n: int, lam1, lamn, rho, precision: Precision = BINARY64) -> np.ndarray:
    """lambda_i = lam1 + ((i-1)/(n-1)) (lamn-lam1) rho^(n-i), increasing."""
    if n < 2 or not (0 < float(lam1) < float(lamn)) or not (0 < float(rho) <= 1):
        raise ValueError("need n >= 2, 0 < lam1 < lamn, 0 < rho <= 1")
    dt = precision.dtype
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite parameter or entry raises below
        lam1, lamn, rho = dt(lam1), dt(lamn), dt(rho)
        if not (np.isfinite(lamn) and 0 < lam1 < lamn):
            raise RangeError(f"need finite 0 < lam1 < lamn in {precision.name}, got {float(lam1)!r} and {float(lamn)!r}")
        diff = lamn - lam1
        out = np.empty(n, dtype=dt)
        out[0] = lam1
        for i in range(2, n + 1):
            frac = dt(i - 1) / dt(n - 1)
            rp = dt(1.0)
            for _ in range(n - i):
                rp = rp * rho
            out[i - 1] = lam1 + frac * diff * rp
    if not np.all(np.isfinite(out)):
        raise RangeError(f"the spectrum overflows {precision.name}")
    if np.any(np.diff(out) <= 0):
        raise ValueError("spectrum is not strictly increasing for these parameters")
    return out


# ---------------------------------------------------------------------------
# prescribed CG convergence curves


@dataclass(frozen=True)
class ConvergenceCurves:
    """Prescribed ||r_k|| and ||x - x_k||_A for k = 0..n-1 (terminal error 0 implicit)."""

    residual_norms: np.ndarray
    energy_errors: np.ndarray

    def __post_init__(self):
        r = self.residual_norms
        e = self.energy_errors
        if len(r) != len(e) or len(r) == 0:
            raise ShapeError("curves must have equal positive length")
        if np.any(np.diff(e) >= 0):
            raise ValueError("energy errors must be strictly decreasing")
        _check_entries((("residual norms", r), ("energy errors", e)), (r, e), "curve entries must be positive")

    @property
    def n(self) -> int:
        return len(self.residual_norms)


@dataclass(frozen=True)
class PrescribedSystem:
    """Jacobi system realizing prescribed CG curves, with its exact rational data.

    T and b are the rounded floating-point system; exact_alpha/exact_beta are
    the unrounded rational entries of T_n for use with the rational oracle.
    """

    T: JacobiMatrix
    b: np.ndarray
    exact_alpha: list
    exact_beta: list

    def exact_matrix(self) -> list:
        n = len(self.exact_alpha)
        M = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = self.exact_alpha[i]
            if i + 1 < n:
                M[i][i + 1] = M[i + 1][i] = self.exact_beta[i]
        return M

    def exact_rhs(self) -> list:
        n = len(self.exact_alpha)
        return [Fraction(float(self.b[0])) if i == 0 else Fraction(0) for i in range(n)]


def prescribe_cg_curves(curves: ConvergenceCurves, precision: Precision = BINARY64) -> PrescribedSystem:
    """Build (T_n, b = ||r_0|| e1) whose exact CG reproduces the curves.

    delta_k = ||r_k||^2/||r_{k-1}||^2 and gamma_k follows from the telescoping
    identity ||x-x_k||_A^2 = gamma_k ||r_k||^2 + ||x-x_{k+1}||_A^2; the
    tridiagonal entries are alpha_k = 1/gamma_{k-1} + delta_{k-1}/gamma_{k-2}
    and beta_{k+1} = sqrt(delta_k)/gamma_{k-1}.  The construction is carried
    out in exact rational arithmetic (sqrt(delta_k) = ||r_k||/||r_{k-1}|| is
    rational) and rounded once at the end.
    """
    n = curves.n
    r = [Fraction(float(x)) for x in curves.residual_norms]
    e2 = [Fraction(float(x)) ** 2 for x in curves.energy_errors] + [Fraction(0)]
    r2 = [x * x for x in r]
    gammas = []
    for k in range(n):
        g = (e2[k] - e2[k + 1]) / r2[k]
        if g <= 0:
            raise ValueError(f"gamma_{k} <= 0: curves inconsistent with an SPD system")
        gammas.append(g)
    deltas = [Fraction(0)] + [r2[k] / r2[k - 1] for k in range(1, n)]
    ell = [r[k] / r[k - 1] for k in range(1, n)]  # sqrt(delta_k), exact
    d = [1 / gammas[k] for k in range(n)]
    alpha = [d[0]]
    for k in range(2, n + 1):
        alpha.append(d[k - 1] + deltas[k - 1] * d[k - 2])
    beta = [ell[k - 1] * d[k - 1] for k in range(1, n)]
    dt = precision.dtype
    T = JacobiMatrix(np.array([dt(float(a)) for a in alpha], dtype=dt), np.array([dt(float(b)) for b in beta], dtype=dt))
    b = np.zeros(n, dtype=dt)
    b[0] = dt(float(curves.residual_norms[0]))
    return PrescribedSystem(T, freeze(b), alpha, beta)


def random_convergence_curves(n: int, seed: int) -> ConvergenceCurves:
    """Admissible random curves: any positive residuals, decreasing energy errors."""
    g = make_rng(seed)
    res = np.exp(g.uniform(np.log(1e-3), np.log(1e3), n))
    ratios = g.uniform(0.2, 0.9, n)
    energy = np.cumprod(ratios) * float(g.uniform(0.5, 2.0))
    return ConvergenceCurves(res.astype(np.float64), energy.astype(np.float64))

