"""Structured problem construction, recognition, and generation.

The central object is the pair (A, v) = (P T P^T, beta1 * P e1) where P is a
signed permutation and T is tridiagonal with positive off-diagonals.  The
assembly performs only sign flips and placement, never arithmetic, so the
materialized dense data is bit-identical to the generating data.

All generators are driven by a named counter-based RNG (numpy Philox keyed
by the seed) and are bitwise deterministic given (seed, size, precision).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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
    """Swap i with j_i for i = n-1, ..., 1, j_i drawn from [0, i]: the n - 1
    draws come from one call, which leaves the permutation and g's state those
    of one g.integers(0, i + 1) call per swap."""
    idx = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), g.integers(0, np.arange(n, 1, -1)).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=int)


# ---------------------------------------------------------------------------
# structured matrix types


class _Structure:
    """Base of the structure types.  _stored() lists the entries a type stores as
    (rows, columns, values) triples that name no position twice; the rest are +0.
    n is the length of the first field (BlockTridiagonal states its own); the
    banded rule, by which fileio reads and writes those fields, is _Banded's."""

    @property
    def n(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def to_dense(self) -> np.ndarray:
        """The dense matrix, by placement only: P T P^T with P = I."""
        return _signed_conjugate(self._stored(), np.arange(self.n), np.ones(self.n, dtype=int))


class _Banded(_Structure):
    """Base of the types stored as their 1-D fields, the first n long, each later one n - 1."""

    def __post_init__(self):
        first, *later = (getattr(self, f.name) for f in fields(self))
        if first.ndim != 1 or any(b.ndim != 1 or len(b) != len(first) - 1 for b in later):
            raise ShapeError(f"{self.kind} bands must be 1-D, the first n long and each later one n-1")


def _bands(diag, sup, sub) -> list:
    """_stored() of the tridiagonal matrix with these three bands."""
    i = np.arange(len(diag))
    return [(i, i, diag), (i[:-1], i[1:], sup), (i[1:], i[:-1], sub)]


def _check_entries(finite, positive, positive_msg, range_msg=""):
    """Entry checks shared by the structure types and the convergence curves,
    after their shape checks: the (name, array) pairs of finite hold no NaN
    or infinity, the arrays of positive are > 0, their one dtype is binary32
    or binary64 (TypeError, whether a range_msg is given or not), and, given
    a range_msg, the entries of positive (which get squared) lie in the
    exponent-range guard of that precision.  Then every array of finite is
    frozen.  All arrays share one dtype (ShapeError)."""
    for name, a in finite:
        if a.dtype != finite[0][1].dtype:
            raise ShapeError(f"mixed dtypes: {finite[0][0]} is {finite[0][1].dtype}, {name} is {a.dtype}")
        require_finite(a, name)
    if any(np.any(a <= 0) for a in positive):
        raise ValueError(positive_msg)
    p = precision_of(finite[0][1])
    if range_msg and not all(p.in_guard(a) for a in positive):
        raise RangeError(range_msg)
    for _, a in finite:
        freeze(a)


@dataclass(frozen=True)
class JacobiMatrix(_Banded):
    """Symmetric tridiagonal with strictly positive off-diagonals."""

    kind = "jacobi"
    alpha: np.ndarray  # diagonal, length n
    beta: np.ndarray  # off-diagonal, length n-1

    def __post_init__(self):
        super().__post_init__()
        _check_entries(
            (("diagonal", self.alpha), ("off-diagonal", self.beta)),
            (self.beta,), "Jacobi off-diagonals must be positive",
            "off-diagonal outside the exponent-range guard",
        )

    def _stored(self) -> list:
        return _bands(self.alpha, self.beta, self.beta)


@dataclass(frozen=True)
class HessenbergMatrix(_Structure):
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
            "subdiagonal outside the exponent-range guard",
        )

    def _stored(self) -> list:
        i = np.arange(self.n)
        return [(i[:, None], i, self.entries)]  # every entry: -0 may sit below the subdiagonal


@dataclass(frozen=True)
class NonsymTridiagonal(_Banded):
    """Tridiagonal with nonzero superdiagonal and positive subdiagonal."""

    kind = "nonsymtridiag"
    alpha: np.ndarray  # diagonal
    beta: np.ndarray  # superdiagonal (row i, col i+1)
    gamma: np.ndarray  # subdiagonal (row i+1, col i)

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.beta == 0):
            raise ValueError("superdiagonal entries must be nonzero")
        _check_entries(
            (("diagonal", self.alpha), ("superdiagonal", self.beta), ("subdiagonal", self.gamma)),
            (self.gamma,), "subdiagonal entries must be positive",
            "subdiagonal outside the exponent-range guard",
        )

    def _stored(self) -> list:
        return _bands(self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class LowerBidiagonal(_Banded):
    """Lower bidiagonal with positive diagonal and subdiagonal."""

    kind = "lowerbidiag"
    gamma: np.ndarray  # diagonal
    delta: np.ndarray  # subdiagonal

    def __post_init__(self):
        super().__post_init__()
        _check_entries(
            (("diagonal", self.gamma), ("subdiagonal", self.delta)),
            (self.gamma, self.delta), "bidiagonal entries must be positive",
            "bidiagonal entry outside the exponent-range guard",
        )

    def _stored(self) -> list:
        i = np.arange(self.n)
        return [(i, i, self.gamma), (i[1:], i[:-1], self.delta)]


@dataclass(frozen=True)
class BlockTridiagonal(_Structure):
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
        diagonals = [np.diagonal(Bi) for Bi in self.B]
        _check_entries(
            [("diagonal block", Mi) for Mi in self.M] + [("subdiagonal block", Bi) for Bi in self.B],
            diagonals, "subdiagonal block diagonals must be positive",
            "subdiagonal block diagonal outside the exponent-range guard",
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

    def _stored(self) -> list:  # every entry of the 3m - 2 blocks: -0 may sit in a B's strict lower triangle
        a, r = np.arange(self.m) * self.p, np.arange(self.p)  # the first row of each block row, and the rows of a block
        rows, cols = np.concatenate([a, a[1:], a[:-1]]), np.concatenate([a, a[:-1], a[1:]])
        blocks = np.array(self.M + self.B + tuple(Bi.T for Bi in self.B))
        return [(rows[:, None, None] + r[:, None], cols[:, None, None] + r, blocks)]


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
        """Equivalent scalar signed permutation on n = m*p indices: perm[bj*p + j]
        = block_perm[bj]*p + blocks[bj].perm[j] and signs[bj*p + j] = blocks[bj].signs[j]."""
        perm, signs = np.empty(self.n, dtype=int), np.empty(self.n, dtype=int)  # the outputs first: allocated after the temporaries, they left exact-large's peak RSS at 77.6 MiB, not 71.1
        np.add(self.block_perm[:, None] * self.p, [blk.perm for blk in self.blocks], out=perm.reshape(self.m, self.p))
        np.concatenate([blk.signs for blk in self.blocks], out=signs)
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


def _signed_conjugate(stored: list, perm: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """A = P T P^T for the signed permutation (perm, signs) and T's _stored()
    entries, in C order and without a gather.  With s = signs as +-1.0, A
    starts as the sign pattern of T's +0s, A[perm[i], perm[j]] = fl(fl(+0
    s_i) s_j), one outer product of the rows' signs; each stored T[i, j] is
    then placed there as fl(fl(T[i, j] s_i) s_j).  Multiplying by +-1 rounds
    nothing, and (-1) * (+-0) = -+0, so a +0 of T flipped off the band
    becomes -0 and a stored -0 keeps its own sign flip."""
    dt = stored[0][2].dtype
    s = signs.astype(dt)
    sr = np.empty_like(s)
    sr[perm] = s  # the sign of each row of A
    A = np.multiply.outer(sr * dt.type(0.0), sr)
    for i, j, t in stored:
        x = t * s[i]
        x *= s[j]
        A[perm[i], perm[j]] = x
    return A


def _scaled_column(P: SignedPermutation, scale, dtype) -> np.ndarray:
    """scale * P e_1 in dtype: P's first column, scaled without rounding."""
    v = np.zeros(P.n, dtype=dtype)
    s = dtype(scale)
    v[P.perm[0]] = s if P.signs[0] > 0 else -s
    return v


def assemble(T, P, beta1, gamma1=None) -> StructuredProblem:
    """Materialize (A, v) = (P T P^T, beta1 * P e1) without arithmetic rounding.

    A is placed into the sign pattern of T's +0s from the entries that T
    stores (_signed_conjugate); a dense T is never formed.
    For NonsymTridiagonal T, gamma1 scales the right starting vector v and
    beta1 scales the left starting vector w; with any other T, a gamma1 is a
    ValueError.  For BlockTridiagonal T, P must be a SignedBlockPermutation
    and U1 = P [I, 0, ..., 0]^T is produced.
    The scale of v, whose norm a run takes (beta1, or gamma1 for
    NonsymTridiagonal), must lie in the exponent-range guard, Lemma 3.1's
    domain [guard_lo, guard_hi] (Precision): past either end, RangeError.
    A NonsymTridiagonal's beta1 enters only through w^T v_1, a dot with no
    square, and a block problem's v is a column of P: neither is guarded.
    """
    stored = T._stored()
    precision = precision_of(stored[0][2])
    dtype = precision.dtype
    if float(beta1) <= 0:
        raise ValueError("beta1 must be positive")
    if gamma1 is not None and not isinstance(T, NonsymTridiagonal):
        raise ValueError(f"gamma1 applies to nonsymtridiag problems only, not {T.kind}")

    if isinstance(T, BlockTridiagonal):
        if not isinstance(P, SignedBlockPermutation) or P.n != T.n or P.p != T.p:
            raise ShapeError("block dimensions of P and T do not agree")
        flat = P.flatten()
        U1 = np.ascontiguousarray(flat.to_dense(dtype)[:, : T.p])  # P [I, 0, ..., 0]^T
        return StructuredProblem(P, T, dtype(beta1), _signed_conjugate(stored, flat.perm, flat.signs), U1[:, 0].copy(), T.m, U1=U1)

    if not isinstance(P, SignedPermutation) or P.n != T.n:
        raise ShapeError("dimensions of P and T do not agree")
    A = _signed_conjugate(stored, P.perm, P.signs)
    nonsym = isinstance(T, NonsymTridiagonal)
    if nonsym and (gamma1 is None or float(gamma1) <= 0):
        raise ValueError("nonsymmetric problems need gamma1 > 0")
    name, scale = ("gamma1", gamma1) if nonsym else ("beta1", beta1)
    if not precision.in_guard(scale):
        raise RangeError(f"{name} outside the exponent-range guard")
    v = _scaled_column(P, scale, dtype)
    w = _scaled_column(P, beta1, dtype) if nonsym else None
    return StructuredProblem(P, T, dtype(beta1), A, v, T.n, w=w, gamma1=dtype(gamma1) if nonsym else None)


def detect_structure(A: np.ndarray, v: np.ndarray):
    """Recover (P, T, beta1) with T Jacobi from (A, v), or None.

    Succeeds iff A is bitwise symmetric, v has a single nonzero entry and no
    -0 (beta1 P e1 has only +0 zeros), and the off-diagonal adjacency graph of
    A is a simple path starting at that entry's index.  A may hold -0s: the
    sign flips of assembly leave them off the band.  The walk starts at v's
    nonzero and steps to the one unvisited row that the current column
    reaches; T is then read along the walk order, and P's signs are the
    running product of the off-diagonals' signs from v's, so T has positive
    off-diagonals and the factorization is unique.  An off-diagonal or a
    beta1 outside the exponent-range guard raises RangeError.
    """
    validate_operands(A, v)
    nz = np.nonzero(v)[0]
    if nz.size != 1 or np.signbit(v[v == 0]).any() or A.shape[0] != A.shape[1] or not bitwise_symmetric(A):
        return None
    n = A.shape[0]
    idx, seen = np.empty(n, dtype=int), np.zeros(n, dtype=bool)
    idx[0] = nz[0]
    for k in range(1, n):  # one unvisited row each: no branch, chord or inner start
        seen[idx[k - 1]] = True
        rows = np.flatnonzero((A[:, idx[k - 1]] != 0) & ~seen)
        if rows.size != 1:
            return None
        idx[k] = rows[0]
    off = A[idx[:-1], idx[1:]]
    P = SignedPermutation(idx, np.cumprod(np.sign(np.concatenate([v[idx[:1]], off])).astype(int)))
    T = JacobiMatrix(A[idx, idx], np.abs(off))
    beta1 = abs(v[idx[0]])
    if not precision_of(A).in_guard(beta1):
        raise RangeError("beta1 outside the exponent-range guard")
    return P, T, beta1


def extend_deficient(prob: StructuredProblem, R: np.ndarray) -> StructuredProblem:
    """The grade-deficient extension (diag(A, R), [v; 0], [w; 0]) of a
    single-vector problem, by placement only; P, T, beta1, gamma1 and the grade
    d carry over, and a run breaks down at step d before R enters a result.
    A block problem raises ValueError, an R not square in A's dtype ShapeError."""
    if prob.U1 is not None:
        raise ValueError("a block problem has no grade-deficient extension")
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.dtype != prob.A.dtype:
        raise ShapeError(f"R must be square of the problem's dtype {prob.A.dtype}, got {R.dtype} {R.shape}")
    lead, zeros = len(prob.v), np.zeros(len(R), dtype=R.dtype)
    A = np.zeros((lead + len(R),) * 2, dtype=R.dtype)
    A[:lead, :lead] = prob.A
    A[lead:, lead:] = R
    return replace(prob, A=A, v=np.concatenate([prob.v, zeros]), w=None if prob.w is None else np.concatenate([prob.w, zeros]))


# ---------------------------------------------------------------------------
# generators


def _uniform(g, lo, hi, size, dtype):
    return g.uniform(lo, hi, size).astype(dtype)


def _signed_permutation(g: np.random.Generator, n: int) -> SignedPermutation:
    """Fisher-Yates on g, then the n signs from the same g."""
    return SignedPermutation(_fisher_yates(g, n), 2 * g.integers(0, 2, n) - 1)


def random_signed_permutation(n: int, seed: int) -> SignedPermutation:
    if n < 1:
        raise ValueError("n must be positive")
    return _signed_permutation(make_rng(seed), n)


def random_structure(kind: str, n: int, seed: int, precision: Precision = BINARY64, p: int = 1, spd: bool = False, positive_beta: bool = False):
    """Seeded n x n structure of the given kind, drawn from make_rng(seed).

    A jacobi T has alpha uniform on [-4, 4) and beta uniform on [1/8, 8), inside
    every format's domain [guard_lo, guard_hi] (past it, RangeError); spd shifts its diagonal
    (Gershgorin) so that every row is strictly diagonally dominant with a
    positive diagonal.  positive_beta applies to the superdiagonal of
    nonsymtridiag (else its signs are drawn), and the block size p to
    blocktridiag, which needs n = m p; the other kinds ignore them.
    """
    if kind not in STRUCTURES:
        raise ValueError(f"unknown structured kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    g = make_rng(seed)
    dt = precision.dtype
    if kind == "jacobi":
        alpha = _uniform(g, -4.0, 4.0, n, dt)
        beta = _uniform(g, 0.125, 8.0, n - 1, dt)
        if spd:
            pad = np.zeros(n, dtype=dt)
            pad[:-1] += beta
            pad[1:] += beta
            alpha = np.abs(alpha) + pad + dt(1.0)
        return JacobiMatrix(alpha, beta)
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
    return SignedBlockPermutation(block_perm, tuple(_signed_permutation(g, p) for _ in range(m)))


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
        powers = np.full(n - 1, rho, dtype=dt)
        powers[0] = 1
        np.multiply.accumulate(powers, out=powers)  # rho^0 .. rho^(n-2), one product at a time
        frac = np.arange(1, n, dtype=dt) / dt(n - 1)  # (i-1)/(n-1) for i = 2..n
        out = np.concatenate([[lam1], lam1 + frac * diff * powers[::-1]])
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
        if r.ndim != 1 or e.ndim != 1 or len(r) != len(e) or len(r) == 0:
            raise ShapeError("curves must be 1-D of equal positive length")
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


def prescribe_cg_curves(curves: ConvergenceCurves) -> PrescribedSystem:
    """Build (T_n, b = ||r_0|| e1) whose exact CG reproduces the curves.

    The telescoping identity ||x-x_k||_A^2 = gamma_k ||r_k||^2 + ||x-x_{k+1}||_A^2
    gives the pivot d_k = 1/gamma_k = ||r_k||^2/(e_k^2 - e_{k+1}^2), and
    ell_k = ||r_k||/||r_{k-1}|| is the multiplier of T_n = L D L^T, so one
    pass over k from d_{-1} = 0 gives beta_{k+1} = ell_k d_{k-1} and alpha_{k+1}
    = d_k + ell_k beta_{k+1}, dropping beta_1 = 0.  The construction is carried
    out in exact rational arithmetic and rounded once, to binary64, at the end.
    """
    r = [Fraction(float(x)) for x in curves.residual_norms]
    e2 = [Fraction(float(x)) ** 2 for x in curves.energy_errors] + [Fraction(0)]
    alpha, beta, d = [], [], Fraction(0)
    for k in range(curves.n):
        if e2[k] <= e2[k + 1]:
            raise ValueError(f"gamma_{k} <= 0: curves inconsistent with an SPD system")
        ell = r[k] / r[k - 1]  # ell_0 reads r[-1]; it multiplies d_{-1} = 0 only
        beta.append(ell * d)
        d = r[k] * r[k] / (e2[k] - e2[k + 1])
        alpha.append(d + ell * beta[-1])
    beta = beta[1:]
    dt = BINARY64.dtype
    T = JacobiMatrix(np.array([dt(float(a)) for a in alpha], dtype=dt), np.array([dt(float(b)) for b in beta], dtype=dt))
    b = np.zeros(curves.n, dtype=dt)
    b[0] = dt(float(curves.residual_norms[0]))
    return PrescribedSystem(T, freeze(b), alpha, beta)


def random_convergence_curves(n: int, seed: int) -> ConvergenceCurves:
    """Admissible random curves: any positive residuals, decreasing energy errors."""
    g = make_rng(seed)
    res = np.exp(g.uniform(np.log(1e-3), np.log(1e3), n))
    ratios = g.uniform(0.2, 0.9, n)
    energy = np.cumprod(ratios) * float(g.uniform(0.5, 2.0))
    return ConvergenceCurves(res.astype(np.float64), energy.astype(np.float64))

