"""IEEE 754 scalar model, dense containers, and bit-exact comparison utilities.

The one module that names a format, writes a sequential fold or normalizes
a starting vector.  PRECISIONS is the table of formats, one Precision row
each: binary64 (float64) and binary32 (float32).  Every operation here
performs one correctly rounded IEEE 754 operation at a time: no FMA, no
extended intermediate precision, no reassociation.  Sums are strictly
sequential left-to-right, which pins a bitwise-deterministic result.

_matvec realizes the column sweep y = +0; y = fl(y + fl(A[:, c] * x[c])), c
in index order, which is the per-row sequential sum: it gathers the columns
with x[c] != 0 as rows of A^T, _BLOCK at a time, scales a batch in one call
and adds its rows in order, y += p, each row the sweep's product and each +=
its addition.  Skipping x[c] = 0 keeps the bits: the accumulator starts at
+0, adding a signed zero to +0 yields +0, and adding a signed zero to a
nonzero value leaves it unchanged.  IEEE addition cannot round a nonzero
exact sum to zero, so the accumulator never becomes -0.  A NaN or infinite
term is never zero, so it is never skipped.

Sequential sums are computed by np.add.accumulate, which (unlike
np.add.reduce, which sums pairwise) adds strictly left to right:
accumulate(t)[-1] is fl(((t_0 + t_1) + t_2) + ...).  This fold starts at
t_0 instead of +0 + t_0.  The two differ only in the sign of a zero partial
sum (+0 + -0 is +0, while a -0 start stays -0), and the sign of a zero
partial sum never changes a later nonzero one.  So every partial sum has
the value of the +0-started fold, and a trailing + 0 turns a final -0 into
+0: accumulate(t)[-1] + 0 is the sequential fold bit for bit, and _fold(t)
is it down axis 0.  _dot is the same fold of x * y, inlined because it is
the hottest kernel; seq_dot and norm2 sum through it.  _gram builds a table
of such dots, G[i, j] = seq_dot(X[:, i], Y[:, j]), with one _fold per row of
G.  _start(v, what), the normalization that begins each single-vector
recurrence, returns (||v||, v / ||v||) or raises ValueError: "<what> is zero",
or "<what>'s squared norm underflows" for a nonzero v.

Row layout: the Krylov loops and the block QR keep their bases as the
contiguous rows of an array and return a C-order copy of the transpose.
The three-term loops (lanczos, nonsym_lanczos, golub_kahan) and block Lanczos
index theirs as the recurrence: row i is v_i over a +0 row 0 for v_0 (U[i] is
U_i over U_0 = +0, and B_1 = +0), and each coefficient sits at its recurrence
index in a preallocated array, one slice per field.  Lanczos's loop is the
generator lanczos._lanczos_steps, whose record of step i, (alpha_i,
beta_{i+1}, v_{i+1}), is index i of those arrays.
Every recurrence (those, and HS-CG) enters np.errstate(over="ignore",
invalid="ignore") once per call; for _lanczos_steps its callers, lanczos
and cglanczos, hold it, because a generator's errstate would not span its
body.  _mgs is the modified Gram-Schmidt loop of Arnoldi and of Lanczos
reorthogonalization; the block QR writes its own per-row loop, for both orders.

Operand contract: each algorithm calls validate_operands once, before its
first step, on its matrix and operands (ndarrays of one format and row
count, a square matrix where needed, all finite, step count in range).
The kernels inside the recurrences, _dot, _norm2, _unit, _matvec, _matmat
and _mgs, check only their outputs: they raise NonFiniteError on a non-finite
result, which covers overflow and non-finite inputs alike.  _sub_scaled
checks nothing: the step's next _dot or _unit reads what it wrote.
_matvec returns a fresh array, which its caller may overwrite.
The public seq_dot, norm2, matvec and matmat are operand checks (plain
ndarrays, the format, then the shapes) plus one errstate around those
kernels; matvec and matmat also scan the matrix once per call, because a NaN
in a column that x skips would otherwise go unseen.  _gram keeps its own
checks and errstate.

Coordinates: on the structured class every Krylov vector is a signed
coordinate +-e_c, and each z before its normalization a multiple of one, so
each inner product and norm of a step has one nonzero term.  The single-vector loops (lanczos, and so cglanczos; arnoldi,
nonsym_lanczos, golub_kahan) carry each vector's coordinate, _coordinate:
the index of its one nonzero, or -1 when it has none or more than one.  It
is found once per vector, at the norm that scans the vector anyway (_unit,
and _start), and v = z / ||z|| keeps z's, since a zero stays zero and z_c /
||z|| != 0.  The kernels take it and do not rescan: for a coordinate c,
A v = fl(A[:, c] v_c) + 0; alpha = fl(z_c v_c) + 0; ||z|| = sqrt(fl(z_c^2) +
0); and _mgs reads the r coordinates of its basis instead of scanning the
r x n rows, so structured Arnoldi is O(n^2).  Without one (-1), each kernel
takes its general path.  The bits are the general path's: the other terms
are x_j * (+-0) = +-0 for a finite x_j, and the +0-started fold of +-0 terms
and one finite term t is fl(t + 0) (+0 when t is +-0); a square is never -0;
and fl(p + 0) is the sweep's fl(+0 + p), since IEEE addition commutes,
signed zeros included.  The errors are the general path's: _coordinate counts
a NaN or an infinity as a nonzero, so a non-finite z has no coordinate and
takes the full fold, or is its own coordinate with a non-finite square;
either way _norm2 raises NonFiniteError("non-finite dot product").  A loop
passes a coordinate to _dot only where the other operand is finite.  In
lanczos's alpha_i = z^T v_i, z = A v_i (CGS) or A v_i - beta_i v_{i-1} (MGS)
is: _matvec checks A v_i, and beta_i v_{i-1}, a norm times a unit vector, is
below about sqrt of the largest finite value, far less than half an ulp of it.
(Were z not finite, the step's _norm2 would raise the same error.)  z never
holds a -0 (_matvec's output has none, and fl(x - y) is -0 only when x = -0),
which lets _mgs take its vectorized step on it, and the three-term updates and
normalizations their one-entry forms.  _sub_scaled(z, a, x, c) is z -=
fl(a x) for a finite coefficient a: with x's coordinate c, only z[c] changes,
since every other x_j is +-0 and z_j - fl(a (+-0)) = z_j for z_j != -0,
finite or not.  A row v_0 = +0 has no nonzero, so any index serves as its
coordinate: the loops give it 0, and the first step's beta_1 v_0 is a
one-entry no-op.  _unit(z, out) returns (||z||, c) for z's coordinate c and,
when ||z|| != 0, writes out = z / ||z|| into a preallocated +0 row: with a
coordinate only out[c], because every other entry is +0 / ||z|| = +0.  Each
step's norm and divide go through it (beta in lanczos, H[j+1, j] in arnoldi,
gamma for nonsym_lanczos's v, gamma and delta in golub_kahan); _start and
nonsym_lanczos's w_{i+1} = w / beta_{i+1} keep the whole divide, since a
starting vector may hold -0, and beta_{i+1} may be negative, when +0 /
beta_{i+1} is -0.  Those -0s are zeros of an x: z_j - fl(a (-0)) = z_j too.

exact_identity_violations is the one check of the IEEE operations that
round nothing, on which the exactness results rest (Lemma 3.1 among them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not agree."""


class NonFiniteError(ValueError):
    """A NaN or infinity reached a public entry point or was produced."""


class RangeError(ValueError):
    """A value violates an exponent-range precondition."""


@dataclass(frozen=True)
class Precision:
    name: str
    dtype: type
    unit_roundoff: float
    # Exponent-range guard for generated off-diagonal coefficients: wide
    # enough that squaring never overflows or hits the subnormal range.
    guard_lo: float
    guard_hi: float

    def in_guard(self, x) -> bool:
        """True iff every entry of x (a scalar or an array) lies in the guard."""
        a = np.abs(np.asarray(x, dtype=np.float64))
        return bool(np.all((self.guard_lo <= a) & (a <= self.guard_hi)))


BINARY64 = Precision("binary64", np.float64, 2.0 ** -53, 2.0 ** -500, 2.0 ** 500)
BINARY32 = Precision("binary32", np.float32, 2.0 ** -24, 2.0 ** -60, 2.0 ** 60)
PRECISIONS = (BINARY64, BINARY32)

_BLOCK = 64  # columns per batch in _matvec: a batch of rows stays in cache


def precision_named(name: str) -> Precision:
    for p in PRECISIONS:
        if p.name == name:
            return p
    raise ValueError(f"unknown precision {name!r}")


def precision_of(a) -> Precision:
    dt = np.asarray(a).dtype
    for p in PRECISIONS:
        if dt == p.dtype:
            return p
    if dt.newbyteorder("=") in [p.dtype for p in PRECISIONS]:
        raise TypeError(f"unsupported byte order {dt}; use a native float64 or float32 array")
    raise TypeError(f"unsupported dtype {dt}; use float64 or float32")


def require_finite(a, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains a NaN or infinity")


def _require_ndarrays(*operands) -> None:
    """TypeError naming the type of the first operand that is neither None nor a plain ndarray."""
    for x in operands:
        if x is not None and type(x) is not np.ndarray:
            raise TypeError(f"unsupported array type {type(x).__name__}; use numpy.ndarray")


def validate_operands(A, *vectors, block=None, k: int = 0, limit: int = 0, square: bool = False) -> None:
    """Entry check of an algorithm on the matrix A and its operands.

    A and the operands must be plain ndarrays, not np.matrix, np.memmap or a
    masked array (TypeError; pass np.asarray(x)); A a binary32 or binary64
    matrix (TypeError otherwise), 2-D and, for a square-only algorithm, square;
    each vector operand that is not None 1-D, and the block operand 2-D, with
    A's dtype and row count (ShapeError); A and the operands finite
    (NonFiniteError); and the step count 0 <= k <= limit (ValueError).
    """
    _require_ndarrays(A, *vectors, block)
    precision_of(A)
    if A.ndim != 2 or (square and A.shape[0] != A.shape[1]):
        raise ShapeError(f"matrix must be 2-D{' and square' if square else ''}, got shape {A.shape}")
    given = [(x, 1) for x in vectors if x is not None] + ([] if block is None else [(block, 2)])
    for x, ndim in given:
        if x.ndim != ndim or x.dtype != A.dtype or x.shape[0] != A.shape[0]:
            raise ShapeError(f"{ndim}-D operand {x.dtype} {x.shape} does not match the {A.dtype} {A.shape} matrix")
    require_finite(A, "matrix")
    for x, _ in given:
        require_finite(x, "operand")
    if not 0 <= k <= limit:
        raise ValueError(f"k = {k} is outside [0, {limit}]")


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark an array immutable (all containers are read-only after construction)."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# bit-exact comparison


def _bit_view(a: np.ndarray) -> np.ndarray:
    """a as unsigned integers of its own item size: one per bit pattern."""
    return np.ascontiguousarray(a).view(f"u{a.dtype.itemsize}")


def first_bit_difference(a, b):
    """Index of the first entry (row-major) where a and b differ bitwise, or None.

    +0 and -0 are distinct; identical NaN payloads compare equal.
    """
    x = np.asarray(a)
    y = np.asarray(b)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.dtype != y.dtype:
        raise ShapeError(f"dtype mismatch: {x.dtype} vs {y.dtype}")
    neq = _bit_view(x.ravel()) != _bit_view(y.ravel())
    idx = np.nonzero(neq)[0]
    if idx.size == 0:
        return None
    flat = int(idx[0])
    return np.unravel_index(flat, x.shape) if x.ndim > 0 else ()


def bitwise_equal(a, b) -> bool:
    """True iff every entry of a and b is bit-identical (+0 != -0)."""
    return first_bit_difference(a, b) is None


def bitwise_symmetric(A: np.ndarray) -> bool:
    """bitwise_equal(A, A.T) for a float matrix, without a transposed copy:
    the bit view of A is compared with its own transpose view."""
    if A.shape != A.T.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {A.T.shape}")
    U = _bit_view(A)
    return bool((U == U.T).all())


# ---------------------------------------------------------------------------
# sequential arithmetic kernels


def _fold(t: np.ndarray):
    """fl(((0 + t_0) + t_1) + ...) down axis 0 of t; zeros when axis 0 is empty."""
    if not len(t):
        return np.zeros(t.shape[1:], dtype=t.dtype)[()]
    return np.add.accumulate(t)[-1] + t.dtype.type(0.0)


def _start(v: np.ndarray, what: str):
    """(||v||, v / ||v||, the _coordinate of v and so of v / ||v||) of a starting
    vector; ValueError if ||v|| is 0, because v is zero or because its squared
    norm underflows."""
    c = _coordinate(v)
    nrm = _norm2(v, c)
    if nrm == 0:
        raise ValueError(f"{what}'s squared norm underflows" if v.any() else f"{what} is zero")
    return nrm, v / nrm, c


def _coordinate(x: np.ndarray) -> int:
    """The index of x's one nonzero entry (a NaN counts as one), or -1 when
    x has none or more than one."""
    if np.count_nonzero(x) != 1:
        return -1
    c = int(x.argmax())
    return c if x[c] else int(x.argmin())


def _dot(x: np.ndarray, y: np.ndarray, c: int = -1):
    """_fold(x * y), inlined: the hottest kernel; the caller holds the checks and errstate.
    c >= 0 is the _coordinate of x or of y: the fold is then fl(x[c] y[c]) + 0,
    provided the other operand is finite (the module docstring's Coordinates)."""
    zero = x.dtype.type(0.0)
    if c >= 0:
        out = x[c] * y[c] + zero
    else:
        out = np.add.accumulate(x * y)[-1] + zero if x.size else zero
    if not math.isfinite(out):
        raise NonFiniteError("non-finite dot product")
    return out


def _norm2(x: np.ndarray, c: int = -1):
    """norm2 without its operand check or errstate (IEEE sqrt is correctly rounded);
    c is x's _coordinate, or -1."""
    return np.sqrt(_dot(x, x, c))


def _sub_scaled(z: np.ndarray, a, x: np.ndarray, c: int) -> None:
    """z -= fl(a x) in place for a finite a and a z without -0; x's coordinate
    c >= 0 changes z[c] alone (Coordinates, above)."""
    if c >= 0:
        z[c] -= a * x[c]
    else:
        z -= a * x


def _unit(z: np.ndarray, out: np.ndarray):
    """(||z||, c) for z's _coordinate c; when ||z|| != 0, also out = z / ||z||
    into a +0 row, for a z without -0: out[c] alone when c >= 0 (Coordinates,
    above).  A non-finite z raises NonFiniteError in _norm2."""
    c = _coordinate(z)
    nrm = _norm2(z, c)
    if nrm != 0:
        if c >= 0:
            out[c] = z[c] / nrm
        else:
            np.divide(z, nrm, out=out)
    return nrm, c


def _mgs(Qt: np.ndarray, w: np.ndarray, c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """For each row q_i of Qt in order, c[i] = fl(q_i^T w) and then
    w = w - c[i] q_i; returns w.  c has w's dtype, so c[i] keeps _dot's bits.

    A signed-coordinate basis takes one vectorized step: when Qt's r rows
    each have exactly one nonzero, in distinct columns p_i, and w is finite
    with no -0, c[i] = fl(q_i[p_i] w[p_i]) + 0 and w[p_i] = fl(w[p_i] -
    fl(c[i] q_i[p_i])), every other entry unchanged.  That is the loop bit
    for bit: the +0-started fold of +-0 terms and one term t is t (+0 when t
    is +-0); fl(x - (+-0)) = x for finite x != -0; and fl(x - y) is -0 only
    when x = -0, so no step makes a -0 and the steps, each on its own column,
    commute.  A non-finite entry runs the loop instead, so an error keeps the
    loop's type, message and row, and c the loop's writes.  p holds the
    rows' _coordinates (-1 for a row without one), and the step reads them.
    """
    r = len(Qt)
    if r and p.min() >= 0 and np.isfinite(w).all() and not (np.signbit(w) & (w == 0)).any():
        q = Qt[np.arange(r), p]
        if len(set(p.tolist())) == r:
            x = w[p]
            h = q * x + w.dtype.type(0.0)
            wp = x - h * q
            if np.isfinite(wp).all():  # so is h: h q is non-finite for a non-finite h and q != 0
                c[:r] = h
                w = w.copy()
                w[p] = wp
                return w
    for i, q in enumerate(Qt):
        c[i] = h = _dot(q, w)
        w = w - h * q
    return w


@np.errstate(over="ignore", invalid="ignore")  # a non-finite product or sum raises in _dot
def seq_dot(x: np.ndarray, y: np.ndarray):
    """fl(x^T y) with strictly sequential left-to-right summation."""
    _require_ndarrays(x, y)
    precision_of(x)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"dot operands must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.dtype != y.dtype:
        raise ShapeError(f"dtype mismatch: {x.dtype} vs {y.dtype}")
    return _dot(x, y)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum raises in _dot
def norm2(x: np.ndarray):
    """fl(sqrt(fl(sum fl(x_i^2)))) with sequential summation."""
    _require_ndarrays(x)
    precision_of(x)
    if x.ndim != 1:
        raise ShapeError(f"norm operand must be a vector, got shape {x.shape}")
    return _norm2(x)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry raises below
def _gram(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """G[i, j] = seq_dot(X[:, i], Y[:, j]), one row of G per accumulate call.

    Row i sums the n x m products X[:, i:i+1] * Y down axis 0, each column
    strictly in index order; the temporaries are n x m, never n x k x m.
    When Y is X, row i starts at the diagonal and the strict lower triangle
    is copied from the upper one: fl(x*y) = fl(y*x), so X^T X is
    symmetric bit for bit.  Raises NonFiniteError if any entry is non-finite.
    """
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"gram shapes {X.shape} and {Y.shape} do not agree")
    if X.dtype != Y.dtype:
        raise ShapeError(f"dtype mismatch: {X.dtype} vs {Y.dtype}")
    out = np.zeros((X.shape[1], Y.shape[1]), dtype=X.dtype)
    symmetric = Y is X
    for i in range(X.shape[1]):
        j = i if symmetric else 0
        out[i, j:] = _fold(X[:, i : i + 1] * Y[:, j:])
    if symmetric:
        out = np.where(np.tri(len(out), k=-1, dtype=bool), out.T, out)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite entry in gram matrix")
    return out


def _matvec(A: np.ndarray, x: np.ndarray, c: int = -1) -> np.ndarray:
    """y_r = fl(sum_c A[r,c] * x[c]), sequential left-to-right per row.

    The columns with x[c] != 0 are gathered in index order, _BLOCK at a time,
    as rows of A^T (contiguous when A is in Fortran order); P *= x scales a
    batch in one call, each row fl(A[:, c] * x[c]), and y += p adds its rows
    in order: the column sweep's products and additions, so its bits.  One
    nonzero x[c] skips the batch: p = fl(A[:, c] * x[c]); p += 0 is fl(+0 + p).
    c is x's _coordinate, or -1 to scan x for its nonzeros.
    A is not scanned: the columns that x skips are never read.  y is never a view of A.
    """
    cols = x.nonzero()[0] if c < 0 else (c,)
    if len(cols) == 1:  # a signed coordinate: one product row, then fl(p + 0)
        y = A.T[cols[0]] * x[cols[0]]
        y += 0.0
    else:
        y = np.zeros(A.shape[0], dtype=A.dtype)
        xs = x[cols][:, None]
        for s in range(0, len(cols), _BLOCK):
            P = A.T[cols[s : s + _BLOCK]]
            P *= xs[s : s + _BLOCK]
            for p in P:
                y += p
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite result in matvec")
    return y


def _matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-by-column _matvec product; same sequential-sum semantics."""
    out = np.empty((A.shape[0], B.shape[1]), dtype=A.dtype)
    for j in range(B.shape[1]):
        out[:, j] = _matvec(A, B[:, j])
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises in _matvec
def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = fl(A x) as _matvec computes it, after the operand checks and one scan
    of A, so a NaN in a column that x skips still raises NonFiniteError."""
    _require_ndarrays(A, x)
    precision_of(A)
    if A.ndim != 2 or x.ndim != 1 or A.shape[1] != x.shape[0] or A.dtype != x.dtype:
        raise ShapeError(f"matvec operands {A.dtype} {A.shape} and {x.dtype} {x.shape} do not agree")
    require_finite(A, "matrix")
    return _matvec(A, x)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises in _matvec
def matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """fl(A B) as _matmat computes it, after the operand checks and one
    finiteness scan of A."""
    _require_ndarrays(A, B)
    precision_of(A)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0] or A.dtype != B.dtype:
        raise ShapeError(f"matmat operands {A.dtype} {A.shape} and {B.dtype} {B.shape} do not agree")
    require_finite(A, "matrix")
    return _matmat(A, B)


def frobenius_norm(A: np.ndarray):
    return norm2(np.ascontiguousarray(A).ravel())


# ---------------------------------------------------------------------------
# exact-operation checks


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # a^2 is checked below; 0/0 is masked
def exact_identity_violations(a) -> dict:
    """{identity: number of entries of a that break it}, compared bit for bit:
    one_times fl(1*a) = a, negate fl(-a) = -a (binary64 negation cast back),
    zero_times fl(0*a) = copysign(0, a), self_minus fl(a-a) = +0, self_div
    fl(a/a) = 1 where a != 0, and sqrt_square fl(sqrt(fl(a^2))) = |a| (Lemma
    3.1), over an array a in one supported format.  NonFiniteError on a
    non-finite entry; RangeError where a^2 overflows, or where a nonzero a
    has a^2 below the format's smallest normal."""
    a = np.asarray(a)
    precision_of(a)
    require_finite(a, "alpha")
    sq = a * a
    if not np.isfinite(sq).all():
        raise RangeError("alpha^2 overflows")
    if ((a != 0) & (sq < np.finfo(a.dtype).smallest_normal)).any():
        raise RangeError("alpha^2 underflows to the subnormal range")
    dt = a.dtype.type

    def pairs():  # (name, computed, expected), one pair alive at a time
        yield "one_times", dt(1.0) * a, a
        yield "negate", -a, (-a.astype(np.float64)).astype(a.dtype)
        yield "zero_times", dt(0.0) * a, np.copysign(dt(0.0), a)
        yield "self_minus", a - a, np.zeros_like(a)
        yield "self_div", np.where(a != 0, a / a, dt(1.0)), np.ones_like(a)
        yield "sqrt_square", np.sqrt(sq), np.abs(a)

    return {name: int(np.count_nonzero(_bit_view(x) != _bit_view(y))) for name, x, y in pairs()}
