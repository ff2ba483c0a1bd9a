"""IEEE 754 scalar model, dense containers, and bit-exact comparison utilities.

Vectors and matrices are plain numpy arrays of dtype float64 (binary64) or
float32 (binary32).  Every operation in this module performs one correctly
rounded IEEE 754 operation at a time: no FMA, no extended intermediate
precision, no reassociation.  Sums are strictly sequential left-to-right,
which pins a bitwise-deterministic result for regression testing.

_matvec skips the columns whose entry of x is exactly zero.  This is
bit-identical to the naive sequential loop: the accumulator starts at +0,
adding a signed zero to +0 yields +0, and adding a signed zero to a nonzero
value leaves it unchanged.  IEEE addition cannot round a nonzero exact sum
to zero, so the accumulator never becomes -0.  A NaN or infinite term is
never zero, so it is never skipped.

Sequential sums are computed by np.add.accumulate, which (unlike
np.add.reduce, which sums pairwise) adds strictly left to right:
accumulate(t)[-1] is fl(((t_0 + t_1) + t_2) + ...).  This fold starts at
t_0 instead of +0 + t_0.  The two differ only in the sign of a zero partial
sum (+0 + -0 is +0, while a -0 start stays -0), and the sign of a zero
partial sum never changes a later nonzero one.  So every partial sum has
the value of the +0-started fold, and a trailing + 0 turns a final -0 into
+0: accumulate(t)[-1] + 0 is the sequential fold bit for bit.  seq_dot
and norm2 sum every product this way.  _gram builds a whole table of such
dots, G[i, j] = seq_dot(X[:, i], Y[:, j]), with one accumulate down axis 0
per row of G, each column of the products summed in index order.

Row layout: the Krylov loops and the block QR keep their bases as the
contiguous rows of an array and return a C-order copy of the transpose.
Every recurrence (those, and HS-CG) enters np.errstate(over="ignore",
invalid="ignore") once per call and calls _dot, which is seq_dot minus the
operand checks and its own errstate.  _mgs is the one modified Gram-Schmidt
loop, for Arnoldi, Lanczos reorthogonalization and block QR.

Operand contract: each algorithm calls validate_operands once, before its
first step, on its matrix and operands (one format, one row count, all
finite, step count in range).  The kernels then check only their outputs:
seq_dot, _dot, norm2, _gram and the unchecked _matvec/_matmat raise
NonFiniteError on a non-finite result, which covers overflow and non-finite
inputs alike.  The public matvec and matmat also scan the matrix once per
call, because a NaN in a column that x skips would otherwise go unseen.
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
        return self.guard_lo <= abs(float(x)) <= self.guard_hi


BINARY64 = Precision("binary64", np.float64, 2.0 ** -53, 2.0 ** -500, 2.0 ** 500)
BINARY32 = Precision("binary32", np.float32, 2.0 ** -24, 2.0 ** -60, 2.0 ** 60)

_BY_DTYPE = {np.dtype(np.float64): BINARY64, np.dtype(np.float32): BINARY32}
_BY_NAME = {"binary64": BINARY64, "binary32": BINARY32}


def precision_named(name: str) -> Precision:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown precision {name!r}") from None


def precision_of(a) -> Precision:
    dt = np.asarray(a).dtype
    try:
        return _BY_DTYPE[dt]
    except KeyError:
        raise TypeError(f"unsupported dtype {dt}; use float64 or float32") from None


def require_finite(a, what: str = "input") -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains a NaN or infinity")


def validate_operands(A, *vectors, block=None, k: int = 0, limit: int = 0) -> None:
    """Entry check of an algorithm on the matrix A and its operands.

    A must be a binary32 or binary64 matrix (TypeError otherwise); every
    vector operand that is not None must be 1-D, and the block operand 2-D,
    with A's dtype and A's row count (ShapeError); A and the operands must
    be finite (NonFiniteError); and the step count must satisfy
    0 <= k <= limit (ValueError).
    """
    precision_of(A)
    if A.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got shape {A.shape}")
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
    kind = np.uint64 if a.dtype == np.float64 else np.uint32
    return np.ascontiguousarray(a).view(kind)


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


def _sequential_sum(terms: np.ndarray, dt):
    """fl(((0 + t_0) + t_1) + ...): accumulate's last partial sum plus +0."""
    return np.add.accumulate(terms)[-1] + dt.type(0.0) if terms.size else dt.type(0.0)


def _dot(x: np.ndarray, y: np.ndarray):
    """seq_dot without its operand checks or errstate: the caller holds both."""
    out = _sequential_sum(x * y, x.dtype)
    if not math.isfinite(out):
        raise NonFiniteError("non-finite dot product")
    return out


def _mgs(Qt: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """For each row q_i of Qt in order, c[i] = fl(q_i^T w) and then
    w = w - c[i] q_i; returns w.  c has w's dtype, so c[i] keeps _dot's bits."""
    for i, q in enumerate(Qt):
        c[i] = h = _dot(q, w)
        w = w - h * q
    return w


@np.errstate(over="ignore", invalid="ignore")  # a non-finite product or sum raises in _dot
def seq_dot(x: np.ndarray, y: np.ndarray):
    """fl(x^T y) with strictly sequential left-to-right summation."""
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"dot operands must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.dtype != y.dtype:
        raise ShapeError(f"dtype mismatch: {x.dtype} vs {y.dtype}")
    return _dot(x, y)


def seq_dot_reference(x: np.ndarray, y: np.ndarray):
    """Literal term-by-term fold of fl(sum fl(x_i*y_i)); oracle for seq_dot."""
    p = precision_of(x)
    acc = p.dtype(0.0)
    for i in range(len(x)):
        acc = acc + x[i] * y[i]
    return acc


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum raises below
def norm2(x: np.ndarray):
    """fl(sqrt(fl(sum fl(x_i^2)))) with sequential summation."""
    if x.ndim != 1:
        raise ShapeError(f"norm operand must be a vector, got shape {x.shape}")
    acc = _sequential_sum(x * x, x.dtype)
    if not math.isfinite(acc):
        raise NonFiniteError("non-finite sum of squares")
    if x.dtype == np.float64:
        return np.float64(math.sqrt(acc))
    return np.sqrt(acc)


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
    if X.shape[0] == 0:
        return out
    symmetric = Y is X
    for i in range(X.shape[1]):
        j = i if symmetric else 0
        out[i, j:] = np.add.accumulate(X[:, i : i + 1] * Y[:, j:], axis=0)[-1]
    if symmetric:
        out = np.where(np.tri(len(out), k=-1, dtype=bool), out.T, out)
    out += X.dtype.type(0.0)  # the +0 start of each sum
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite entry in gram matrix")
    return out


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_r = fl(sum_c A[r,c] * x[c]), sequential left-to-right per row.

    Columns are accumulated in index order with one elementwise multiply and
    one elementwise add per column, which realizes exactly the per-row
    sequential sum.  A single-nonzero x takes an O(n) shortcut that is
    bit-identical (the trailing `+ 0.0` renormalizes -0 products to +0, as
    accumulation onto the +0 accumulator would).  A is not scanned: the
    columns that x skips are never read.
    """
    if A.ndim != 2 or x.ndim != 1 or A.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec shapes {A.shape} x {x.shape} do not agree")
    dt = A.dtype
    if dt != x.dtype:
        raise ShapeError(f"dtype mismatch: {A.dtype} vs {x.dtype}")
    nz = np.nonzero(x)[0]
    if nz.size == 1:
        j = nz[0]
        y = A[:, j] * x[j] + dt.type(0.0)
    else:
        y = np.zeros(A.shape[0], dtype=dt)
        for c in nz:
            y = y + A[:, c] * x[c]
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("non-finite result in matvec")
    return y


def _matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-by-column _matvec product; same sequential-sum semantics."""
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ShapeError(f"matmat shapes {A.shape} x {B.shape} do not agree")
    out = np.empty((A.shape[0], B.shape[1]), dtype=A.dtype)
    for j in range(B.shape[1]):
        out[:, j] = _matvec(A, B[:, j])
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises in _matvec
def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = fl(A x) as _matvec computes it, after one finiteness scan of A, so
    a NaN in a column that x skips still raises NonFiniteError."""
    require_finite(A, "matrix")
    return _matvec(A, x)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises in _matvec
def matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """fl(A B) as _matmat computes it, after one finiteness scan of A."""
    require_finite(A, "matrix")
    return _matmat(A, B)


def frobenius_norm(A: np.ndarray):
    return norm2(np.ascontiguousarray(A).ravel())


# ---------------------------------------------------------------------------
# exact-operation checks


def sqrt_square_roundtrip(alpha, precision: Precision | None = None) -> bool:
    """Whether fl(sqrt(fl(alpha^2))) is bit-identical to |alpha|."""
    if precision is None:
        precision = precision_of(alpha)
    a = precision.dtype(alpha)
    require_finite(a, "alpha")
    with np.errstate(over="ignore"):
        sq = a * a
    if not np.isfinite(sq):
        raise RangeError("alpha^2 overflows")
    if sq != 0 and abs(float(sq)) < _smallest_normal(precision):
        raise RangeError("alpha^2 underflows to the subnormal range")
    back = np.sqrt(sq) if precision is BINARY32 else np.float64(math.sqrt(float(sq)))
    return bitwise_equal(back, abs(a))


def _smallest_normal(p: Precision) -> float:
    return float(np.finfo(p.dtype).smallest_normal)


def exact_op_catalog(alpha, precision: Precision | None = None) -> dict:
    """The five exact identities fl(1*a)=a, fl(-a)=-a, fl(0*a)=0, fl(a-a)=+0, fl(a/a)=1.

    Returns a dict mapping identity name to bool.  fl(a-a) is checked to be
    +0 bitwise; fl(0*a) is checked to be zero-valued (its sign follows the
    sign rule of multiplication).
    """
    if precision is None:
        precision = precision_of(alpha)
    a = precision.dtype(alpha)
    require_finite(a, "alpha")
    one = precision.dtype(1.0)
    zero = precision.dtype(0.0)
    out = {
        "one_times": bitwise_equal(one * a, a),
        "negate": bitwise_equal(-a, precision.dtype(-float(a))),
        "zero_times": (zero * a) == 0,
        "self_minus": bitwise_equal(a - a, zero),
        "self_div": (a / a) == one if a != 0 else True,
    }
    return out
