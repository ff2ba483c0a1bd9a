import ast
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from krylovexact import fp
from krylovexact.fp import (
    BINARY32,
    BINARY64,
    PRECISIONS,
    NonFiniteError,
    RangeError,
    ShapeError,
    _bit_view,
    _dot,
    _gram,
    _matmat,
    _matvec,
    bitwise_equal,
    bitwise_symmetric,
    exact_identity_violations,
    first_bit_difference,
    freeze,
    frobenius_norm,
    matmat,
    matvec,
    norm2,
    precision_named,
    precision_of,
    seq_dot,
)

guarded64 = st.floats(min_value=2.0**-400, max_value=2.0**400, allow_nan=False).map(
    lambda x: x if x > 0 else 1.0
)
signed64 = st.tuples(guarded64, st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


def test_precision_lookup():
    assert precision_named("binary64") is BINARY64
    assert precision_named("binary32") is BINARY32
    assert PRECISIONS == (BINARY64, BINARY32)  # the first row is the CLI's default
    with pytest.raises(ValueError, match=r"^unknown precision 'binary16'$"):
        precision_named("binary16")
    assert precision_of(np.zeros(3, dtype=np.float32)) is BINARY32
    with pytest.raises(TypeError, match=r"^unsupported dtype int64; use float64 or float32$"):
        precision_of(np.zeros(3, dtype=np.int64))
    with pytest.raises(TypeError, match=r"^unsupported dtype float16; use float64 or float32$"):
        precision_of(np.float16(1.0))


@pytest.mark.parametrize("row", PRECISIONS, ids=lambda p: p.name)
def test_precision_lookups_round_trip_every_row(row):
    assert precision_named(row.name) is row
    assert precision_of(np.zeros((2, 3), dtype=row.dtype)) is row
    assert precision_of(row.dtype(1.5)) is row


@pytest.mark.parametrize("row", PRECISIONS, ids=lambda p: p.name)
def test_in_guard_on_an_array_agrees_with_the_scalar_rule(row):
    dt = row.dtype
    lo, hi = dt(row.guard_lo), dt(row.guard_hi)
    values = [lo, hi, np.nextafter(lo, dt(0)), np.nextafter(hi, dt(np.inf)), dt(0.0), dt(-0.0), np.finfo(dt).max, dt(1.0), dt(np.nan)]
    values += [-x for x in values]

    def rule(x):
        return row.guard_lo <= abs(float(x)) <= row.guard_hi

    for x in values:
        assert row.in_guard(x) is rule(x)
        assert row.in_guard(np.array([x, 1.0], dtype=dt)) is rule(x)
        assert row.in_guard(np.array([[1.0], [x]], dtype=dt)) is rule(x)
    assert row.in_guard(np.array([x for x in values if rule(x)], dtype=dt)) is True
    assert row.in_guard(np.array(values, dtype=dt)) is False
    assert row.in_guard(np.array([], dtype=dt)) is True


@pytest.mark.parametrize("row", PRECISIONS, ids=lambda p: p.name)
def test_bit_view_tells_plus_zero_from_minus_zero_in_every_row(row):
    u = _bit_view(np.array([0.0, -0.0, 1.0], dtype=row.dtype))
    assert u.dtype.kind == "u" and u.dtype.itemsize == np.dtype(row.dtype).itemsize
    assert u[0] == 0 and u[1] != u[0] and u[2] not in (u[0], u[1])
    assert not bitwise_equal(np.array(0.0, dtype=row.dtype), np.array(-0.0, dtype=row.dtype))


_FORMAT_NAMES = {"np.add.accumulate", "np.add.reduce", "np.finfo", "np.uint32", "np.uint64"}


def test_only_fp_names_a_format_or_writes_a_fold():
    """No module but fp refers to np.add.accumulate, np.add.reduce, np.finfo,
    np.uint32 or np.uint64, or holds a string that is a precision's name."""
    names = {row.name for row in PRECISIONS}
    hits = []
    for path in sorted(Path(fp.__file__).parent.glob("*.py")):
        if path.name == "fp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in _FORMAT_NAMES:
                hits.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names:
                hits.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert hits == []


def _own_nodes(function):
    """The nodes of a function's body, without the bodies of the functions,
    lambdas and classes defined in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_generator_enters_an_errstate():
    """No function that yields enters np.errstate, by a decorator or a with:
    a decorator's errstate exits before the generator's body runs, and a with
    left open across a yield leaks into the caller and is closed out of
    order when the caller abandons the generator, as cglanczos does on a
    pivot error.  The callers hold the errstate instead."""
    generators, hits = [], []
    for path in sorted(Path(fp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(node))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own):
                continue
            generators.append((path.name, node.name))
            contexts = [item.context_expr for n in own if isinstance(n, (ast.With, ast.AsyncWith)) for item in n.items]
            hits += [f"{path.name}:{e.lineno} {ast.unparse(e)}" for e in node.decorator_list + contexts if "errstate" in ast.unparse(e)]
    assert ("lanczos.py", "_lanczos_steps") in generators and hits == []


def test_unit_roundoff_values():
    assert BINARY64.unit_roundoff == 2.0**-53
    assert BINARY32.unit_roundoff == 2.0**-24


IDENTITIES = ("one_times", "negate", "zero_times", "self_minus", "self_div", "sqrt_square")
NONE_BROKEN = dict.fromkeys(IDENTITIES, 0)


@given(signed64)
def test_exact_identities_hold_on_a_guarded_scalar(a):
    assert exact_identity_violations(np.float64(a)) == NONE_BROKEN


@st.composite
def guarded_arrays(draw):
    """A 1-D or 2-D array of signed values inside its row's guard, with +0 and -0."""
    row = draw(st.sampled_from(PRECISIONS))
    e = int(np.log2(row.guard_hi))
    value = st.builds(lambda m, k, s: s * m * 2.0**k, st.floats(1.0, 2.0, exclude_max=True), st.integers(-e, e - 1), st.sampled_from([-1.0, 1.0]))
    shape = draw(st.sampled_from([(0,), (1,), (7,), (3, 4)]))
    size = int(np.prod(shape))
    values = draw(st.lists(st.one_of(value, st.sampled_from([0.0, -0.0])), min_size=size, max_size=size))
    return np.array(values, dtype=row.dtype).reshape(shape)


@given(guarded_arrays())
def test_exact_identities_hold_on_guarded_arrays(a):
    assert exact_identity_violations(a) == NONE_BROKEN


@pytest.mark.parametrize(
    "alpha, error, message",
    [
        (np.float64(1e200), RangeError, r"^alpha\^2 overflows$"),
        (np.float32(1e30), RangeError, r"^alpha\^2 overflows$"),
        (np.array([1.0, 1e-160]), RangeError, r"^alpha\^2 underflows to the subnormal range$"),
        (np.array([1e-20, -0.0], dtype=np.float32), RangeError, r"^alpha\^2 underflows to the subnormal range$"),
        (np.float64(-1e-200), RangeError, r"^alpha\^2 underflows to the subnormal range$"),  # a^2 rounds to +0
        (np.array([1.0, np.nan]), NonFiniteError, r"^alpha contains a NaN or infinity$"),
        (np.array([np.inf], dtype=np.float32), NonFiniteError, r"^alpha contains a NaN or infinity$"),
    ],
)
def test_exact_identity_violations_rejects_values_outside_the_lemma(alpha, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            exact_identity_violations(alpha)


def test_exact_identity_violations_on_signed_zeros_no_entries_and_another_format():
    a = np.array([1.5, -0.0, 0.0, -3.0])  # fl(0 * -0) = -0 and fl(0 * -3) = -0: the sign rule
    assert exact_identity_violations(a) == NONE_BROKEN
    assert exact_identity_violations(a[:0]) == NONE_BROKEN
    with pytest.raises(TypeError):
        exact_identity_violations(np.float16(1.0))


def test_lemma31_holds_for_every_binary32_significand():
    """Every binary32 m in [1, 2) keeps every identity.  While the square
    stays normal, a = m 2^e squares to fl(m^2) 4^e and its root is
    sqrt(fl(m^2)) 2^e, both scalings exact, so this covers every binary32
    value whose square is normal; the other identities hold at any scale."""
    m = (np.uint32(0x3F800000) | np.arange(2**23, dtype=np.uint32)).view(np.float32)
    assert m[0] == 1.0 and m[-1] == np.nextafter(np.float32(2.0), np.float32(0.0))
    for chunk in np.split(m, 8):  # 4 MiB at a time
        assert exact_identity_violations(chunk) == NONE_BROKEN


def test_only_fp_takes_a_bit_view():
    """No module but fp compares bit views: each exact identity is checked
    by exact_identity_violations."""
    modules = sorted(Path(fp.__file__).parent.glob("*.py"))
    assert [path.name for path in modules if path.name != "fp.py" and "_bit_view" in path.read_text()] == []


_TRANSCENDENTAL = {
    *("exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2", "pow", "power", "float_power", "cbrt", "hypot"),
    *("sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "asin", "acos", "atan", "atan2"),
    *("sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh", "asinh", "acosh", "atanh", "erf", "erfc", "gamma", "lgamma"),
}
# random_convergence_curves' output is pinned by no digest; sqrt_square_violations
# takes log2 and exp2 of powers of two, which are exact.
_LIBM_ALLOWED = {("problems.py", "random_convergence_curves"), ("harness.py", "sqrt_square_violations")}


def _integer_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_module_takes_a_pinned_bit_from_libm():
    """IEEE 754 makes sqrt correctly rounded but not pow, exp or log, whose
    bits may depend on the platform's libm.  So no module raises to a power
    that is not an integer literal (CPython's float ** calls C pow), calls
    pow, or names a transcendental np or math function, except inside the
    functions of _LIBM_ALLOWED."""
    hits, allowed = [], set()
    for path in sorted(Path(fp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        skip = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in _LIBM_ALLOWED:
                allowed.add((path.name, node.name))
                skip.update(ast.walk(node))
        for node in ast.walk(tree):
            if node in skip:
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not _integer_literal(node.right):
                hits.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow":
                hits.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("np", "numpy", "math") and node.attr in _TRANSCENDENTAL:
                hits.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("numpy", "math"):
                hits += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in _TRANSCENDENTAL]
    assert hits == [] and allowed == _LIBM_ALLOWED


def test_bitwise_zero_signs():
    a = np.array([0.0])
    b = np.array([-0.0])
    assert a[0] == b[0]
    assert not bitwise_equal(a, b)
    assert first_bit_difference(a, b) == (0,)


def _with_payload(dtype, bits):
    kind = np.uint64 if dtype == np.float64 else np.uint32
    return np.array([bits], dtype=kind).view(dtype)[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitwise_symmetric_is_bitwise_equal_to_the_transpose(data):
    """The in-place comparison gives the verdict of bitwise_equal against a
    transposed copy, on symmetric inputs with one entry made asymmetric by a
    zero sign or a NaN payload, and on non-square or non-contiguous ones."""
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    n = data.draw(st.integers(1, 6))
    nan_bits = (0x7FF8000000000001, 0x7FF8000000000002) if dtype == np.float64 else (0x7FC00001, 0x7FC00002)
    values = [0.0, -0.0, 1.5, -2.0, np.inf, _with_payload(dtype, nan_bits[0])]
    A = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n)), dtype=dtype).reshape(n, n)
    A[np.tril_indices(n, -1)] = A.T[np.tril_indices(n, -1)]  # mirror the upper triangle's bits
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    A[i, j] = data.draw(st.sampled_from([A[i, j], -0.0, 0.0, _with_payload(dtype, nan_bits[1])]))
    for M in (A, np.asfortranarray(A), A[:, ::-1][:, ::-1]):
        assert bitwise_symmetric(M) is bitwise_equal(M, np.ascontiguousarray(M.T))


def test_bitwise_symmetric_tells_zero_signs_and_nan_payloads_apart():
    A = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert A[0, 1] == A[1, 0] and not bitwise_symmetric(A)
    A[1, 0] = 0.0
    assert bitwise_symmetric(A)
    for dtype, bits in ((np.float64, (0x7FF8000000000001, 0x7FF8000000000002)), (np.float32, (0x7FC00001, 0x7FC00002))):
        B = np.zeros((3, 3), dtype=dtype)
        B[0, 2] = B[2, 0] = _with_payload(dtype, bits[0])
        assert bitwise_symmetric(B)
        B[2, 0] = _with_payload(dtype, bits[1])
        assert not bitwise_symmetric(B)
    with pytest.raises(ShapeError, match=r"^shape mismatch: \(2, 3\) vs \(3, 2\)$"):
        bitwise_symmetric(np.zeros((2, 3)))
    for shape in [(3,), (), (2, 2, 2)]:
        with pytest.raises(ShapeError, match=r"^matrix must be 2-D and square, got shape "):
            bitwise_symmetric(np.zeros(shape))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 127, 128, 129, 300]), st.sampled_from([np.float64, np.float32]), st.data())
def test_tiled_bitwise_symmetric_is_the_whole_transposed_compare(n, dtype, data):
    """The strips of fp._TILE = 128 rows give the verdict of (U == U.T).all()
    on the bit view U, for a symmetric n x n matrix with +-0, infinities and a
    NaN payload among rough entries, with one entry then changed, on a tile
    edge, next to one or anywhere: one bit flipped, a zero pair made +0 above
    and -0 below, or another NaN payload.  C order, Fortran order and a
    strided view."""
    assert fp._TILE == 128
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    uint, nan_bits = (np.uint64, (0x7FF8000000000001, 0x7FF8000000000002)) if dtype == np.float64 else (np.uint32, (0x7FC00001, 0x7FC00002))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, _with_payload(dtype, nan_bits[0])], dtype=dtype)
    A = np.where(g.random((n, n)) < 0.2, g.choice(specials, (n, n)), g.uniform(-2.0, 2.0, (n, n)).astype(dtype))
    A[np.tril_indices(n, -1)] = A.T[np.tril_indices(n, -1)]  # mirror the upper triangle's bits
    index = st.one_of(st.sampled_from([e for e in (0, 126, 127, 128, 129, 255, 256, n - 1) if e < n]), st.integers(0, n - 1))
    i, j = data.draw(index), data.draw(index)
    change = data.draw(st.sampled_from(["none", "bit", "zero_signs", "payload"]))
    if change == "bit":
        A.view(uint)[i, j] ^= uint(1) << uint(data.draw(st.integers(0, 8 * A.itemsize - 1)))
    elif change == "zero_signs":
        A[i, j], A[j, i] = dtype(0.0), dtype(-0.0)
    elif change == "payload":
        A[i, j] = _with_payload(dtype, nan_bits[1])
    strided = np.zeros((2 * n, 2 * n), dtype=dtype)[::2, ::2]
    strided[...] = A
    for M in (A, np.asfortranarray(A), strided):
        U = _bit_view(M)
        assert bitwise_symmetric(M) is bool((U == U.T).all())


def test_first_bit_difference_location():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.5, 3.0])
    assert first_bit_difference(a, b) == (1,)
    assert first_bit_difference(a, a.copy()) is None


def test_freeze_blocks_writes():
    a = freeze(np.zeros(2))
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_require_finite_via_norm2():
    with pytest.raises(NonFiniteError):
        norm2(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        norm2(np.array([0.0, np.nan], dtype=np.float32))


vecs = st.lists(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).map(
        lambda x: float(np.float64(x))
    ),
    min_size=1,
    max_size=12,
)


@given(vecs, st.randoms())
def test_seq_dot_matches_reference(xs, rnd):
    ys = [rnd.choice([-1.0, 0.0, 1.0, 0.5, 3.0]) for _ in xs]
    x = np.array(xs)
    y = np.array(ys)
    assert seq_dot(x, y) == seq_dot_reference(x, y)
    got = seq_dot(x, y)
    # an accumulator that starts at +0 never turns into -0
    if got == 0:
        assert not np.signbit(got)


@given(vecs)
def test_seq_dot_float32_matches_reference(xs):
    x = np.array(xs, dtype=np.float32)
    y = np.array(xs[::-1], dtype=np.float32)
    got = seq_dot(x, y)
    assert got.dtype == np.float32
    assert got == seq_dot_reference(x, y)


def test_seq_dot_shape_error():
    with pytest.raises(ShapeError):
        seq_dot(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError):
        seq_dot(np.ones(2, dtype=np.float32), np.ones(2))


# zeros of both signs, NaN, infinities, subnormals, and magnitudes whose
# products or sums overflow, mixed with ordinary values
special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-45, 1e-40, 3e38, -2e38, 1e200, -1e300, 1.5, -0.75])
entries = st.one_of(special, st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))


@given(st.lists(st.tuples(entries, entries), min_size=1, max_size=10), st.sampled_from([np.float64, np.float32]))
def test_seq_dot_raises_exactly_when_the_reference_is_not_finite(pairs, dtype):
    with np.errstate(all="ignore"):
        x = np.array([a for a, _ in pairs], dtype=dtype)
        y = np.array([b for _, b in pairs], dtype=dtype)
        ref = seq_dot_reference(x, y)
    if np.isfinite(ref):
        assert bitwise_equal(np.asarray(seq_dot(x, y)), np.asarray(ref))
    else:
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            seq_dot(x, y)


@given(st.lists(st.tuples(entries, entries), max_size=10), st.sampled_from([np.float64, np.float32]))
def test_unchecked_dot_is_seq_dot(pairs, dtype):
    with np.errstate(all="ignore"):
        x = np.array([a for a, _ in pairs], dtype=dtype)
        y = np.array([b for _, b in pairs], dtype=dtype)
    try:
        want = seq_dot(x, y)
    except NonFiniteError:
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            _dot(x, y)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # the errstate its callers hold
            got = _dot(x, y)
        assert got.dtype == want.dtype and bitwise_equal(np.asarray(got), np.asarray(want))


def test_seq_dot_does_not_skip_nan_times_zero():
    with pytest.raises(NonFiniteError):
        seq_dot(np.array([np.nan, 1.0]), np.array([0.0, 2.0]))


def seq_dot_reference(x, y):
    """Literal term-by-term fold of fl(sum fl(x_i*y_i)); oracle for seq_dot."""
    acc = x.dtype.type(0.0)
    for i in range(len(x)):
        acc = acc + x[i] * y[i]
    return acc


def _matvec_reference(A, x):
    dt = A.dtype.type
    y = np.empty(A.shape[0], dtype=A.dtype)
    for r in range(A.shape[0]):
        acc = dt(0.0)
        for c in range(A.shape[1]):
            acc = acc + A[r, c] * x[c]
        y[r] = acc
    return y


@given(st.integers(1, 6), st.integers(0, 10))
def test_matvec_matches_rowwise_reference(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    A = g.uniform(-4, 4, (n, n))
    x = g.uniform(-4, 4, n)
    x[g.integers(0, n)] = 0.0  # exercise the zero-column skip
    assert bitwise_equal(matvec(A, x), _matvec_reference(A, x))


@given(st.integers(1, 6), st.integers(0, 10), st.sampled_from([1.0, -1.0, 3.5]))
def test_matvec_single_nonzero_fast_path(n, seed, s):
    g = np.random.Generator(np.random.Philox(key=seed))
    A = g.uniform(-4, 4, (n, n))
    x = np.zeros(n)
    x[g.integers(0, n)] = s
    assert bitwise_equal(matvec(A, x), _matvec_reference(A, x))


def test_matvec_and_matmat_scan_the_columns_x_skips():
    A = np.eye(3)
    A[1, 0] = np.nan
    x = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NonFiniteError):
        matvec(A, x)
    with pytest.raises(NonFiniteError):
        matmat(A, x[:, None])


def test_matvec_signed_zero_renormalization():
    # a signed-identity column times a negative entry must not leave -0 rows
    A = np.array([[0.0, -2.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    y = matvec(A, x)
    assert y[1] == 0.0 and not np.signbit(y[1])


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([np.float64, np.float32]), st.sampled_from(["C", "F", "view"]), st.data())
def test_unchecked_matvec_with_one_nonzero_is_the_rowwise_fold(rows, cols, dtype, layout, data):
    """One nonzero x_j of either sign, +-1 among them, and A with zeros of
    both signs, in C order, in Fortran order or as the transposed view of a
    C-order array: the column sweep's +0 + fl(a * x_j) has the reference's
    bits, so a -0 product comes out +0, and an overflowed product raises.
    The one-column path and the batch (the same x with its zeros made 1)
    both return a fresh, writeable array: writing into it leaves A alone."""
    huge = st.sampled_from([3e38, -2e38] if dtype == np.float32 else [1e200, -1e300])  # finite in dtype
    with np.errstate(all="ignore"):
        a = np.array(data.draw(st.lists(st.one_of(finite, huge), min_size=rows * cols, max_size=rows * cols)), dtype=dtype)
        A = {"C": a.reshape(rows, cols), "F": np.asfortranarray(a.reshape(rows, cols)), "view": a.reshape(cols, rows).T}[layout]
        x = np.zeros(cols, dtype=dtype)
        x[data.draw(st.integers(0, cols - 1))] = data.draw(st.one_of(st.sampled_from([1.0, -1.0]), huge, finite.filter(lambda t: dtype(t) != 0)))
    before = A.copy()
    for x in (x, np.where(x == 0, dtype(1.0), x)):
        with np.errstate(all="ignore"):
            want = _matvec_reference(A, x)
        if not np.isfinite(want).all():
            with pytest.raises(NonFiniteError, match=r"^non-finite result in matvec$"), np.errstate(over="ignore", invalid="ignore"):
                _matvec(A, x)
            continue
        y = _matvec(A, x)
        assert bitwise_equal(y, want) and y.flags.writeable and not np.shares_memory(y, A)
        y[:] = dtype(7.0)
        assert bitwise_equal(A, before)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float64, np.float32]), st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_coordinate_matvec_skips_its_scan_only_where_no_product_can_overflow(dtype, rows, cols, given_c, data):
    """x = s e_c on a finite A whose entries are the largest finite value,
    subnormal, +-0 or rough.  For |s| <= 1 every product is at most |a| in
    magnitude, so the column sweep is finite and the unscanned return has its
    bits.  For |s| > 1 (overflowing or not) and a NaN or infinite s, _matvec
    raises its NonFiniteError exactly where the sweep is not finite.  c is
    passed, or found by _matvec's own scan of x."""
    fi = np.finfo(dtype)
    big, tiny = float(fi.max), float(fi.smallest_subnormal)
    entries = st.one_of(rough, st.sampled_from([big, -big, tiny, -tiny, 0.0, -0.0]))
    A = np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=dtype).reshape(rows, cols)
    edges = [1.0, -1.0, 0.5, tiny, -float(np.nextafter(dtype(1), dtype(0))), float(np.nextafter(dtype(1), dtype(2))), -2.0, big, np.nan, np.inf, -np.inf]
    s = dtype(data.draw(st.one_of(st.sampled_from(edges), rough)))
    c = data.draw(st.integers(0, cols - 1))
    x = np.zeros(cols, dtype=dtype)
    x[c] = s
    with np.errstate(all="ignore"):
        want = _matvec_reference(A, x)
    assert np.isfinite(want).all() or not abs(s) <= 1
    with np.errstate(over="ignore", invalid="ignore"):  # the errstate its callers hold
        if np.isfinite(want).all():
            assert bitwise_equal(_matvec(A, x, c if given_c else -1), want)
        else:
            with pytest.raises(NonFiniteError, match=r"^non-finite result in matvec$"):
                _matvec(A, x, c if given_c else -1)


def test_norm2_of_signed_identity_column_is_exact():
    v = np.zeros(7)
    v[3] = -2.5
    r = norm2(v)
    assert r == 2.5 and isinstance(r, float)
    v32 = v.astype(np.float32)
    r32 = norm2(v32)
    assert r32 == np.float32(2.5) and r32.dtype == np.float32


@given(vecs)
def test_norm2_matches_fraction_oracle(xs):
    x = np.array(xs)
    exact = sum(Fraction(v) * Fraction(v) for v in xs)
    got = norm2(x)
    assert abs(Fraction(got) ** 2 - exact) <= Fraction(8 * len(xs)) * Fraction(2) ** -52 * max(
        exact, Fraction(1)
    )


def test_frobenius_norm_zero_matrix_is_positive_zero():
    r = frobenius_norm(np.zeros((3, 3)))
    assert r == 0.0 and not np.signbit(np.float64(r))


def test_guard_interval():
    assert BINARY64.in_guard(1.0)
    assert not BINARY64.in_guard(0.0)
    assert not BINARY64.in_guard(2.0**501)
    assert BINARY32.in_guard(np.float32(2.0**-59))
    assert not BINARY32.in_guard(np.float32(2.0**61))


def _fold(terms, dtype):
    """The sequential sum every kernel must realize: ((+0 + t_0) + t_1) + ..."""
    acc = dtype(0.0)
    for t in terms:
        acc = acc + t
    return acc


def _same_sum(got, want):
    return np.isnan(want) and np.isnan(got) or bitwise_equal(np.asarray(got), np.asarray(want))


# Full 53-bit mantissas over a range of exponents: their products and sums
# round, so a sum taken in another order gives other bits.
rough = st.builds(lambda m, e, s: s * m * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(-40, 40), st.sampled_from([-1.0, 1.0]))
finite = st.one_of(rough, st.sampled_from([0.0, -0.0, 5e-324, -1e-45, 1e-40, 1.5, -0.75]))
# values that make a product or a sum overflow, or a product NaN
hazards = st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -2e38, 1e200, -1e300])


@st.composite
def products(draw, length=None, dtype=None):
    """Products x_i * y_i in one precision: rounding ones among +-0 and
    subnormals, and now and then an overflowing or NaN one."""
    dtype = dtype or draw(st.sampled_from([np.float64, np.float32]))
    n = length if length is not None else draw(st.integers(1, 24))
    x = draw(st.lists(finite, min_size=n, max_size=n))
    y = draw(st.lists(finite, min_size=n, max_size=n))
    for pos, value in draw(st.lists(st.tuples(st.integers(0, n - 1), hazards), max_size=2)):
        x[pos] = value
    with np.errstate(all="ignore"):
        return np.array(x, dtype=dtype) * np.array(y, dtype=dtype), dtype


@settings(suppress_health_check=[HealthCheck.too_slow])  # products() draws slowly on a loaded machine
@given(products())
def test_accumulate_is_the_sequential_fold(case):
    # Gate on numpy: np.add.accumulate must add strictly left to right.  If a
    # release ever sums it pairwise or reordered, seq_dot, norm2 and _gram
    # lose their bits, and this fails.
    t, dtype = case
    with np.errstate(all="ignore"):
        want = _fold(t, dtype)
        assert _same_sum(np.add.accumulate(t)[-1] + dtype(0.0), want)


def _terms(rows, cols, dtype, seed):
    """A rows x cols C-order array of terms: rough mantissas over a range of
    exponents, about one in five replaced by +-0, a subnormal or a short
    value, and up to two hazards."""
    g = np.random.default_rng(seed)
    T = np.ldexp(g.integers(2**52, 2**53, (rows, cols)) * g.choice([-1.0, 1.0], (rows, cols)), g.integers(-92, -11, (rows, cols)))
    few = g.random((rows, cols)) < 0.2
    T[few] = g.choice([0.0, -0.0, 5e-324, -1e-45, 1e-40, 1.5, -0.75], few.sum())
    if T.size:
        T.flat[g.integers(0, T.size, g.integers(0, 3))] = g.choice([np.nan, np.inf, -np.inf, 3e38, -2e38, 1e200, -1e300])
    with np.errstate(all="ignore"):
        return T.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(2, 6), st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
@example(300, 2, np.float64, 0)
@example(300, 3, np.float32, 1)
def test_reduce_down_the_slow_axis_is_the_row_loop(rows, cols, dtype, seed):
    # Gate on numpy: np.add.reduce sums pairwise "only along the fast axis in
    # memory" (np.sum's docstring).  On a C-order T with at least 2 columns
    # axis 0 is the slow axis, so reduce(T, axis=0) must add row after row.
    # fp._fold relies on it, and with it _matvec and _gram; if a release
    # sums the slow axis in another order, this fails.
    T = _terms(rows, cols, dtype, seed)
    acc = np.zeros(cols, dtype=dtype)
    with np.errstate(all="ignore"):
        for row in T:
            acc = acc + row
        got = np.add.reduce(T, axis=0) + dtype(0.0)
    for g, w in zip(got, acc):
        assert _same_sum(g, w)


_LAYOUTS = {
    "vector": lambda T: T[:, 0],
    "C": lambda T: T,
    "Fortran": np.asfortranarray,
    "transposed view": lambda T: np.ascontiguousarray(T.T).T,
    "column slice": lambda T: np.pad(T, ((0, 0), (1, 1)))[:, 1:-1],
}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 300), st.integers(1, 4), st.sampled_from(sorted(_LAYOUTS)), st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
@example(300, 1, "C", np.float64, 0)  # one column: axis 0 is the fast axis
@example(300, 3, "Fortran", np.float32, 0)
@example(300, 2, "transposed view", np.float64, 1)
@example(300, 4, "column slice", np.float32, 2)
def test_fp_fold_on_every_layout_is_the_literal_plus_zero_started_loop(n, cols, layout, dtype, seed):
    """fp._fold on C and Fortran order, a transposed view and a strided
    column slice, n crossing numpy's pairwise blocks of 8 and 128: the
    reduce branch and the accumulate branch both give the loop's bits."""
    T = _terms(n, cols, dtype, seed)
    t = _LAYOUTS[layout](T)
    with np.errstate(all="ignore"):
        got = fp._fold(t)
        want = [_fold(T[:, j], dtype) for j in range(cols if t.ndim == 2 else 1)]
    assert np.shape(got) == t.shape[1:] and np.asarray(got).dtype == dtype
    for g, w in zip(np.atleast_1d(got), want):
        assert _same_sum(g, w)


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 24), st.integers(1, 4), st.booleans(), st.sampled_from([np.float64, np.float32]), st.data())
def test_fp_fold_is_the_literal_plus_zero_started_loop(n, cols, matrix, dtype, data):
    """fp._fold down axis 0 of a vector (a scalar) or of an n x cols matrix
    (one fold per column), n = 0 included, against the literal loop."""
    T = np.stack([data.draw(products(n, dtype))[0] for _ in range(cols)], axis=1) if n else np.zeros((0, cols), dtype=dtype)
    t = T if matrix else T[:, 0]
    with np.errstate(all="ignore"):
        got = fp._fold(t)
        want = [_fold(T[:, j], dtype) for j in range(cols if matrix else 1)]
    assert np.shape(got) == ((cols,) if matrix else ())
    assert np.asarray(got).dtype == dtype
    for g, w in zip(np.atleast_1d(got), want):
        assert _same_sum(g, w)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("terms", [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0, -0.0], [-2.0, 2.0]])
def test_fp_fold_of_signed_zeros_and_cancellations_is_plus_zero(terms, dtype):
    t = np.array(terms, dtype=dtype)
    for got in (fp._fold(t), fp._fold(np.stack([t, -t], axis=1))[1]):
        assert bitwise_equal(np.asarray(got), np.asarray(_fold(t, dtype))) and got == 0 and not np.signbit(got)


@settings(max_examples=50)
@given(st.integers(1, 24), st.integers(1, 4), st.booleans(), st.data())
def test_axis0_accumulate_folds_each_column(m, cols, fortran, data):
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    T = np.stack([data.draw(products(m, dtype))[0] for _ in range(cols)], axis=1)
    if fortran:
        T = np.asfortranarray(T)
    with np.errstate(all="ignore"):
        got = np.add.accumulate(T, axis=0)[-1] + dtype(0.0)
        for j in range(cols):
            assert _same_sum(got[j], _fold(T[:, j], dtype))


@given(st.lists(finite, min_size=1, max_size=40), st.sampled_from([np.float64, np.float32]))
def test_norm2_is_the_root_of_the_sequential_sum_of_squares(xs, dtype):
    x = np.array(xs, dtype=dtype)  # |x_i| < 2^41: no square or sum overflows
    assert bitwise_equal(np.asarray(norm2(x)), np.sqrt(seq_dot_reference(x, x)))


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4), st.sampled_from([np.float64, np.float32]), st.booleans(), st.data())
def test_gram_is_the_table_of_reference_dots(n, kx, ky, dtype, same, data):
    draw = lambda k: data.draw(st.lists(finite, min_size=n * k, max_size=n * k))
    with np.errstate(all="ignore"):
        X = np.array(draw(kx), dtype=dtype).reshape(n, kx)
        for pos, value in data.draw(st.lists(st.tuples(st.integers(0, max(n * kx - 1, 0)), hazards), max_size=1)) if n * kx else ():
            X.flat[pos] = value
        Y = X if same else np.array(draw(ky), dtype=dtype).reshape(n, ky)  # Y is X: the symmetric half
        ref = np.array([[seq_dot_reference(X[:, i], Y[:, j]) for j in range(Y.shape[1])] for i in range(kx)], dtype=dtype).reshape(kx, Y.shape[1])
    if np.all(np.isfinite(ref)):
        assert bitwise_equal(_gram(X, Y), ref)
    else:
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            _gram(X, Y)


operand_layouts = st.sampled_from(["C", "Fortran", "transposed view"])


@given(st.integers(0, 12), st.integers(0, 4), st.integers(0, 4), operand_layouts, operand_layouts, st.booleans(), st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
@example(12, 3, 4, "Fortran", "transposed view", False, np.float64, 0)
@example(12, 4, 4, "transposed view", "C", True, np.float32, 0)
def test_gram_on_every_operand_layout_is_the_table_of_reference_dots(n, kx, ky, x_layout, y_layout, same, dtype, seed):
    """Fortran-order and transposed-view X and Y make Fortran-order product
    tables, which _fold takes through accumulate; C order takes reduce."""
    X = _LAYOUTS[x_layout](_terms(n, kx, dtype, seed))
    Y = X if same else _LAYOUTS[y_layout](_terms(n, ky, dtype, seed + 1))
    with np.errstate(all="ignore"):
        ref = np.array([[seq_dot_reference(X[:, i], Y[:, j]) for j in range(Y.shape[1])] for i in range(kx)], dtype=dtype).reshape(kx, Y.shape[1])
    if np.all(np.isfinite(ref)):
        assert bitwise_equal(_gram(X, Y), ref)
    else:
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            _gram(X, Y)


def test_gram_checks_shapes():
    with pytest.raises(ShapeError):
        _gram(np.ones((3, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        _gram(np.ones((3, 2)), np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        _gram(np.ones(3), np.ones((3, 1)))


def test_norm2_rejects_a_matrix():
    with pytest.raises(ShapeError):
        norm2(np.ones((3, 1)))


# _matvec batches its columns _BLOCK = 64 at a time; 200 columns span four
# batches, with the last one partial.
@st.composite
def matvec_operands(draw):
    """A in C order, in Fortran order or as a transposed view, and a block B
    whose columns are the x's: rough entries with +-0 among them, zeros of x
    at a drawn rate (all of them now and then), and a scale at which some
    products or sums overflow."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rows, cols, q = draw(st.integers(1, 4)), draw(st.integers(0, 200)), draw(st.integers(1, 3))
    emax = np.finfo(dtype).maxexp
    shift = draw(st.sampled_from([0, 0, emax - 44, emax - 24]))  # |A| < 2^(shift+21), |x| < 2^21
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def full_mantissas(shape, zero_rate, shift):
        t = g.integers(2**52, 2**53, shape) * 2.0 ** (g.integers(-20, 21, shape) - 52 + shift)
        return (np.where(g.random(shape) < zero_rate, 0.0, t) * g.choice([-1.0, 1.0], shape)).astype(dtype)

    A = full_mantissas((rows, cols), draw(st.sampled_from([0.0, 0.3])), shift)
    B = full_mantissas((cols, q), draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])), 0)
    layout = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray, lambda M: np.ascontiguousarray(M.T).T]))
    return layout(A), B


@settings(max_examples=100, deadline=None)
@given(matvec_operands())
def test_matvec_and_matmat_are_the_literal_double_loop(operands):
    A, B = operands
    with np.errstate(all="ignore"):
        want = np.stack([_matvec_reference(A, x) for x in B.T], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # the errstate their callers hold
        for x, y in zip(B.T, want.T):
            if np.all(np.isfinite(y)):
                assert bitwise_equal(_matvec(A, x), y)
            else:
                with pytest.raises(NonFiniteError):
                    _matvec(A, x)
        if np.all(np.isfinite(want)):
            assert bitwise_equal(_matmat(A, B), want)
        else:
            with pytest.raises(NonFiniteError):
                _matmat(A, B)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("overflow", ["product", "sum"])
def test_matvec_raises_on_an_overflow_in_the_last_batch(dtype, overflow):
    big = np.finfo(dtype).max / 4
    A = np.ones((2, 140), dtype=dtype)
    x = np.ones(140, dtype=dtype)
    if overflow == "product":
        A[1, 139], x[139] = big, 8  # only the last column's product overflows
    else:
        A[0, 130:] = big  # finite products whose running sum overflows in the third batch
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            _matvec(A, x)
        with pytest.raises(NonFiniteError):
            _matmat(A, x[:, None])


def _mgs_reference(Qt, w, c):
    """The per-row modified Gram-Schmidt loop, term by term: c[i] is the
    literal fold of q_i * w, or NonFiniteError before c[i] is written, and
    then w_j = fl(w_j - fl(c[i] q_i[j])) for every j."""
    for i, q in enumerate(Qt):
        h = seq_dot_reference(q, w)
        if not np.isfinite(h):
            raise NonFiniteError("non-finite dot product")
        c[i] = h
        w = np.array([w[j] - h * q[j] for j in range(len(w))], dtype=w.dtype)
    return w


@st.composite
def mgs_operands(draw):
    """(Qt, w, c) for _mgs.  Qt: r = 0..8 signed, scaled coordinate rows on
    distinct columns, or with a repeated column, or with a second nonzero in
    one row (now and then after a zero row), or dense rows, with +-0 in the
    zero places.  w: rough values with +0 and subnormals, and in a third of
    the draws a -0, an infinity or a NaN.  c: now and then longer than Qt, as
    Lanczos passes a length-k scratch.  Magnitudes reach 2^(maxexp/3), where
    q^2 w overflows while q w does not."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["coordinate"] * 4 + ["repeated", "two_nonzeros", "zero_row", "dense"]))
    r = min(n, draw(st.sampled_from([0, 1, 2, 4, 5, 6, 8])))
    big = 2.0 ** (np.finfo(dtype).maxexp // 3 + 1)
    tiny = float(np.finfo(dtype).smallest_subnormal)
    values = st.one_of(rough, st.sampled_from([1.0, -1.0, 0.5, big, -big, tiny]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Qt = (g.choice([0.0, -0.0], (r, n))).astype(dtype)
    cols = list(g.permutation(n)[:r])
    if kind == "zero_row" and 0 in cols:
        cols[cols.index(0)], cols[0] = cols[0], 0
    if kind == "repeated" and r >= 2:
        cols[draw(st.integers(1, r - 1))] = cols[0]
    with np.errstate(all="ignore"):
        for i, p in enumerate(cols):
            Qt[i, p] = draw(values)
        if kind == "two_nonzeros" and r and n >= 2:
            i = draw(st.integers(0, r - 1))
            Qt[i, (cols[i] + draw(st.integers(1, n - 1))) % n] = draw(values)
        if kind == "zero_row" and 3 <= r < n:
            # r nonzeros in all, on distinct columns, but row 0 has none and
            # row 1 two: neither row has a coordinate
            Qt[0] = 0.0
            Qt[1, max(set(range(n)) - set(cols[1:]))] = draw(values)
        if kind == "dense":
            Qt = np.array(draw(st.lists(values, min_size=r * n, max_size=r * n)), dtype=dtype).reshape(r, n)
        w = np.array(draw(st.lists(st.one_of(rough, st.sampled_from([0.0, tiny, big, -big])), min_size=n, max_size=n)), dtype=dtype)
        if draw(st.sampled_from([False, False, True])):
            w[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-0.0, np.inf, -np.inf, np.nan]))
    c = np.full(r + draw(st.sampled_from([0, 0, 1, 3])), 7.0, dtype=dtype)
    return Qt, w, c


def _mgs_outcome(mgs, Qt, w, c):
    """(returned w or the raised (type, message), c afterwards), as bits."""
    try:
        got = mgs(Qt, w, c)
    except ValueError as exc:
        return (type(exc), str(exc)), _bit_view(c).tolist()
    return (got.dtype, _bit_view(got).tolist()), _bit_view(c).tolist()


def _mgs_case(rows, w, extra=0, dtype=np.float64):
    """(Qt, w, c) of rows and w, with c extra entries longer than Qt."""
    Qt = np.array(rows, dtype=dtype).reshape(len(rows), len(w))
    return Qt, np.array(w, dtype=dtype), np.full(len(rows) + extra, 7.0, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(mgs_operands())
@example(_mgs_case([[0, -1.5, 0], [-0.5, 0, 0]], [0, 2, 3], extra=1))  # -0.5 * +0 is -0; c is longer
@example(_mgs_case([[1, 0, 0], [1, 0, 0]], [1, 2, 3]))  # a repeated column
@example(_mgs_case([[1, 0, 2], [0, 1, 0]], [1, 2, 3]))  # a row with two nonzeros, first ones distinct
@example(_mgs_case([[1, 0, 0], [0, 1, 0]], [1, 2, np.inf]))  # 0 * inf is NaN
@example(_mgs_case([[0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]], [1, 2, 3, 4, 5], extra=2))  # a zero row
@example(_mgs_case([[2, 0, -0.0], [0, 1, 0]], [3, 1, -0.0]))  # 6 * -0 takes w[2] = -0 to +0
@example(_mgs_case([[2.0**342, 0], [0, 1]], [2.0**342, 1]))  # w[0] overflows, then 0 * inf is NaN
@example(_mgs_case([[2.0**43, 0], [0, 1]], [2.0**43, 1], dtype=np.float32))
def test_mgs_is_the_literal_per_row_loop(operands):
    Qt, w, c = operands
    w_before = w.copy()
    with np.errstate(all="ignore"):
        want = _mgs_outcome(_mgs_reference, Qt, w, c.copy())
    p = np.array([fp._coordinate(q) for q in Qt], dtype=int)  # as the loops pass their rows' coordinates
    with np.errstate(over="ignore", invalid="ignore"):  # the errstate its callers hold
        got = _mgs_outcome(lambda Qt, w, c: fp._mgs(Qt, w, c, p), Qt, w, c)
    assert got == want
    assert bitwise_equal(w, w_before)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mgs_takes_the_per_row_loop_on_a_repeated_coordinate(dtype, monkeypatch):
    """Coordinates in distinct columns take the vectorized step, which calls
    no _dot; a coordinate repeated in a column, first or later, runs the loop,
    one _dot per row, with the loop's c and w."""
    calls = []
    monkeypatch.setattr(fp, "_dot", lambda *args: calls.append(args) or _dot(*args))
    for rows, dots in [([[1, 0, 0], [0, 0, -0.5], [0, 2, 0]], 0), ([[1, 0, 0], [0.5, 0, 0]], 2), ([[0, 1, 0], [0, 0, 1], [0, -2, 0]], 3)]:
        Qt, w, c = _mgs_case(rows, [3, -5, 7], dtype=dtype)
        p = np.array([fp._coordinate(q) for q in Qt])
        want = _mgs_outcome(_mgs_reference, Qt, w, c.copy())
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _mgs_outcome(lambda Qt, w, c: fp._mgs(Qt, w, c, p), Qt, w, c) == want
        assert len(calls) == dots, rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("a", [3.0, -5.0, 2.0**-20])
def test_unit_divides_only_the_entry_at_the_coordinate(dtype, a):
    """For a coordinate z, _unit writes out[c] = z_c / ||z|| = +-1 and leaves every
    other entry of out alone: the callers pass a +0 row, whose other entries
    z_j / ||z|| = +0 would already hold.  A NaN row shows a whole-vector divide."""
    z = np.zeros(7, dtype=dtype)
    c = 4
    z[c] = a
    out = np.full(7, np.nan, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # the errstate its callers hold
        nrm, got_c = fp._unit(z, out)
    assert (nrm, got_c) == (abs(a), c)
    assert out[c] == np.sign(a)
    assert np.isnan(np.delete(out, c)).all()
