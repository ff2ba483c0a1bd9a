import dataclasses
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact import fp, harness
from krylovexact.fp import BINARY32, BINARY64, NonFiniteError, ShapeError, _matvec, bitwise_equal, frobenius_norm, norm2, seq_dot
from krylovexact.harness import (
    ALGORITHMS,
    MetricSeries,
    RunInputs,
    a_orthogonality_loss,
    compare_structured,
    exactness_check,
    exactness_sweep,
    loss_of_orthogonality,
    sqrt_square_violations,
    sweep_failures,
)
from krylovexact.krylov_general import arnoldi, nonsym_lanczos
from krylovexact.lanczos import lanczos
from krylovexact.problems import JacobiMatrix, assemble, extend_deficient, make_rng, random_signed_permutation, random_structure, random_structured_problem
from rebind import rebind
from test_golden_bits import _feed


def test_metric_series_enforces_increasing_k():
    s = MetricSeries("demo")
    s.add(1, "loss", 0.5)
    s.add(2, "loss", 0.25)
    s.add(1, "other", 3.0)
    with pytest.raises(ValueError):
        s.add(2, "loss", 0.1)
    assert s.rows[0] == (1, "loss", 0.5, np.float64(0.5).hex())
    assert s.max_value("loss") == 0.5


def test_loss_of_orthogonality_identity_is_positive_zero():
    V = np.eye(5)
    g = loss_of_orthogonality(V)
    assert g == 0.0 and not np.signbit(g)


def test_loss_of_orthogonality_rejects_unnormalized_columns():
    V = np.eye(4)
    V[0, 0] = 2.0
    with pytest.raises(ValueError, match="normalized"):
        loss_of_orthogonality(V)


def test_loss_of_orthogonality_signed_identity_columns():
    prob = random_structured_problem("jacobi", 9, 1)
    res = lanczos(prob.A, prob.v, 9)
    assert loss_of_orthogonality(res.V) == 0.0


def test_a_orthogonality_loss():
    A = np.diag([1.0, 2.0, 3.0])
    P = np.array([[1.0], [0.0], [0.0]])
    assert a_orthogonality_loss(P, A) == 0.0
    P2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert a_orthogonality_loss(P2, A) <= 1e-15
    with pytest.raises(ValueError):
        a_orthogonality_loss(P, -A)


def test_sqrt_square_violations_zero_in_guard():
    assert sqrt_square_violations(5000, BINARY64, seed=0) == 0
    assert sqrt_square_violations(5000, BINARY32, seed=0) == 0


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
def test_sqrt_square_violations_checks_at_most_2_20_samples_at_a_time(monkeypatch, precision):
    """Up to 2^20 samples are one draw, the same as before chunking; more are
    drawn and checked in chunks of 2^20, and their counts are summed."""
    checked = []
    real = harness.exact_identity_violations

    def recording(alpha):
        checked.append(alpha.copy())
        counts = real(alpha)
        return {**counts, "sqrt_square": counts["sqrt_square"] + 1}  # one per chunk, to see the sum

    monkeypatch.setattr(harness, "exact_identity_violations", recording)
    assert sqrt_square_violations(1000, precision, seed=3) == 1
    g = make_rng(3)
    emax = int(np.log2(precision.guard_hi)) - 1
    mant, expo = g.uniform(1.0, 2.0, 1000), g.integers(-emax, emax + 1, 1000)
    sign = (2 * g.integers(0, 2, 1000) - 1).astype(np.float64)
    assert bitwise_equal(checked[0], (sign * mant * np.exp2(expo.astype(np.float64))).astype(precision.dtype))
    checked.clear()
    assert sqrt_square_violations(2**21 + 5, precision, seed=3) == 3
    assert [len(a) for a in checked] == [2**20, 2**20, 5]


@pytest.mark.parametrize(
    "algorithm",
    ["lanczos", "deficient", "arnoldi", "bilanczos", "gk", "blocklanczos"],
)
def test_exactness_check_small(algorithm):
    rep = exactness_check(algorithm, 6, seed=2, p=2)
    assert rep.ok, rep.mismatch


def test_a_full_grade_basis_is_compared_without_a_padded_copy(monkeypatch):
    """Only a grade-deficient instance pads P; an n = 1000 Lanczos compare
    would otherwise copy an n x n basis."""

    def no_vstack(*args, **kwargs):
        raise AssertionError("P was padded on a full-grade problem")

    monkeypatch.setattr(np, "vstack", no_vstack)
    for algorithm in ("lanczos", "arnoldi", "bilanczos", "gk", "blocklanczos"):
        assert exactness_check(algorithm, 6, seed=1, p=2).ok
    with pytest.raises(AssertionError, match="full-grade"):
        exactness_check("deficient", 6, seed=1)


def test_exactness_check_binary32():
    rep = exactness_check("lanczos", 8, seed=5, precision=BINARY32)
    assert rep.ok


def test_exactness_sweep_and_failures():
    reports = exactness_sweep("lanczos", sizes=[4, 6], seeds=[0, 1])
    reports += exactness_sweep("arnoldi", sizes=[4, 6], seeds=[0, 1])
    assert len(reports) == 8
    assert sweep_failures(reports) == []


def test_mismatch_label_names_plain_indices():
    prob = random_structured_problem("jacobi", 6, 3)
    res = lanczos(prob.A, prob.v, 6)
    assert compare_structured(prob, "lanczos", res).ok
    alpha = prob.T.alpha.copy()
    alpha[2] = np.nextafter(alpha[2], np.inf)
    off_by_one_ulp = replace(prob, T=JacobiMatrix(alpha, prob.T.beta))
    rep = compare_structured(off_by_one_ulp, "lanczos", res)
    assert not rep.projected_match and rep.basis_match and rep.breakdown_match
    assert rep.mismatch == "alpha[2]"
    V = res.V.copy()
    V[3, 5] = np.nextafter(V[3, 5], np.inf)
    assert compare_structured(prob, "lanczos", replace(res, V=V)).mismatch == "V[3,5]"


def test_a_breakdown_mismatch_names_the_run_s_value_and_the_predicted_one():
    prob = random_structured_problem("jacobi", 6, 3)
    res = lanczos(prob.A, prob.v, 6)
    rep = compare_structured(prob, "lanczos", replace(res, breakdown=None))
    assert rep.projected_match and rep.basis_match and not rep.breakdown_match
    assert rep.mismatch == "breakdown (None, expected 6)"
    assert rep.seed == -1 and exactness_check("lanczos", 6, seed=3).seed == 3


def test_a_run_that_stops_early_is_a_mismatch_not_an_error():
    prob = random_structured_problem("jacobi", 6, 0)
    rep = compare_structured(prob, "lanczos", lanczos(prob.A, prob.v, 5))
    assert not rep.projected_match and not rep.breakdown_match
    assert rep.mismatch == "alpha (shape (5,), expected (6,))"


def test_exactness_check_reports_a_lanczos_that_stops_one_step_short(monkeypatch):
    monkeypatch.setattr(harness, "lanczos", lambda A, v, k, **kwargs: lanczos(A, v, k - 1, **kwargs))
    rep = exactness_check("lanczos", 6, seed=0)
    assert not rep.ok and rep.mismatch == "alpha (shape (5,), expected (6,))"
    assert sweep_failures(exactness_sweep("lanczos", sizes=[6], seeds=[0, 1])) != []


@st.composite
def _full_structured_runs(draw):
    """(entry name, problem, full run): the five structured kinds in both
    precisions, and the grade-deficient extension of each single-vector kind."""
    name = draw(st.sampled_from([name for name, a in ALGORITHMS.items() if a.kind]))
    entry = ALGORITHMS[name]
    precision = draw(st.sampled_from([BINARY64, BINARY32]))
    seed = draw(st.integers(0, 2**16))
    if name == "blocklanczos":
        p = draw(st.integers(1, 3))
        prob = random_structured_problem(entry.kind, p * draw(st.integers(1, 4)), seed, precision, p=p)
    else:
        prob = random_structured_problem(entry.kind, draw(st.integers(1, 9)), seed, precision)
        m = draw(st.integers(0, 4))
        if m:
            W = make_rng(seed).uniform(-4.0, 4.0, (m, m)).astype(precision.dtype)
            prob = extend_deficient(prob, np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T))  # bitwise symmetric, as Lanczos needs
    x = RunInputs(prob.A, prob.v, prob.w, prob.U1)
    return name, prob, entry.run(x, entry.steps(x))


@settings(max_examples=150, deadline=None)
@given(_full_structured_runs())
def test_the_predicted_result_is_the_full_run_bit_for_bit(case):
    """predict builds the run's own dataclass: every field has the run's
    type, shape, dtype and bits, and the breakdown is the run's."""
    name, prob, res = case
    want = ALGORITHMS[name].predict(prob)
    assert type(want) is type(res)
    for f in dataclasses.fields(res):
        got, exp = getattr(res, f.name), getattr(want, f.name)
        assert type(got) is type(exp), f.name
        if f.name == "breakdown":
            assert got == exp
            continue
        parts = zip(got, exp, strict=True) if isinstance(got, tuple) else [(got, exp)]
        for a, b in parts:
            assert type(a) is type(b) and a.dtype == b.dtype and np.shape(a) == np.shape(b) and bitwise_equal(a, b), f.name


@settings(max_examples=200, deadline=None)
@given(_full_structured_runs(), st.data())
def test_one_moved_entry_of_any_field_fails_the_check_with_that_field_s_name(case, data):
    """One entry of one field of the run moved by one ULP, or from +0 to -0,
    is a mismatch named by the field and the entry's index (a tuple of
    blocks is indexed block first), in the field's category."""
    name, prob, res = case
    assert compare_structured(prob, name, res).ok
    field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(res) if f.name != "breakdown" and np.size(getattr(res, f.name))]))
    value = getattr(res, field)
    moved = np.array(value)  # a copy; a tuple of blocks stacks to (blocks, rows, cols)
    flat = moved.reshape(-1)
    zeros = np.flatnonzero((flat == 0) & ~np.signbit(flat))
    if zeros.size and data.draw(st.booleans()):
        i = int(data.draw(st.sampled_from(zeros)))
        flat[i] = -flat[i]
    else:
        i = data.draw(st.integers(0, flat.size - 1))
        flat[i] = np.nextafter(flat[i], data.draw(st.sampled_from([-np.inf, np.inf])))
    new = tuple(moved) if isinstance(value, tuple) else moved if moved.ndim else moved[()]
    rep = compare_structured(prob, name, replace(res, **{field: new}))
    idx = np.unravel_index(i, moved.shape)
    assert rep.mismatch == (f"{field}[{','.join(map(str, idx))}]" if moved.ndim else field)
    basis = field in ("V", "W", "S", "U")
    assert (rep.projected_match, rep.basis_match, rep.breakdown_match) == (basis, not basis, True)


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
def test_the_check_compares_beta1_and_the_terminal_zeros(precision):
    """Lanczos beta1, the terminal beta_{d+1} = +0 and Arnoldi's last H row
    are compared as coefficients: a one-ULP beta1 or a -0 terminal entry is a
    mismatch, and the breakdown still matches."""
    prob = random_structured_problem("jacobi", 6, 4, precision)
    res = lanczos(prob.A, prob.v, 6)
    beta = res.beta.copy()
    beta[5] = -beta[5]
    for bad, label in ((replace(res, beta1=np.nextafter(res.beta1, np.inf)), "beta1"), (replace(res, beta=beta), "beta[5]")):
        rep = compare_structured(prob, "lanczos", bad)
        assert (rep.projected_match, rep.basis_match, rep.breakdown_match, rep.mismatch) == (False, True, True, label)
    prob = random_structured_problem("hessenberg", 6, 4, precision)
    res = arnoldi(prob.A, prob.v, 6)
    H = res.H.copy()
    H[6, 5] = -H[6, 5]
    rep = compare_structured(prob, "arnoldi", replace(res, H=H))
    assert (rep.projected_match, rep.basis_match, rep.breakdown_match, rep.mismatch) == (False, True, True, "H[6,5]")


@pytest.mark.parametrize("sizes, seeds, precisions", [([], [0], (BINARY64,)), ([4], [], (BINARY64,)), ([4], range(-2), (BINARY64,)), ([4], [0], ())])
def test_an_exactness_sweep_over_zero_instances_is_an_error(sizes, seeds, precisions):
    with pytest.raises(ValueError, match="at least one size, one seed and one precision"):
        exactness_sweep("lanczos", sizes, seeds, precisions)


def _replace_kernels(monkeypatch, names, message):
    """Make each named fp kernel raise AssertionError(message), in every
    module that binds it."""

    def stub(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        rebind(monkeypatch, fp, name, stub)


def _forbid_arithmetic(monkeypatch):
    """Make every kernel raise, in every module that binds it, so a check
    that passes this way ran before the first step."""
    names = ("_matvec", "_matmat", "_gram", "_dot", "_norm2", "_mgs", "matvec", "matmat", "seq_dot", "norm2")
    _replace_kernels(monkeypatch, names, "a kernel ran before the operands were checked")


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithm_entry_checks_operands_before_any_step(algorithm, monkeypatch):
    entry = ALGORITHMS[algorithm]
    n = 4
    I = np.eye(n)
    x = RunInputs(np.diag(np.arange(1.0, n + 1)), I[:, 0].copy(), w=I[:, 0].copy(), U1=I[:, :2].copy())
    limit = entry.steps(x)
    entry.run(x, limit)
    _forbid_arithmetic(monkeypatch)
    A = x.A.copy()
    A[n - 1, n - 1] = np.nan  # a column that a one-step run from e1 never reads
    with pytest.raises(NonFiniteError):
        entry.run(replace(x, A=A), 1)
    with pytest.raises(ShapeError):
        entry.run(replace(x, v=x.v.astype(np.float32), w=x.w.astype(np.float32), U1=x.U1.astype(np.float32)), 1)
    with pytest.raises(ShapeError):
        entry.run(replace(x, v=x.v[:-1], w=x.w[:-1], U1=x.U1[:-1]), 1)
    with pytest.raises(ShapeError):  # vectors that are not 1-D, a block that is not 2-D
        entry.run(replace(x, v=x.v[:, None], w=x.w[:, None], U1=x.U1[:, 0]), 1)
    for k in (-1, limit + 1):
        with pytest.raises(ValueError, match="outside"):
            entry.run(x, k)
    with pytest.raises(TypeError):
        entry.run(replace(x, A=x.A.astype(np.int64)), 1)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
@pytest.mark.parametrize("algorithm", sorted(set(ALGORITHMS) - {"gk"}))
def test_a_square_only_algorithm_rejects_a_rectangular_matrix_before_any_step(algorithm, shape, monkeypatch):
    """Every operand but A fits its row count, so only squareness is wrong."""
    rows = shape[0]
    e1 = np.eye(rows)[:, 0]
    x = RunInputs(np.ones(shape) + np.eye(*shape), e1.copy(), w=e1.copy(), U1=e1[:, None].copy())
    _forbid_arithmetic(monkeypatch)
    with pytest.raises(ShapeError):
        ALGORITHMS[algorithm].run(x, 1)


def test_no_recurrence_calls_a_checked_kernel(monkeypatch):
    """The loops call the unchecked kernels; the checked public ones are for
    callers that no entry check stands in front of."""
    n = 6
    g = np.random.Generator(np.random.Philox(key=5))
    M = g.uniform(-1.0, 1.0, (n, n))
    A = M @ M.T + n * np.eye(n)
    A = np.triu(A) + np.triu(A, 1).T  # bitwise symmetric and positive definite
    v = g.uniform(0.5, 1.0, n)
    x = RunInputs(A, v, w=v.copy(), U1=np.ascontiguousarray(np.eye(n)[:, :2]))
    _replace_kernels(monkeypatch, ("norm2", "seq_dot", "matvec", "matmat"), "a recurrence called a checked kernel")
    for entry in ALGORITHMS.values():
        entry.run(x, entry.steps(x))


def _digest(obj):
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


_SYMMETRIC = ("lanczos", "cg-hs", "cglanczos", "blocklanczos")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("algorithm", _SYMMETRIC + ("arnoldi", "bilanczos", "gk"))
def test_an_algorithm_gives_the_same_bits_on_a_c_order_and_a_fortran_order_matrix(algorithm, dtype):
    """_matvec gathers the columns of A; on a dense general n = 70 input,
    each product spans two batches of columns, and the layout of A moves no
    bit of any output field."""
    n = 70
    g = np.random.Generator(np.random.Philox(key=70))
    M = g.uniform(-1, 1, (n, n))
    # bitwise symmetric with spectrum in [0.77, 26.7], so every run takes all k steps; or general
    A = (M + M.T + 14 * np.eye(n) if algorithm in _SYMMETRIC else M).astype(dtype)
    v, w = g.uniform(-1, 1, (2, n)).astype(dtype)
    k = 33 if algorithm == "blocklanczos" else 66  # 66 basis vectors either way
    runs = [ALGORITHMS[algorithm].run(RunInputs(B, v, w=w, U1=np.eye(n, 2, dtype=dtype)), k) for B in (A, np.asfortranarray(A))]
    for field in dataclasses.fields(runs[0]):
        c_order, fortran = (_digest(getattr(r, field.name)) for r in runs)
        assert c_order == fortran, field.name


def test_metric_series_checks_rows_it_was_given():
    s = MetricSeries("demo", rows=[(3, "loss", 0.5, np.float64(0.5).hex())])
    with pytest.raises(ValueError, match="must increase"):
        s.add(3, "loss", 0.25)
    s.add(4, "loss", 0.25)
    s.add(1, "other", 1.0)
    assert [r[0] for r in s.rows] == [3, 4, 1]


def test_metrics_check_operands():
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        a_orthogonality_loss(np.eye(3, dtype=np.float32)[:, :1], A)
    with pytest.raises(ShapeError):
        a_orthogonality_loss(np.ones(3), A)
    with pytest.raises(NonFiniteError):
        loss_of_orthogonality(np.array([[1.0], [np.nan]]))


# The double-loop bodies the metrics had before they used fp._gram: k^2
# seq_dot calls, and k^2 matvecs in the A-orthogonality loss.
def _loss_of_orthogonality_reference(V):
    n, k = V.shape
    tol = 4 * n * (np.finfo(V.dtype).eps / 2)
    for j in range(k):
        if abs(float(norm2(V[:, j])) - 1.0) > tol:
            raise ValueError(f"column {j + 1} is not normalized")
    one = V.dtype.type(1.0)
    E = np.empty((k, k), dtype=V.dtype)
    for i in range(k):
        for j in range(k):
            g = seq_dot(V[:, i], V[:, j])
            E[i, j] = g - one if i == j else g
    return frobenius_norm(E)


def _a_orthogonality_loss_reference(Pdirs, A):
    k = Pdirs.shape[1]
    Pt = np.empty_like(Pdirs)
    for j in range(k):
        pap = seq_dot(Pdirs[:, j], _matvec(A, Pdirs[:, j]))
        if pap <= 0:
            raise ValueError("p^T A p <= 0")
        Pt[:, j] = Pdirs[:, j] / np.sqrt(pap)
    one = A.dtype.type(1.0)
    E = np.empty((k, k), dtype=A.dtype)
    for i in range(k):
        for j in range(k):
            g = seq_dot(Pt[:, i], _matvec(A, Pt[:, j]))
            E[i, j] = g - one if i == j else g
    return frobenius_norm(E)


metric_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 2.0**-30, -(2.0**20)]), st.floats(-4.0, 4.0))
dtypes = st.sampled_from([np.float64, np.float32])


@st.composite
def matrices(draw, square=False):
    n = draw(st.integers(1, 7))
    k = n if square else draw(st.integers(0, n))
    dtype = draw(dtypes)
    return np.array(draw(st.lists(metric_entries, min_size=n * k, max_size=n * k)), dtype=dtype).reshape(n, k)


def _normalized(M, bumps):
    """M's columns over their norms (e_j for a zero column), then some scaled
    by a factor that may fail the normalization check; "big" is 2^(maxexp // 2 + 1),
    whose square overflows."""
    V = M.copy()
    for j in range(M.shape[1]):
        nrm = norm2(M[:, j])
        V[:, j] = M[:, j] / nrm if nrm else np.eye(len(M), dtype=M.dtype)[:, j]
    for j, factor in bumps:
        if j < V.shape[1]:
            V[:, j] *= V.dtype.type(2.0 ** (np.finfo(V.dtype).maxexp // 2 + 1) if factor == "big" else factor)
    return V


_LAYOUTS = {"C": lambda V: V, "Fortran": np.asfortranarray, "transposed view": lambda V: np.ascontiguousarray(V.T).T}


@given(matrices(), st.lists(st.tuples(st.integers(0, 6), st.sampled_from([1 + 2.0**-40, 1 + 2.0**-20, 2.0, 1 - 2.0**-50])), max_size=2), st.sampled_from(sorted(_LAYOUTS)))
def test_loss_of_orthogonality_matches_the_double_loop(M, bumps, layout):
    """V in C order, Fortran order or as a transposed view: the last two make
    Fortran-order product tables, which fp._fold takes through accumulate."""
    V = _LAYOUTS[layout](_normalized(M, bumps))
    try:
        want = _loss_of_orthogonality_reference(V)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            loss_of_orthogonality(V)
        return
    assert bitwise_equal(loss_of_orthogonality(V), want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("big_first", [False, True])
def test_loss_of_orthogonality_raises_what_the_double_loop_raises_first(dtype, big_first):
    # one column is not normalized, the other is finite but its squares overflow
    big = 2.0**600 if dtype == np.float64 else 2.0**70
    cols = [[2.0, 0.0], [big, big]]
    V = np.array(cols[::-1] if big_first else cols, dtype=dtype).T
    with pytest.raises(ValueError) as want:
        _loss_of_orthogonality_reference(V)
    with pytest.raises(type(want.value), match=f"^{want.value}$"):
        loss_of_orthogonality(V)


@given(matrices(square=True), matrices())
def test_a_orthogonality_loss_matches_the_double_loop(B, P):
    n = min(len(B), len(P))
    B, P = B[:n, :n], P[:n, : min(P.shape[1], n)].astype(B.dtype)
    with np.errstate(all="ignore"):
        A = (B.astype(np.float64) @ B.T.astype(np.float64) + n * np.eye(n)).astype(B.dtype)
    try:
        want = _a_orthogonality_loss_reference(P, A)
    except ValueError:
        with pytest.raises(ValueError):
            a_orthogonality_loss(P, A)
        return
    assert bitwise_equal(a_orthogonality_loss(P, A), want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_metrics_on_no_columns_one_column_and_negative_zero_products(dtype):
    # the two columns below have products that are all -0 in every position
    V = np.array([[1.0, -0.0], [-0.0, 1.0], [0.0, -0.0]], dtype=dtype)
    A = np.diag([2.0, 0.5, 4.0]).astype(dtype)
    for k in (0, 1, 2):
        got, want = loss_of_orthogonality(V[:, :k]), _loss_of_orthogonality_reference(V[:, :k])
        assert bitwise_equal(got, want) and got == 0 and not np.signbit(got)
        assert bitwise_equal(a_orthogonality_loss(V[:, :k], A), _a_orthogonality_loss_reference(V[:, :k], A))


# ---------------------------------------------------------------------------
# One gap for every prefix: the figure experiments take the metric of each
# leading block of one V^T V - I (or Ptilde^T A Ptilde - I)


def _fig2_per_prefix():
    """experiment_fig2 as the per-prefix loops over the public metric."""
    A, b = harness._strakos_system()
    tr = harness.cg_hs(A, b)
    series = MetricSeries("fig2")
    V = np.column_stack(tr.r) / np.array(tr.residual_norms)
    for k in range(1, V.shape[1] + 1):
        series.add(k, "hscg_orth_loss", loss_of_orthogonality(V[:, :k]))
    lres = lanczos(A, b, len(b), variant="mgs", reorth="none")
    for k in range(1, lres.k + 1):
        series.add(k, "lanczos_orth_loss", loss_of_orthogonality(lres.V[:, :k]))
    return series


def _fig3_per_prefix():
    """experiment_fig3 as the per-prefix loop over the public metric: prefix k
    takes the nonzero directions among the first k."""
    A, b = harness._strakos_system()
    tr = harness.cglanczos(A, b)
    oracle = harness.rational_cg(A, b)
    series = MetricSeries("fig3")
    kmax = len(tr.x) - 1
    for k in range(1, kmax + 1):
        dirs = [p for p in tr.p[:k] if np.any(p != 0)]
        series.add(k, "a_orth_loss", a_orthogonality_loss(np.column_stack(dirs), A))
        if k < len(oracle.x):
            xk = oracle.x[k]
            dx = [xe - xb for xe, xb in zip(xk, harness.to_rational_vector(tr.x[k]))]
            num = np.sqrt(float(harness.rat_dot(dx, dx)))
            den = np.sqrt(float(harness.rat_dot(xk, xk)))
            series.add(k, "rel_error", num / den if den else 0.0)
        series.add(k, "residual_norm", tr.residual_norms[k])
    return series


@pytest.mark.parametrize("experiment, per_prefix", [(harness.experiment_fig2, _fig2_per_prefix), (harness.experiment_fig3, _fig3_per_prefix)])
def test_each_figure_series_is_the_per_prefix_metric_bit_for_bit(experiment, per_prefix):
    got, want = experiment(), per_prefix()
    assert got.rows == want.rows  # (k, name, value, hex): the hex strings pin the bits, signs of zeros too


def _same_prefix_metrics(gap_of, metric_of, k):
    """Every leading m x m block of gap_of()'s matrix has the norm metric_of(m),
    bit for bit; or gap_of() raises, and the first prefix whose metric raises
    raises the same type and message."""
    try:
        gap = gap_of()
    except (ValueError, NonFiniteError) as e:
        for m in range(k + 1):
            try:
                metric_of(m)
            except (ValueError, NonFiniteError) as first:
                assert type(first) is type(e) and first.args == e.args
                return
        raise AssertionError(f"every prefix passes, but the gap raised {e!r}")
    for m in range(k + 1):
        assert bitwise_equal(frobenius_norm(gap[:m, :m]), metric_of(m)), m


@given(matrices(), st.lists(st.tuples(st.integers(0, 6), st.sampled_from([1 + 2.0**-40, 2.0, 1 - 2.0**-50, "big"])), max_size=2, unique_by=lambda b: b[0]))
def test_each_leading_block_of_the_orthogonality_gap_is_that_prefix_s_loss(M, bumps):
    V = _normalized(M, bumps)
    _same_prefix_metrics(lambda: harness._orthogonality_gap(V), lambda m: loss_of_orthogonality(V[:, :m]), V.shape[1])


@given(matrices(square=True), matrices())
def test_each_leading_block_of_the_a_orthogonality_gap_is_that_prefix_s_loss(B, P):
    n = min(len(B), len(P))
    B, P = B[:n, :n], P[:n, : min(P.shape[1], n)].astype(B.dtype)
    with np.errstate(all="ignore"):
        A = (B.astype(np.float64) @ B.T.astype(np.float64) + n * np.eye(n)).astype(B.dtype)
    _same_prefix_metrics(lambda: harness._a_orthogonality_gap(P, A), lambda m: a_orthogonality_loss(P[:, :m], A), P.shape[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_gaps_on_no_columns_one_column_and_negative_zero_products(dtype):
    """The values that test_metrics_on_no_columns_one_column_and_negative_zero_products
    pins, from the gaps and from each leading block of the two-column gaps."""
    V = np.array([[1.0, -0.0], [-0.0, 1.0], [0.0, -0.0]], dtype=dtype)
    A = np.diag([2.0, 0.5, 4.0]).astype(dtype)
    gap, a_gap = harness._orthogonality_gap(V), harness._a_orthogonality_gap(V, A)
    for k in (0, 1, 2):
        want = _loss_of_orthogonality_reference(V[:, :k])
        for got in (frobenius_norm(harness._orthogonality_gap(V[:, :k])), frobenius_norm(gap[:k, :k])):
            assert bitwise_equal(got, want) and got == 0 and not np.signbit(got)
        want = _a_orthogonality_loss_reference(V[:, :k], A)
        assert bitwise_equal(frobenius_norm(harness._a_orthogonality_gap(V[:, :k], A)), want)
        assert bitwise_equal(frobenius_norm(a_gap[:k, :k]), want)


_METRICS = {"loss": (harness._orthogonality_gap, loss_of_orthogonality), "a_loss": (harness._a_orthogonality_gap, a_orthogonality_loss)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "metric, second, error, message",
    [
        ("loss", lambda big: [2.0, 0.0, 0.0], ValueError, "column 2 is not normalized"),
        ("loss", lambda big: [big, big, 0.0], NonFiniteError, "non-finite dot product"),  # finite entries whose squares overflow
        ("a_loss", lambda big: [0.0, 0.0, 0.0], ValueError, "p^T A p <= 0 for column 2: matrix is not numerically positive definite"),
    ],
)
def test_an_error_at_column_j_keeps_its_type_and_message(dtype, metric, second, error, message):
    """With a bad column 2, the gap raises what the metric of the prefix ending
    there raises, and so does the whole metric; the prefix before it passes."""
    big = 2.0**70 if dtype == np.float32 else 2.0**600
    V = np.array([[1.0, 0.0, 0.0], second(big), [0.0, 0.0, 1.0]], dtype=dtype).T
    gap_of, metric_of = _METRICS[metric]
    args = (np.eye(3, dtype=dtype),) if metric == "a_loss" else ()
    metric_of(V[:, :1], *args)
    for call in (lambda: gap_of(V, *args), lambda: metric_of(V[:, :2], *args), lambda: metric_of(V, *args)):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and info.value.args == (message,)


# ---------------------------------------------------------------------------
# bi-Lanczos on a signed superdiagonal


def _signed_beta_problem(n, seed, precision):
    """An assembled NonsymTridiagonal problem whose superdiagonal has signs
    drawn, with at least one negative entry when n > 1."""
    T = random_structure("nonsymtridiag", n, seed, precision, positive_beta=False)
    if n > 1 and not np.any(T.beta < 0):
        T = replace(T, beta=-T.beta)
    P = random_signed_permutation(n, seed + 1)
    g = make_rng(seed + 2)
    return assemble(T, P, precision.dtype(g.uniform(0.25, 4.0)), gamma1=precision.dtype(g.uniform(0.25, 4.0)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([BINARY64, BINARY32]))
def test_bilanczos_on_a_signed_superdiagonal_matches_its_prediction_bit_for_bit(n, seed, precision):
    """w_{j+1} = wnew / beta_{j+1} turns each +0 of wnew into -0 where beta_{j+1}
    < 0; the prediction has that -0 pattern, and V = P as before."""
    prob = _signed_beta_problem(n, seed, precision)
    res = nonsym_lanczos(prob.A, prob.v, prob.w, n)
    report = compare_structured(prob, "bilanczos", res)
    assert (report.projected_match, report.basis_match, report.breakdown_match, report.mismatch) == (True, True, True, None)
    W = ALGORITHMS["bilanczos"].predict(prob).W
    negative = np.concatenate([[False], prob.T.beta < 0])
    assert np.array_equal(W, prob.P.to_dense(precision.dtype))  # equal values: only signs of zeros move
    assert np.array_equal(np.signbit(W) & (W == 0), (W == 0) & negative)
