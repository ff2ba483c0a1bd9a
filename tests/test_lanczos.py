import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylovexact import fp
from krylovexact.cg import CGTrace, cg_hs, cglanczos
from krylovexact.fp import BINARY32, PRECISIONS, NonFiniteError, _matvec, bitwise_equal, bitwise_symmetric, frobenius_norm, norm2, seq_dot, validate_operands
from krylovexact.harness import a_orthogonality_loss
from krylovexact.lanczos import REORTH, VARIANTS, LanczosResult, lanczos
from krylovexact.problems import detect_structure, random_structured_problem
from rebind import rebind
from test_golden_bits import _inputs


def _sym(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    W = g.uniform(-2, 2, (n, n))
    return np.triu(W) + np.triu(W, 1).T


def _lanczos_residual(A, result):
    """||A V_k - V_k T_k - beta_{k+1} v_{k+1} e_k^T||_F in working precision."""
    validate_operands(A, block=result.V)
    k = result.k
    if k == 0:
        return A.dtype.type(0.0)
    V = result.V[:, :k]
    R = np.empty_like(V)
    alphas = result.alpha
    betas = result.beta
    for j in range(k):
        col = _matvec(A, V[:, j])
        col = col - alphas[j] * V[:, j]
        if j > 0:
            col = col - betas[j - 1] * V[:, j - 1]
        if j < k - 1:
            col = col - betas[j] * V[:, j + 1]
        elif result.breakdown is None and result.V.shape[1] > k:
            col = col - betas[k - 1] * result.V[:, k]
        R[:, j] = col
    return frobenius_norm(R)


@given(st.integers(2, 16), st.integers(0, 40), st.sampled_from(["mgs", "cgs"]))
@settings(max_examples=30, deadline=None)
def test_structured_run_is_exact(n, seed, variant):
    prob = random_structured_problem("jacobi", n, seed)
    res = lanczos(prob.A, prob.v, n, variant=variant)
    assert bitwise_equal(res.alpha, prob.T.alpha)
    assert bitwise_equal(res.beta[: n - 1], prob.T.beta)
    assert bitwise_equal(res.V, prob.P.to_dense())
    assert res.breakdown == n
    assert res.beta[n - 1] == 0 and not np.signbit(res.beta[n - 1])


def test_leading_blocks_are_exact_for_every_k():
    prob = random_structured_problem("jacobi", 9, 11)
    for k in range(1, 10):
        res = lanczos(prob.A, prob.v, k)
        assert bitwise_equal(res.alpha, prob.T.alpha[:k])
        assert bitwise_equal(res.V[:, :k], prob.P.to_dense()[:, :k])


def test_residual_is_exact_zero_on_structured_input():
    prob = random_structured_problem("jacobi", 12, 3)
    res = lanczos(prob.A, prob.v, 12)
    r = _lanczos_residual(prob.A, res)
    assert r == 0.0 and not np.signbit(np.float64(r))


def test_scale_equivariance():
    prob = random_structured_problem("jacobi", 8, 5)
    a = lanczos(prob.A, prob.v, 8)
    b = lanczos(prob.A, 4.0 * prob.v, 8)
    assert b.beta1 == 4.0 * a.beta1
    assert bitwise_equal(a.V, b.V)
    assert bitwise_equal(a.alpha, b.alpha)
    assert bitwise_equal(a.beta, b.beta)


def test_binary32_structured_run_is_exact():
    prob = random_structured_problem("jacobi", 10, 7, BINARY32)
    res = lanczos(prob.A, prob.v, 10, variant="cgs")
    assert bitwise_equal(res.alpha, prob.T.alpha)
    assert bitwise_equal(res.V, prob.P.to_dense(np.float32))


def test_double_reorthogonalization_bound():
    n = 60
    A = _sym(n, 2)
    v = np.ones(n)
    res = lanczos(A, v, n, reorth="double")
    k = res.k
    V = res.V[:, :k]
    loss = np.linalg.norm(V.T @ V - np.eye(k))
    assert loss <= 1e3 * 2**-53 * k


def test_general_run_satisfies_three_term_recurrence():
    A = _sym(20, 5)
    v = np.ones(20)
    res = lanczos(A, v, 12)
    assert float(_lanczos_residual(A, res)) <= 100 * 20 * 2**-53 * np.linalg.norm(A)


def test_tridiagonal_accessor():
    prob = random_structured_problem("jacobi", 6, 1)
    res = lanczos(prob.A, prob.v, 6)
    T = res.tridiagonal()
    assert bitwise_equal(T.alpha, prob.T.alpha)
    assert bitwise_equal(T.beta, prob.T.beta)


def test_input_validation():
    A = _sym(4, 0)
    with pytest.raises(ValueError):
        lanczos(A, np.zeros(4), 4)
    with pytest.raises(ValueError):
        lanczos(A, np.ones(4), 5)
    with pytest.raises(ValueError):
        lanczos(np.triu(A), np.ones(4), 2)  # not symmetric
    with pytest.raises(ValueError):
        lanczos(A, np.ones(4), 2, variant="qr")
    with pytest.raises(ValueError):
        lanczos(A, np.ones(4), 2, reorth="partial")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_zero_sign_asymmetry_is_rejected(dtype):
    """A[0, 2] = +0 and A[2, 0] = -0 compare equal but are not the same bits."""
    A = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [-0.0, 1.0, 2.0]], dtype=dtype)
    v = np.zeros(3, dtype=dtype)
    v[0] = 1.0
    with pytest.raises(ValueError, match="^matrix is not bitwise symmetric$"):
        lanczos(A, v, 2)
    assert detect_structure(A, v) is None  # not a structured pair
    A[2, 0] = 0.0
    assert lanczos(A, v, 2).k == 2 and detect_structure(A, v) is not None


def test_finiteness_scan_does_not_grow_with_k(monkeypatch):
    original = fp.require_finite
    scanned = []

    def counting(a, what="input"):
        scanned.append(np.asarray(a).nbytes)
        return original(a, what)

    rebind(monkeypatch, fp, "require_finite", counting)  # every module that binds it, so no scan can bypass the count
    prob = random_structured_problem("jacobi", 12, 4)
    per_run = []
    for k in (2, 12):
        scanned.clear()
        lanczos(prob.A, prob.v, k)
        per_run.append(sum(scanned))
    assert per_run[0] == per_run[1] == prob.A.nbytes + prob.v.nbytes


# Row-major bases: the column-major loops they replaced, kept as references ---


def _reorthogonalize_columns(z, V, upto, passes):
    for _ in range(passes):
        for j in range(upto):
            c = seq_dot(V[:, j], z)
            z = z - c * V[:, j]
    return z


def _lanczos_columns(A, v, k, variant, reorth):
    n = len(A)
    validate_operands(A, v, k=k)
    if not bitwise_equal(A, np.ascontiguousarray(A.T)):
        raise ValueError("matrix is not bitwise symmetric")
    dt = A.dtype.type
    beta1 = norm2(v)
    if beta1 == 0:
        raise ValueError("starting vector's squared norm underflows" if v.any() else "starting vector is zero")
    V = np.zeros((n, k + 1), dtype=A.dtype)
    alphas = []
    betas = []
    vprev = np.zeros(n, dtype=A.dtype)
    V[:, 0] = v / beta1
    beta_i = dt(0.0)
    breakdown = None
    cols = 1
    for i in range(k):
        vi = V[:, i]
        av = _matvec(A, vi)
        if variant == "mgs":
            w = av - beta_i * vprev
            alpha_i = seq_dot(w, vi)
            z = w - alpha_i * vi
        else:
            alpha_i = seq_dot(vi, av)
            z = av - alpha_i * vi
            z = z - beta_i * vprev
        if reorth != "none":
            z = _reorthogonalize_columns(z, V, i + 1, 1 if reorth == "full" else 2)
        alphas.append(alpha_i)
        beta_next = norm2(z)
        betas.append(beta_next)
        if beta_next == 0:
            breakdown = i + 1
            break
        vprev = vi
        V[:, i + 1] = z / beta_next
        beta_i = beta_next
        cols = i + 2
    return LanczosResult(
        V=V[:, :cols].copy(),
        alpha=np.array(alphas, dtype=A.dtype),
        beta=np.array(betas, dtype=A.dtype),
        beta1=beta1,
        breakdown=breakdown,
    )


def _record_step(tr, x, r, p, gamma, delta):
    """Step k >= 1 of a column loop: ||r_k|| first, then x_k, p_k and
    gamma_{k-1} must be finite; copies of the vectors are appended."""
    k, nrm = len(tr.x), norm2(r)
    for what, a in ((f"CG iterate x_{k}", x), (f"CG direction p_{k}", p), (f"CG step gamma_{k - 1}", gamma)):
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"{what} contains a NaN or infinity")
    tr.gammas.append(gamma)
    tr.deltas.append(delta)
    tr.x.append(x.copy())
    tr.r.append(r.copy())
    tr.p.append(p.copy())
    tr.residual_norms.append(nrm)


@np.errstate(over="ignore", invalid="ignore")
def _cglanczos_columns(A, b, kmax):
    n = len(A)
    validate_operands(A, b, k=kmax)
    dt = A.dtype.type
    tr = CGTrace()
    x = np.zeros(n, dtype=A.dtype)
    r = b.copy()
    p = r.copy()
    rho = norm2(b)
    if rho == 0:
        raise ValueError("starting vector's squared norm underflows" if b.any() else "starting vector is zero")
    tr.x.append(x.copy())
    tr.r.append(r.copy())
    tr.p.append(p.copy())
    tr.residual_norms.append(rho)
    tr.rho.append(rho)
    V = np.zeros((n, kmax + 1), dtype=A.dtype)
    V[:, 0] = b / rho
    vprev = np.zeros(n, dtype=A.dtype)
    beta_k = dt(0.0)
    ell_prev = dt(0.0)
    for k in range(1, kmax + 1):
        vk = V[:, k - 1]
        w = _matvec(A, vk) - beta_k * vprev
        alpha_k = seq_dot(w, vk)
        w = w - alpha_k * vk
        beta_next = norm2(w)
        d_k = alpha_k - beta_k * ell_prev
        if d_k <= 0:
            raise ValueError(f"nonpositive pivot d_{k}: matrix is not positive definite")
        ell_k = beta_next / d_k
        if not np.isfinite(ell_k):  # beta_next > 0, so a next step's pivot would be -inf
            if k < kmax:
                raise ValueError(f"nonpositive pivot d_{k + 1}: matrix is not positive definite")
            raise NonFiniteError(f"the trailing multiplier ell_{k} = beta_{k + 1}/d_{k} is not finite")
        rho = ell_k * rho
        x = x + p / d_k
        if beta_next == 0:
            r = np.zeros(n, dtype=A.dtype)
            p = np.zeros(n, dtype=A.dtype)
            tr.exact_termination = True
        else:
            V[:, k] = w / beta_next
            r = rho * V[:, k]
            if k % 2 == 1:
                r = -r
            p = r + (ell_k * ell_k) * p
        tr.d.append(d_k)
        tr.ell.append(ell_k)
        tr.rho.append(rho)
        _record_step(tr, x, r, p, dt(1.0) / d_k, ell_k * ell_k)
        vprev = vk
        beta_k = beta_next
        ell_prev = ell_k
        if tr.exact_termination:
            break
    return tr


@np.errstate(over="ignore", invalid="ignore")
def _cg_hs_columns(A, b, kmax):
    n = len(A)
    validate_operands(A, b, k=kmax)
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")
    x = np.zeros(n, dtype=A.dtype)
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
        _record_step(tr, x, r, p, gamma, delta)
    tr.exact_termination = bool(rr == 0)  # read once, so a zero r at the last allowed step counts
    return tr


def _outcome(f, *args):
    """The result of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def _assert_same(got, want, name="result"):
    """The same raise, or, field by field and item by item, arrays and
    scalars of the same shape, dtype, bits and C order."""
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same(getattr(got, field.name), getattr(want, field.name), field.name)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), name
        for a, b in zip(got, want):
            _assert_same(a, b, name)
    elif isinstance(want, (np.ndarray, np.generic)):
        assert got.shape == want.shape and got.dtype == want.dtype and bitwise_equal(got, want), name
        assert got.flags.c_contiguous and want.flags.c_contiguous, name
    else:
        assert got == want, name


# Full 53-bit mantissas (their products round), signed zeros, scales 2^+-20.
rough = st.builds(lambda m, e, s: s * m * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(-3, 2), st.sampled_from([-1.0, 1.0]))
entry = st.one_of(rough, st.sampled_from([0.0, -0.0]))


@st.composite
def symmetric_case(draw, spd=False):
    """A bitwise symmetric dense matrix and a start v.  The rows and columns
    in a drawn set Z are zero off the diagonal and hold one value c on it, so
    a v on Z gives A v = c v; c = 0, or a v with one nonzero, breaks the run
    down at its first step.  spd adds a dominant diagonal."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(1, 7))
    B = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    A = np.triu(B) + np.triu(B, 1).T
    zero = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    A[zero, :] = 0.0
    A[:, zero] = 0.0
    A[zero, zero] = draw(entry)
    if spd:
        A[np.arange(n), np.arange(n)] = np.abs(A).sum(axis=1) + 1.0
    v = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if zero and draw(st.booleans()):
        v[np.setdiff1d(np.arange(n), zero)] = 0.0
    scale = [2.0 ** draw(st.sampled_from([-20, 0, 20])) for _ in range(2)]
    return (A * scale[0]).astype(dtype), (v * scale[1]).astype(dtype)


# The index edges of the +0-row loop: no step at all, and z = 0 at step 1 (v is an eigenvector).
_NO_STEP = (np.array([[2.0, 1.0], [1.0, 3.0]], dtype=np.float32), np.array([1.0, -1.0], dtype=np.float32))
_EIGEN_START = (np.diag([2.0, 3.0]), np.array([3.0, 0.0]))


@settings(max_examples=80, deadline=None)
@given(symmetric_case(), st.sampled_from(VARIANTS), st.sampled_from(REORTH), st.data())
@example(_NO_STEP, "mgs", "double", 0)
@example(_EIGEN_START, "mgs", "none", 2)
@example(_EIGEN_START, "cgs", "full", 2)
def test_lanczos_rows_match_the_column_loop(case, variant, reorth, data):
    """An explicit example passes k in place of data."""
    A, v = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(lanczos, A, v, k, variant, reorth), _outcome(_lanczos_columns, A, v, k, variant, reorth))


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("reorth", ["full", "double"])
def test_structured_reorthogonalized_run_matches_the_column_loop(precision, variant, reorth):
    """On a Jacobi pair every basis is a signed-coordinate one, so each
    reorthogonalization pass takes _mgs's one vectorized step, into the
    length-k scratch; bits, breakdown and errors stay the column loop's."""
    for n, seed in [(2, 0), (9, 1), (40, 2)]:
        prob = random_structured_problem("jacobi", n, seed, precision)
        for k in (n - 1, n):
            got = _outcome(lanczos, prob.A, prob.v, k, variant, reorth)
            _assert_same(got, _outcome(_lanczos_columns, prob.A, prob.v, k, variant, reorth))
        assert bitwise_equal(got.V, prob.P.to_dense(precision.dtype)) and got.breakdown == n


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("reorth", REORTH)
@pytest.mark.parametrize("structured", [True, False], ids=["structured", "dense"])
def test_lanczos_leaves_its_inputs_alone_and_repeats_its_bits(structured, reorth, variant, precision):
    """Each step writes into _matvec's fresh output and into the next basis
    row, never into A or v: a writeable A and v keep their bits, and a second
    run gives the first run's.  On the structured pair every v_i is +-e_j, so
    a one-column _matvec that returned a view of A would fail both."""
    if structured:
        prob = random_structured_problem("jacobi", 12, 3, precision)
        A, v = prob.A.copy(), prob.v.copy()
    else:
        A = _sym(12, 3).astype(precision.dtype)
        v = np.random.Generator(np.random.Philox(key=4)).uniform(-1, 1, 12).astype(precision.dtype)
    A0, v0 = A.copy(), v.copy()
    first = lanczos(A, v, 12, variant, reorth)
    assert A.flags.writeable and v.flags.writeable
    assert bitwise_equal(A, A0) and bitwise_equal(v, v0)
    _assert_same(lanczos(A, v, 12, variant, reorth), first)
    assert bitwise_equal(A, A0) and bitwise_equal(v, v0)


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("structured", [True, False], ids=["structured", "breakdown-free"])
def test_lanczos_steps_yield_the_result_fields_in_step_order(structured, precision):
    """Record i of _lanczos_steps is (alpha_i, beta_{i+1}, v_{i+1}), from
    (+0, beta_1, v_1), and the generator returns lanczos's result.  The rows
    are kept as yielded, so no later step may write them.  On the structured
    pair the run breaks down at step n = 12, and its last record holds
    beta_13 = +0 and a +0 row, which no result field keeps."""
    if structured:
        prob = random_structured_problem("jacobi", 12, 3, precision)
        A, v, k = prob.A, prob.v, 12
    else:
        A, v, k = _sym(12, 3).astype(precision.dtype), np.ones(12, dtype=precision.dtype), 8
    steps = sys.modules["krylovexact.lanczos"]._lanczos_steps(A, v, k, "mgs", "none")
    records = []
    with np.errstate(over="ignore", invalid="ignore"):  # the errstate its callers hold
        try:
            while True:
                records.append(next(steps))
        except StopIteration as done:
            res = done.value
    _assert_same(res, lanczos(A, v, k))
    assert res.breakdown == (12 if structured else None) and len(records) == res.k + 1
    alpha, beta, rows = (np.array(field) for field in zip(*records))
    zero = np.zeros(1, dtype=A.dtype)
    assert bitwise_equal(alpha, np.concatenate([zero, res.alpha])) and bitwise_equal(beta, np.concatenate([[res.beta1], res.beta]))
    if structured:
        assert bitwise_equal(rows[-1], np.zeros(len(A), dtype=A.dtype))
        rows = rows[:-1]
    assert bitwise_equal(rows, res.V.T)


def _cg_hs_overflow():
    """A binary32 pair on which cg_hs's x_4 overflows while r_4 stays finite."""
    t = 2.0**-20
    A = np.zeros((5, 5), dtype=np.float32)
    A[1, 1] = t
    A[3, 3] = A[3, 4] = A[4, 3] = -t
    return A, np.array([-float.fromhex("0x1.17b6b6p-23"), -t, -t, 0, 0], dtype=np.float32)


# SPD and 1 x 1: the pivot d_1 = 2^-140 is positive, and x_1 = 1/d_1 overflows binary32;
# from b = 2^-20, x_1 = 2^120 is finite and gamma_0 = 1/d_1 overflows alone.
_CGLANCZOS_OVERFLOW = (np.array([[2.0**-140]], dtype=np.float32), np.ones(1, dtype=np.float32))
_CGLANCZOS_GAMMA_OVERFLOW = (_CGLANCZOS_OVERFLOW[0], np.full(1, 2.0**-20, dtype=np.float32))
# k = 1 on the binary32 [[2^-60, 2^10], [2^10, 1]] from 2^-20 e1: ell_1 = 2^70 is finite,
# x_1 = 2^40 and r_1 = +-2^50 e2 are too, and ell_1^2 in p_1 = r_1 + ell_1^2 p_0 overflows.
# ||r_k|| = 1, 0.5, 0: CG terminates exactly at its second and last step.
_CG_TWO_BY_TWO = (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]))
_CGLANCZOS_DIRECTION_OVERFLOW = (np.array([[2.0**-60, 2.0**10], [2.0**10, 1.0]], dtype=np.float32), np.array([2.0**-20, 0.0], dtype=np.float32))


@settings(max_examples=120, deadline=None)
@given(st.one_of(symmetric_case(spd=True), symmetric_case(spd=False)), st.data())
@example(_CGLANCZOS_OVERFLOW, 1)
@example(_CGLANCZOS_GAMMA_OVERFLOW, 1)
@example(_CGLANCZOS_DIRECTION_OVERFLOW, 1)
def test_cglanczos_rows_match_the_column_loop(case, data):
    """On indefinite input the pivot error now comes after the whole Lanczos
    run, not inside it: the same type and message.  An explicit example
    passes k in place of data."""
    A, b = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(cglanczos, A, b, k), _outcome(_cglanczos_columns, A, b, k))


@pytest.mark.parametrize("dtype, n, seed", [(np.float64, 2, 0), (np.float64, 5, 1), (np.float32, 2, 0)])
def test_cglanczos_raises_an_overflowed_multiplier_before_the_vector_block_uses_it(dtype, n, seed):
    """Golden-grid inputs whose subnormal pivot d_1 makes ell_1 = beta_2/d_1
    overflow.  Used by the vector block, ell_1 would raise 'non-finite dot
    product'; the pivot d_2 = alpha_2 - beta_2 ell_1 = -inf raises in its
    place, and with no step to follow, the trailing-multiplier error."""
    mats, v, _, _ = _inputs(dtype, n, seed, "subnormal")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (n, n // 2):
            if k == 1:
                want = (NonFiniteError, "the trailing multiplier ell_1 = beta_2/d_1 is not finite")
            else:
                want = (ValueError, "nonpositive pivot d_2: matrix is not positive definite")
            assert _outcome(cglanczos, mats["sym"], v, k) == _outcome(_cglanczos_columns, mats["sym"], v, k) == want


@settings(max_examples=120, deadline=None)
@given(st.one_of(symmetric_case(spd=True), symmetric_case(spd=False)), st.data())
@example(_cg_hs_overflow(), 4)
@example(_CG_TWO_BY_TWO, 2)  # r_2 = 0 at the last allowed step
@example((_CG_TWO_BY_TWO[0], np.zeros(2)), 0)  # b = 0 is solved before any step
def test_cg_hs_rows_match_the_column_loop(case, data):
    """An explicit example passes k in place of data."""
    A, b = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(cg_hs, A, b, k), _outcome(_cg_hs_columns, A, b, k))


def test_cg_hs_and_cglanczos_read_termination_at_the_last_allowed_step():
    runs = [solver(*_CG_TWO_BY_TWO, 2) for solver in (cg_hs, cglanczos)]
    assert [tr.residual_norms for tr in runs] == [[1.0, 0.5, 0.0]] * 2
    assert [tr.exact_termination for tr in runs] == [True, True]


@pytest.mark.parametrize(
    "variant, case, k, what",
    [
        (cg_hs, _cg_hs_overflow(), 4, "CG iterate x_4"),
        (cglanczos, _CGLANCZOS_OVERFLOW, 1, "CG iterate x_1"),
        (cglanczos, _CGLANCZOS_GAMMA_OVERFLOW, 1, "CG step gamma_0"),
        (cglanczos, _CGLANCZOS_DIRECTION_OVERFLOW, 1, "CG direction p_1"),
    ],
    ids=["cg_hs", "cglanczos", "cglanczos-gamma", "cglanczos-direction"],
)
def test_cg_raises_an_overflowed_iterate_or_step_without_a_warning(variant, case, k, what):
    """Neither pivot rule fires on these inputs; what overflows raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=f"^{what} contains a NaN or infinity$"):
            variant(*case, k)


def test_overflow_raises_without_a_warning_and_restores_errstate():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in VARIANTS:  # the first dot, alpha_1, overflows
            with pytest.raises(NonFiniteError, match="dot product"):
                lanczos(np.full((2, 2), 1e308), np.ones(2), 2, variant)
            assert np.geterr() == before
        huge = np.full((2, 2), float.fromhex("0x1.5p1023"))  # the sum in A p_0 overflows
        for run in (lambda: cglanczos(np.full((2, 2), 1e308), np.ones(2)), lambda: cg_hs(huge, np.ones(2)), lambda: a_orthogonality_loss(np.ones((2, 1)), huge)):
            with pytest.raises(NonFiniteError):
                run()
            assert np.geterr() == before
        for dtype, t in ((np.float64, 1e-310), (np.float32, 1e-40)):  # d_1 = t is subnormal; ell_1 = 1/t overflows
            A = np.array([[t, 1.0], [1.0, 1.0]], dtype=dtype)
            e1 = np.array([1.0, 0.0], dtype=dtype)
            with pytest.raises(ValueError, match="^nonpositive pivot d_2: matrix is not positive definite$"):
                cglanczos(A, e1, 2)
            assert np.geterr() == before
            with pytest.raises(NonFiniteError, match=r"^the trailing multiplier ell_1 = beta_2/d_1 is not finite$"):
                cglanczos(A, e1, 1)  # no pivot follows ell_1
            assert np.geterr() == before
        lanczos(np.eye(3), np.ones(3), 3, reorth="double")
    assert np.geterr() == before
