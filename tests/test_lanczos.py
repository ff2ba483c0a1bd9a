import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact import fp
from krylovexact.cg import CGTrace, cg_hs, cglanczos
from krylovexact.fp import BINARY32, PRECISIONS, NonFiniteError, _matvec, bitwise_equal, bitwise_symmetric, frobenius_norm, norm2, seq_dot, validate_operands
from krylovexact.harness import a_orthogonality_loss
from krylovexact.lanczos import REORTH, VARIANTS, LanczosResult, lanczos
from krylovexact.problems import detect_structure, random_structured_problem
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

    # every module that binds it, so no scan can bypass the count
    for module in [m for name, m in sys.modules.items() if name.startswith("krylovexact")]:
        if getattr(module, "require_finite", None) is original:
            monkeypatch.setattr(module, "require_finite", counting)
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
    validate_operands(A, v, k=k, limit=n)
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


@np.errstate(over="ignore", invalid="ignore")
def _cglanczos_columns(A, b, kmax):
    n = len(A)
    validate_operands(A, b, k=kmax, limit=n)
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
    return tr


def _cg_hs_columns(A, b, kmax):
    n = len(A)
    validate_operands(A, b, k=kmax, limit=n)
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
    elif isinstance(want, list):
        assert len(got) == len(want), name
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


@settings(max_examples=80, deadline=None)
@given(symmetric_case(), st.sampled_from(VARIANTS), st.sampled_from(REORTH), st.data())
def test_lanczos_rows_match_the_column_loop(case, variant, reorth, data):
    A, v = case
    k = data.draw(st.integers(0, len(A)))
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


@settings(max_examples=120, deadline=None)
@given(st.one_of(symmetric_case(spd=True), symmetric_case(spd=False)), st.data())
def test_cglanczos_rows_match_the_column_loop(case, data):
    """On indefinite input the pivot error now comes after the whole Lanczos
    run, not inside it: the same type and message."""
    A, b = case
    k = data.draw(st.integers(0, len(A)))
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
def test_cg_hs_rows_match_the_column_loop(case, data):
    A, b = case
    k = data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(cg_hs, A, b, k), _outcome(_cg_hs_columns, A, b, k))


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
