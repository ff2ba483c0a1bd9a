import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylovexact import fp, krylov_general, rational
from krylovexact.cg import cg_hs, cglanczos
from krylovexact.fp import PRECISIONS, NonFiniteError, RangeError, ShapeError, _gram, _matmat, _matvec, bitwise_equal, matmat, matvec, norm2, seq_dot, validate_operands
from krylovexact.krylov_general import (
    ArnoldiResult,
    BlockLanczosResult,
    GolubKahanResult,
    NonsymLanczosResult,
    SeriousBreakdownError,
    arnoldi,
    block_lanczos,
    gmres_structured,
    golub_kahan,
    gram_schmidt_qr,
    hessenberg_lstsq,
    nonsym_lanczos,
)
from krylovexact.lanczos import REORTH, VARIANTS, lanczos
from krylovexact.problems import assemble, extend_deficient, random_signed_permutation, random_structure, random_structured_problem
from krylovexact.rational import nonzero_rows, rat_dot, rat_matvec, rational_lstsq, to_rational_vector
from rebind import rebind
from test_lanczos import _assert_same, _cglanczos_columns, _lanczos_columns, _outcome, _sym


# Arnoldi ------------------------------------------------------------------


@given(st.integers(2, 14), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_arnoldi_structured_exactness(n, seed):
    prob = random_structured_problem("hessenberg", n, seed)
    res = arnoldi(prob.A, prob.v, n)
    assert bitwise_equal(res.H[: res.k], prob.T.entries)
    assert bitwise_equal(res.V, prob.P.to_dense())
    assert res.breakdown == n


def test_arnoldi_on_symmetric_structured_matches_lanczos_bitwise():
    prob = random_structured_problem("jacobi", 10, 4)
    ar = arnoldi(prob.A, prob.v, 10)
    la = lanczos(prob.A, prob.v, 10)
    H = ar.H[: ar.k]
    assert bitwise_equal(np.diag(H), la.alpha)
    assert bitwise_equal(np.diag(H, -1), la.beta[:9])
    assert bitwise_equal(ar.V, la.V)
    # off-tridiagonal entries of H are exactly +0
    for i in range(10):
        for j in range(i + 2, 10):
            assert H[i, j] == 0 and not np.signbit(H[i, j])


def test_arnoldi_general_residual():
    n = 15
    g = np.random.Generator(np.random.Philox(key=8))
    A = g.uniform(-2, 2, (n, n))
    v = g.uniform(-1, 1, n)
    res = arnoldi(A, v, 10)
    # A V_k = V_{k+1} H
    R = A @ res.V[:, :10] - res.V @ res.H
    assert np.linalg.norm(R) <= 100 * n * 2**-53 * np.linalg.norm(A)
    Q = res.V.T @ res.V
    assert np.linalg.norm(Q - np.eye(11)) <= 1e-12


def test_arnoldi_validation():
    with pytest.raises(ValueError):
        arnoldi(np.eye(3), np.zeros(3), 2)
    with pytest.raises(ValueError):
        arnoldi(np.eye(3), np.ones(3), 4)


# nonsymmetric Lanczos -----------------------------------------------------


@given(st.integers(2, 14), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_nonsym_structured_exactness(n, seed):
    prob = random_structured_problem("nonsymtridiag", n, seed)
    res = nonsym_lanczos(prob.A, prob.v, prob.w, n)
    assert bitwise_equal(res.alpha, prob.T.alpha)
    assert bitwise_equal(res.beta, prob.T.beta)
    assert bitwise_equal(res.gamma, prob.T.gamma)
    Pd = prob.P.to_dense()
    assert bitwise_equal(res.V, Pd)
    assert bitwise_equal(res.W, Pd)
    assert res.breakdown == n
    assert res.gamma1 == prob.gamma1 and res.beta1 == prob.beta1


def test_nonsym_negative_superdiagonal_values_still_exact():
    # signed intermediate zeros make the W basis carry -0 entries, so the
    # comparison is by value here, not bitwise
    T = random_structure("nonsymtridiag", 8, 3, positive_beta=False)
    if not np.any(T.beta < 0):
        T = random_structure("nonsymtridiag", 8, 5, positive_beta=False)
    P = random_signed_permutation(8, 1)
    prob = assemble(T, P, 1.5, gamma1=2.0)
    res = nonsym_lanczos(prob.A, prob.v, prob.w, 8)
    assert bitwise_equal(res.alpha, T.alpha)
    assert bitwise_equal(res.beta, T.beta)
    assert bitwise_equal(res.gamma, T.gamma)
    assert np.array_equal(res.V, P.to_dense())
    assert np.array_equal(res.W, P.to_dense())


def test_nonsym_serious_breakdown_names_step():
    A = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(SeriousBreakdownError, match="step 1"):
        nonsym_lanczos(A, v, v.copy(), 3)


def test_nonsym_degenerate_start_rejected():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        nonsym_lanczos(A, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)


# Golub-Kahan ---------------------------------------------------------------


@given(st.integers(2, 14), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_golub_kahan_structured_exactness(n, seed):
    prob = random_structured_problem("lowerbidiag", n, seed)
    res = golub_kahan(prob.A, prob.v, n)
    assert bitwise_equal(res.gamma, prob.T.gamma)
    assert bitwise_equal(res.delta, prob.T.delta)
    assert res.delta1 == prob.beta1
    Pd = prob.P.to_dense()
    assert bitwise_equal(res.S, Pd)
    assert bitwise_equal(res.W, Pd)
    assert res.breakdown == ("delta", n + 1)


def test_golub_kahan_rectangular():
    g = np.random.Generator(np.random.Philox(key=4))
    A = g.uniform(-1, 1, (9, 5))
    v = g.uniform(-1, 1, 9)
    res = golub_kahan(A, v, 5)
    k = len(res.gamma)
    # the recurrence A w_i = gamma_i s_i + delta_{i+1} s_{i+1}
    for i in range(k - 1):
        lhs = A @ res.W[:, i]
        rhs = res.gamma[i] * res.S[:, i] + res.delta[i] * res.S[:, i + 1]
        assert np.allclose(lhs, rhs, atol=1e-13)
    assert np.linalg.norm(res.S.T @ res.S - np.eye(res.S.shape[1])) <= 1e-12
    assert np.linalg.norm(res.W.T @ res.W - np.eye(res.W.shape[1])) <= 1e-12


def test_golub_kahan_validation():
    with pytest.raises(ValueError):
        golub_kahan(np.eye(3), np.zeros(3), 2)
    with pytest.raises(ValueError):
        golub_kahan(np.ones((4, 2)), np.ones(4), 3)


# block Lanczos --------------------------------------------------------------


def test_gram_schmidt_qr_reconstructs():
    g = np.random.Generator(np.random.Philox(key=6))
    R0 = g.uniform(-1, 1, (10, 3))
    for variant in ("mgs", "cgs"):
        Q, R, zero = gram_schmidt_qr(R0, variant)
        assert zero is None
        assert np.all(np.diag(R) > 0)
        assert np.allclose(Q @ R, R0, atol=1e-14)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-13)


def test_gram_schmidt_qr_flags_rank_deficiency():
    R0 = np.zeros((4, 2))
    R0[:, 0] = [1.0, 0.0, 0.0, 0.0]
    _, _, zero = gram_schmidt_qr(R0, "mgs")
    assert zero == 1


@given(st.sampled_from([1, 2, 4]), st.sampled_from(["mgs", "cgs"]), st.integers(0, 20))
@settings(max_examples=25, deadline=None)
def test_block_structured_exactness(p, qr_variant, seed):
    n = 8 if p != 4 else 8
    prob = random_structured_problem("blocktridiag", n, seed, p=p)
    m = prob.d
    res = block_lanczos(prob.A, prob.U1, m, qr_variant=qr_variant)
    for M, Mref in zip(res.M, prob.T.M):
        assert bitwise_equal(M, Mref)
    for B, Bref in zip(res.B, prob.T.B):
        assert bitwise_equal(B, Bref)
    assert bitwise_equal(np.concatenate(res.U, axis=1), prob.P.to_dense())
    assert res.breakdown == m


def test_block_lanczos_general_orthogonality():
    A = _sym(12, 3)
    g = np.random.Generator(np.random.Philox(key=5))
    U1, _, _ = gram_schmidt_qr(g.uniform(-1, 1, (12, 2)), "mgs")
    res = block_lanczos(A, U1, 4)
    U = np.concatenate(res.U, axis=1)
    assert np.linalg.norm(U.T @ U - np.eye(U.shape[1])) <= 1e-12
    assert res.breakdown is None


@pytest.mark.parametrize("structured", [False, True])
def test_block_lanczos_forms_each_a_times_u_once(monkeypatch, structured):
    """One block's worth of A-columns per block step: A U_i gives M_i and then R_{i+1}."""
    if structured:
        prob = random_structured_problem("blocktridiag", 12, 0, p=3)
        A, U1, k = prob.A, prob.U1, prob.d
    else:
        A = _sym(12, 3)
        U1, _, _ = gram_schmidt_qr(np.random.Generator(np.random.Philox(key=5)).uniform(-1, 1, (12, 3)), "mgs")
        k = 3
    cols = []
    real = krylov_general._matmat

    def counting(X, B):
        if X is A:
            cols.append(B.shape[1])
        return real(X, B)

    monkeypatch.setattr(krylov_general, "_matmat", counting)
    res = block_lanczos(A, U1, k)
    assert res.breakdown == (k if structured else None)
    assert cols == [3] * k


_NORMALIZING_ENTRIES = {
    "lanczos": (lambda A, v: lanczos(A, v, 5), "starting vector"),
    "arnoldi": (lambda A, v: arnoldi(A, v, 5), "starting vector"),
    "nonsym_lanczos": (lambda A, v: nonsym_lanczos(A, v, v, 5), "right starting vector"),
    "golub_kahan": (lambda A, v: golub_kahan(A, v, 5), "starting vector"),
    "cglanczos": (lambda A, v: cglanczos(A, v), "starting vector"),
    "gmres_structured": (lambda A, v: gmres_structured(A, v, 5), "starting vector"),
    "cg_hs": (lambda A, v: cg_hs(A, v), "right-hand side"),
}


@pytest.mark.parametrize("name", _NORMALIZING_ENTRIES)
@pytest.mark.parametrize("dtype, scale", [(np.float64, 1e-170), (np.float32, 1e-25)])
def test_a_start_whose_squared_norm_underflows_is_an_error(name, dtype, scale):
    """A nonzero start whose squared norm underflows to +0 is named as such; a
    zero start keeps its own message, and HS-CG its exact termination at x = 0."""
    run, what = _NORMALIZING_ENTRIES[name]
    A = (4 * np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)).astype(dtype)
    v = np.zeros(5, dtype=dtype)
    v[2] = -scale
    with pytest.raises(ValueError, match=f"^{what}'s squared norm underflows$"):
        run(A, v)
    zero = np.full(5, -0.0, dtype=dtype)
    if name == "cg_hs":
        tr = run(A, zero)
        assert tr.exact_termination and tr.steps == 0
    else:
        with pytest.raises(ValueError, match=f"^{what} is zero$"):
            run(A, zero)


def test_block_lanczos_validation():
    with pytest.raises(ValueError):
        block_lanczos(np.eye(6), np.ones((6, 4)), 1)  # 6 not a multiple of 4
    with pytest.raises(ValueError):
        block_lanczos(np.eye(6), np.ones((6, 2)), 4)  # k exceeds block count
    with pytest.raises(ShapeError):
        block_lanczos(np.eye(6), np.ones((6, 0)), 1)  # no columns


# GMRES ----------------------------------------------------------------------


def test_hessenberg_lstsq_matches_rational_oracle():
    g = np.random.Generator(np.random.Philox(key=7))
    m = 6
    H = np.triu(g.uniform(-1, 1, (m + 1, m)), -1)
    for j in range(m):
        H[j + 1, j] = g.uniform(0.5, 1.5)
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    y = hessenberg_lstsq(H, rhs)
    ye = [float(q) for q in rational_lstsq(H, rhs)]
    assert np.allclose(y, ye, rtol=1e-11, atol=1e-13)


def test_gmres_witness_identity_on_structured_input():
    prob = random_structured_problem("hessenberg", 12, 2)
    v = prob.v / prob.beta1
    for k in (1, 4, 12):
        res = gmres_structured(prob.A, v, k)
        assert res.x_error_norm == res.y_error_norm


def test_gmres_scales_with_the_starting_vector():
    # rhs = ||v|| e1, and a power-of-two scale is exact in every operation
    prob = random_structured_problem("hessenberg", 8, 0)
    v = prob.v / prob.beta1
    for k in (1, 5, 8):
        a = gmres_structured(prob.A, v, k)
        b = gmres_structured(prob.A, 4.0 * v, k)
        assert bitwise_equal(b.x, 4.0 * a.x) and bitwise_equal(b.y, 4.0 * a.y)
        assert b.x_error_norm == 4.0 * a.x_error_norm and b.y_error_norm == 4.0 * a.y_error_norm
        assert b.breakdown == a.breakdown
    with pytest.raises(ValueError, match="zero"):
        gmres_structured(prob.A, np.zeros(8), 3)


def _error_norm(exact, computed):
    """||exact - computed|| for rational exact, by rational._distance."""
    return rational._distance(*rational._integers_over_lcm(exact), computed)


def test_a_witness_norm_is_the_root_of_its_square_even_where_the_square_overflows():
    third = Fraction(1, 3)
    for e in (0, 300, 511, 512, 600, 1023):  # float(q) overflows from 2^1024 on
        exact = [third * 2**e, Fraction(-3, 7) * 2**e]
        q = sum(x * x for x in exact)
        r = _error_norm(exact, np.zeros(2))
        if e < 512:
            assert r == float(np.sqrt(float(q)))
        assert r == math.ldexp(_error_norm([third, Fraction(-3, 7)], np.zeros(2)), e)
    with pytest.raises(RangeError, match="beyond binary64"):
        _error_norm([Fraction(2**1024)], np.zeros(1))


def _fraction_error_norm(exact, computed):
    """Reference: the former _error_norm, a Fraction dot of the differences."""
    d = [xe - xb for xe, xb in zip(exact, to_rational_vector(computed))]
    q = rat_dot(d, d)
    try:
        return float(np.sqrt(float(q)))
    except OverflowError:
        e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(float(np.sqrt(float(q / 4**e))), e)


@st.composite
def _gmres_inputs(draw):
    """A structured Hessenberg pair (A, v), which breaks down at k = n, or a
    dense random one, whose V is dense; in binary64 or binary32."""
    prec = draw(st.sampled_from(PRECISIONS))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        prob = random_structured_problem("hessenberg", n, seed, prec)
        return prob.A, prob.v
    g = np.random.Generator(np.random.Philox(key=seed))
    return g.uniform(-1, 1, (n, n)).astype(prec.dtype), g.uniform(-1, 1, n).astype(prec.dtype)


_OVERFLOWING_WITNESS = (np.diag([float.fromhex("0x1.bff2ee48e0530p-333"), 1.0]), np.array([1e100, 0.0]))  # run gmres on dense 2 2, --e1 --beta1 1e100


@settings(max_examples=40, deadline=None)
@given(_gmres_inputs())
@example(_OVERFLOWING_WITNESS)
def test_gmres_witness_norms_are_the_fraction_paths(inputs):
    """At every k, both witness norms have the bits of the former Fraction path:
    rat_matvec(nonzero_rows(V), rational_lstsq(H, rhs)) and a Fraction dot."""
    A, v = inputs
    for k in range(1, len(A) + 1):
        res = gmres_structured(A, v, k)
        arn = arnoldi(A, v, k)
        rhs = np.zeros(arn.k + 1, dtype=A.dtype)
        rhs[0] = norm2(v)
        yexact = rational_lstsq(arn.H, rhs)
        xexact = rat_matvec(nonzero_rows(arn.V[:, : arn.k]), yexact)
        want = (_fraction_error_norm(xexact, res.x), _fraction_error_norm(yexact, res.y))
        assert [r.hex() for r in (res.x_error_norm, res.y_error_norm)] == [w.hex() for w in want]
        assert res.breakdown == arn.breakdown


# Row-major bases: the column-major loops they replaced, kept as references ---


def _arnoldi_columns(A, v, k):
    n = len(A)
    validate_operands(A, v, k=k, limit=n)
    nrm = norm2(v)
    if nrm == 0:
        raise ValueError("starting vector's squared norm underflows" if v.any() else "starting vector is zero")
    V = np.zeros((n, k + 1), dtype=A.dtype)
    H = np.zeros((k + 1, k), dtype=A.dtype)
    V[:, 0] = v / nrm
    breakdown = None
    cols = 1
    for j in range(k):
        w = _matvec(A, V[:, j])
        for i in range(j + 1):
            h = seq_dot(V[:, i], w)
            H[i, j] = h
            w = w - h * V[:, i]
        hnext = norm2(w)
        H[j + 1, j] = hnext
        if hnext == 0:
            breakdown = j + 1
            return ArnoldiResult(V[:, : j + 1].copy(), H[: j + 2, : j + 1].copy(), breakdown)
        V[:, j + 1] = w / hnext
        cols = j + 2
    return ArnoldiResult(V[:, :cols].copy(), H, breakdown)


def _nonsym_lanczos_columns(A, v, w, k):
    n = len(A)
    validate_operands(A, v, w, k=k, limit=n)
    At = np.ascontiguousarray(A.T)
    gamma1 = norm2(v)
    if gamma1 == 0:
        raise ValueError("right starting vector's squared norm underflows" if v.any() else "right starting vector is zero")
    V = np.zeros((n, k + 1), dtype=A.dtype)
    W = np.zeros((n, k + 1), dtype=A.dtype)
    V[:, 0] = v / gamma1
    beta1 = seq_dot(w, V[:, 0])
    if beta1 == 0:
        raise ValueError("w^T v_1 = 0: the starting pair is biorthogonally degenerate")
    W[:, 0] = w / beta1
    vprev = np.zeros(n, dtype=A.dtype)
    wprev = np.zeros(n, dtype=A.dtype)
    alphas, betas, gammas = [], [], []
    beta_i = beta1
    gamma_i = gamma1
    breakdown = None
    cols = 1
    for i in range(k):
        vi = V[:, i]
        wi = W[:, i]
        Av = _matvec(A, vi)
        alpha_i = seq_dot(wi, Av)
        alphas.append(alpha_i)
        vnew = Av - alpha_i * vi
        vnew = vnew - beta_i * vprev
        gamma_next = norm2(vnew)
        if gamma_next == 0:
            breakdown = i + 1
            break
        vnext = vnew / gamma_next
        wnew = _matvec(At, wi) - alpha_i * wi
        wnew = wnew - gamma_i * wprev
        beta_next = seq_dot(vnext, wnew)
        if beta_next == 0:
            raise SeriousBreakdownError(f"serious breakdown at step {i + 1}")
        V[:, i + 1] = vnext
        W[:, i + 1] = wnew / beta_next
        gammas.append(gamma_next)
        betas.append(beta_next)
        vprev, wprev = vi, wi
        beta_i, gamma_i = beta_next, gamma_next
        cols = i + 2
    keff = len(alphas)
    return NonsymLanczosResult(
        V=V[:, :cols].copy(),
        W=W[:, :cols].copy(),
        alpha=np.array(alphas, dtype=A.dtype),
        beta=np.array(betas[: keff - 1], dtype=A.dtype),
        gamma=np.array(gammas[: keff - 1], dtype=A.dtype),
        gamma1=gamma1,
        beta1=beta1,
        breakdown=breakdown,
    )


def _golub_kahan_columns(A, v, k):
    validate_operands(A, v, k=k, limit=min(A.shape))
    n, m = A.shape
    At = np.ascontiguousarray(A.T)
    delta1 = norm2(v)
    if delta1 == 0:
        raise ValueError("starting vector's squared norm underflows" if v.any() else "starting vector is zero")
    S = np.zeros((n, k + 1), dtype=A.dtype)
    W = np.zeros((m, k), dtype=A.dtype)
    S[:, 0] = v / delta1
    gammas, deltas = [], []
    delta_i = delta1
    breakdown = None
    scols = 1
    wcols = 0
    for i in range(k):
        t = _matvec(At, S[:, i])
        if i > 0:
            t = t - delta_i * W[:, i - 1]
        else:
            t = t - delta_i * np.zeros(m, dtype=A.dtype)
        gamma_i = norm2(t)
        if gamma_i == 0:
            breakdown = ("gamma", i + 1)
            break
        W[:, i] = t / gamma_i
        wcols = i + 1
        gammas.append(gamma_i)
        u = _matvec(A, W[:, i]) - gamma_i * S[:, i]
        delta_next = norm2(u)
        if delta_next == 0:
            breakdown = ("delta", i + 2)
            break
        deltas.append(delta_next)
        S[:, i + 1] = u / delta_next
        scols = i + 2
        delta_i = delta_next
    kg = len(gammas)
    return GolubKahanResult(
        S=S[:, :scols].copy(),
        W=W[:, :wcols].copy(),
        gamma=np.array(gammas, dtype=A.dtype),
        delta=np.array(deltas[: kg - 1] if kg else [], dtype=A.dtype),
        delta1=delta1,
        breakdown=breakdown,
    )


def _gram_schmidt_qr_columns(R, variant="mgs"):
    n, p = R.shape
    Q = np.zeros((n, p), dtype=R.dtype)
    Rf = np.zeros((p, p), dtype=R.dtype)
    for j in range(p):
        w = R[:, j].copy()
        if variant == "cgs":
            coeffs = _gram(Q[:, :j], R[:, j : j + 1])[:, 0]
            for i in range(j):
                Rf[i, j] = coeffs[i]
                w = w - coeffs[i] * Q[:, i]
        else:
            for i in range(j):
                c = seq_dot(Q[:, i], w)
                Rf[i, j] = c
                w = w - c * Q[:, i]
        nrm = norm2(w)
        Rf[j, j] = nrm
        if nrm == 0:
            return Q, Rf, j
        Q[:, j] = w / nrm
    return Q, Rf, None


def _block_lanczos_columns(A, U1, k, qr_variant="mgs"):
    n, p = len(A), U1.shape[-1] if U1.ndim else 0
    validate_operands(A, block=U1, k=k, limit=n // max(p, 1))
    if p == 0:
        raise ShapeError("starting block has no columns")
    if n % p:
        raise ValueError("n must be a multiple of the block size")
    if qr_variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    Us = [U1.copy()]
    Ms = [_gram(U1, _matmat(A, U1))]
    Bs = []
    Uprev = U1.copy()
    Bprev = np.zeros((p, p), dtype=A.dtype)
    breakdown = None
    for i in range(1, k + 1):
        Ui = Us[-1]
        R = _matmat(A, Ui) - _matmat(Ui, Ms[-1])
        R = R - _matmat(Uprev, np.ascontiguousarray(Bprev.T))
        Q, Bi, zero_col = _gram_schmidt_qr_columns(R, qr_variant)
        if zero_col is not None:
            breakdown = i
            break
        if i == k:
            break
        Us.append(Q)
        Bs.append(Bi)
        Ms.append(_gram(Q, _matmat(A, Q)))
        Uprev = Ui
        Bprev = Bi
    return BlockLanczosResult(tuple(Us), tuple(Ms), tuple(Bs), breakdown)


# Full 53-bit mantissas (their products round), signed zeros, scales 2^+-20.
rough = st.builds(lambda m, e, s: s * m * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(-3, 2), st.sampled_from([-1.0, 1.0]))
entry = st.one_of(rough, st.sampled_from([0.0, -0.0]))


@st.composite
def dense_case(draw, rows=None):
    """A general dense n x m matrix and a start v; some lines of A are zero,
    and v may lie on them, so that A v = 0 (A^T v = 0 when rows is set)
    breaks the run down at its first step."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7)) if rows else n
    A = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    zero = draw(st.lists(st.integers(0, (n if rows else m) - 1), max_size=3, unique=True))
    if rows:
        A[zero, :] = 0.0
    else:
        A[:, zero] = 0.0
    v = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if zero and draw(st.booleans()):
        v[np.setdiff1d(np.arange(n), zero)] = 0.0
    scale = [2.0 ** draw(st.sampled_from([-20, 0, 20])) for _ in range(2)]
    return (A * scale[0]).astype(dtype), (v * scale[1]).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(dense_case(), st.data())
def test_arnoldi_rows_match_the_column_loop(case, data):
    A, v = case
    k = data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(arnoldi, A, v, k), _outcome(_arnoldi_columns, A, v, k))


# The index edges of the +0-row loops, each from e1 (w = v for nonsym_lanczos): no step at all;
# A e1 = e1, so gamma_2 = 0 at step 1; A e1 = e1 + e2 with A^T e1 = e1, so beta_2 = 0 at step 1;
# A^T e1 = 0, so gamma_1 = 0; and A = I, so delta_2 = 0.
_E1 = np.array([1.0, 0.0])
_NO_STEP = (np.array([[2.0, 1.0], [-1.0, 3.0]], dtype=np.float32), np.array([1.0, -1.0], dtype=np.float32))
_LUCKY_AT_1 = (np.array([[1.0, 1.0], [0.0, 1.0]]), _E1)
_SERIOUS_AT_1 = (np.array([[1.0, 0.0], [1.0, 1.0]]), _E1)
_GAMMA_AT_1 = (np.array([[0.0, 0.0], [1.0, 1.0]]), _E1)
_DELTA_AT_2 = (np.eye(2), _E1)


@settings(max_examples=60, deadline=None)
@given(dense_case(), st.booleans(), st.data())
@example(_NO_STEP, True, 0)
@example(_LUCKY_AT_1, True, 2)
@example(_SERIOUS_AT_1, True, 2)
def test_nonsym_lanczos_rows_match_the_column_loop(case, same_start, data):
    """An explicit example passes k in place of data."""
    A, v = case
    w = v.copy() if same_start else np.array(data.draw(st.lists(entry, min_size=len(v), max_size=len(v))), dtype=A.dtype)
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(nonsym_lanczos, A, v, w, k), _outcome(_nonsym_lanczos_columns, A, v, w, k))


@settings(max_examples=60, deadline=None)
@given(dense_case(rows=True), st.data())
@example(_NO_STEP, 0)
@example(_GAMMA_AT_1, 2)
@example(_DELTA_AT_2, 2)
def test_golub_kahan_rows_match_the_column_loop(case, data):
    """An explicit example passes k in place of data."""
    A, v = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, min(A.shape)))
    _assert_same(_outcome(golub_kahan, A, v, k), _outcome(_golub_kahan_columns, A, v, k))


@st.composite
def block_case(draw):
    """A general dense n x n matrix and an n x p starting block, n = m p.
    Some columns of A are zero, and U1 may lie on them, so that A U1 = 0
    breaks the run down at its first QR; U1 may repeat a column."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = m * p
    A = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    zero = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    A[:, zero] = 0.0
    U1 = np.array(draw(st.lists(entry, min_size=n * p, max_size=n * p))).reshape(n, p)
    if zero and draw(st.booleans()):
        U1[np.setdiff1d(np.arange(n), zero), :] = 0.0
    if p > 1 and draw(st.booleans()):
        U1[:, -1] = U1[:, 0]
    scale = [2.0 ** draw(st.sampled_from([-20, 0, 20])) for _ in range(2)]
    return (A * scale[0]).astype(dtype), (U1 * scale[1]).astype(dtype)


# The index edges of the block loop, each from a block of n x 2: no step (k = 0) and one step
# (k = 1) of a dense run; A U_1 = 0, so the QR of R_2 breaks down at its first column; and
# R_3 = [0; 0; B_3] of rank 1 from U_1 = [e1 e2], so the QR of R_3 breaks down at step 2.
_BLOCK_DENSE = (np.array([[2, 1, 0, -1], [1, 3, 1, 0], [0, -1, 2, 1], [1, 0, 1, 4]], dtype=np.float32), np.array([[1, 0], [0, 1], [1, 1], [0, -1]], dtype=np.float32))
_BLOCK_NULL_AT_1 = (np.array([[0, 0, 1, 2], [0, 0, -1, 1], [0, 0, 3, 0], [0, 0, 1, 1.0]]), np.eye(4)[:, :2])
_BLOCK_RANK_1_AT_2 = (
    np.array([[1, 0.5, 1, 0, 0, 0], [0.5, 2, 0, 1, 0, 0], [1, 0, 3, -1, 1, 0], [0, 1, -1, 1, 1, 0], [0, 0, 1, 1, 1, 0], [0, 0, 0, 0, 0, 1]]),  # B_2 = I, B_3 = [1 1; 0 0]
    np.eye(6)[:, :2],
)


@settings(max_examples=80, deadline=None)
@given(block_case(), st.sampled_from(["mgs", "cgs"]), st.data())
@example(_BLOCK_DENSE, "mgs", 0)
@example(_BLOCK_DENSE, "cgs", 1)
@example(_BLOCK_NULL_AT_1, "mgs", 2)
@example(_BLOCK_RANK_1_AT_2, "cgs", 3)
def test_block_lanczos_rows_match_the_column_loop(case, qr_variant, data):
    """An explicit example passes k in place of data."""
    A, U1 = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A) // U1.shape[1]))
    _assert_same(_outcome(block_lanczos, A, U1, k, qr_variant), _outcome(_block_lanczos_columns, A, U1, k, qr_variant))


@pytest.mark.parametrize("k", [0, 2])
def test_block_lanczos_rejects_a_bad_qr_variant_before_any_product(monkeypatch, k):
    """The check of lanczos's variant, with its message, before the first
    A U_1, as lanczos checks its variant before the first step."""
    calls = []
    real = krylov_general._matmat

    def counting(A, B):
        calls.append(B.shape)
        return real(A, B)

    monkeypatch.setattr(krylov_general, "_matmat", counting)
    with pytest.raises(ValueError, match=r"^variant must be one of \('mgs', 'cgs'\)$"):
        block_lanczos(np.eye(4), np.eye(4)[:, :2], k, qr_variant="xyz")
    assert calls == []
    with pytest.raises(ValueError, match=r"^variant must be one of \('mgs', 'cgs'\)$"):
        lanczos(np.eye(4), np.ones(4), k, variant="xyz")


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
def test_structured_arnoldi_and_block_lanczos_match_the_column_loop(precision):
    """Signed-coordinate bases, where Arnoldi's _mgs takes its one vectorized
    step and block QR, which passes no coordinates, the loop: the bits,
    breakdowns and errors of the column loops."""
    for n, seed in [(2, 0), (9, 1), (40, 2)]:
        prob = random_structured_problem("hessenberg", n, seed, precision)
        for k in (n - 1, n):
            _assert_same(_outcome(arnoldi, prob.A, prob.v, k), _outcome(_arnoldi_columns, prob.A, prob.v, k))
    for p, seed in [(2, 3), (3, 4), (4, 5), (6, 6)]:  # the QR of a block of 6 projects up to 5 rows
        prob = random_structured_problem("blocktridiag", 6 * p, seed, precision, p=p)
        for qr_variant in ("mgs", "cgs"):
            got = _outcome(block_lanczos, prob.A, prob.U1, prob.d, qr_variant)
            _assert_same(got, _outcome(_block_lanczos_columns, prob.A, prob.U1, prob.d, qr_variant))
            assert got.breakdown == prob.d


# The Givens least squares against the scalar loop it replaced ---------------


@np.errstate(all="ignore")  # a non-finite y raises below, as in hessenberg_lstsq
def _hessenberg_lstsq_loop(H, rhs):
    """hessenberg_lstsq as a scalar loop: each rotation turns the two rows of R
    entry by entry, and then g[j] and g[j + 1] on their own."""
    m = H.shape[1]
    R = H.copy()
    g = rhs.astype(H.dtype)
    for j in range(m):
        a, b = R[j, j], R[j + 1, j]
        if b == 0:
            continue
        t = fp._norm2(np.array([a, b], dtype=H.dtype))
        c = a / t
        s = b / t
        for col in range(m):
            x, y = R[j, col], R[j + 1, col]
            R[j, col] = c * x + s * y
            R[j + 1, col] = c * y - s * x
        gj = g[j]
        g[j] = c * gj + s * g[j + 1]
        g[j + 1] = c * g[j + 1] - s * gj
    y = np.zeros(m, dtype=H.dtype)
    for i in range(m - 1, -1, -1):
        acc = g[i]
        for j in range(m - 1, i, -1):
            acc = acc - R[i, j] * y[j]
        y[i] = acc / R[i, i]
    fp.require_finite(y, "least-squares solution")
    return y


@st.composite
def hessenberg_case(draw):
    """An (m+1) x m Hessenberg H and a right-hand side; a subdiagonal entry
    may be zero, which skips its rotation, and so may the whole last row."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    m = draw(st.integers(1, 6))
    H = np.triu(np.array(draw(st.lists(entry, min_size=(m + 1) * m, max_size=(m + 1) * m))).reshape(m + 1, m), -1)
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        H[j + 1, j] = 0.0
    if draw(st.booleans()):
        H[m] = 0.0
    rhs = np.array(draw(st.lists(entry, min_size=m + 1, max_size=m + 1)))
    return H.astype(dtype), rhs.astype(dtype)


@settings(max_examples=100, deadline=None)
@given(hessenberg_case())
@example((np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 1.0], [0.0, 0.5, 2.0], [0.0, 0.0, -1.5]]), np.array([1.0, -1.0, 0.5, 0.25])))  # h_21 = 0
@example((np.array([[2.0, 1.0], [-0.75, 3.0], [0.0, 0.0]], dtype=np.float32), np.array([1.0, 0.0, -2.0], dtype=np.float32)))  # zero last row
def test_hessenberg_lstsq_is_the_scalar_givens_loop(case):
    """The bits of y, or the same error, in both precisions."""
    H, rhs = case
    _assert_same(_outcome(hessenberg_lstsq, H, rhs), _outcome(_hessenberg_lstsq_loop, H, rhs))


# Runs that leave the signed-coordinate path partway, against the column loops


@st.composite
def path_changing_case(draw, kind, spd=False):
    """(A, v, w) of a structured `kind` problem (w is None but for
    nonsymtridiag) with one change, or none, that sends a run off the
    signed-coordinate path partway: a chord below T's subdiagonal, a dense
    row (and column, for jacobi), -0 for some +0 entries of the starting
    vectors, or a grade-deficient extension by a dense R.  A is then scaled
    by 2^e, with e up to where a square, a sum or an update overflows."""
    precision = draw(st.sampled_from(PRECISIONS))
    dt = precision.dtype
    n = draw(st.integers(1, 9))
    prob = random_structured_problem(kind, n, draw(st.integers(0, 10**6)), precision, spd=spd)
    A, v, w = prob.A.copy(), prob.v.copy(), None if prob.w is None else prob.w.copy()
    at = prob.P.perm  # at[i] is the coordinate of the run's (i+1)-th vector
    change = draw(st.sampled_from(["none", "chord", "row", "minus_zero", "deficient"]))
    if change == "chord" and n >= 3:
        j = draw(st.integers(0, n - 3))
        i = draw(st.integers(j + 2, n - 1))
        A[at[i], at[j]] = draw(rough)
        if kind == "jacobi":
            A[at[j], at[i]] = A[at[i], at[j]]
    elif change == "row":
        i = at[draw(st.integers(0, n - 1))]
        A[i] = draw(st.lists(entry, min_size=n, max_size=n))
        if kind == "jacobi":
            A[:, i] = A[i]
    elif change == "minus_zero":
        for x in (v, w):
            if x is not None:
                x[(x == 0) & np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = -0.0
    elif change == "deficient":
        m = draw(st.integers(1, 4))
        R = np.array(draw(st.lists(entry, min_size=m * m, max_size=m * m)), dtype=dt).reshape(m, m)
        if kind == "jacobi":
            R = np.triu(R) + np.triu(R, 1).T
        ext = extend_deficient(prob, R)
        A, v, w = ext.A.copy(), ext.v.copy(), None if ext.w is None else ext.w.copy()
    maxexp = np.finfo(dt).maxexp
    A *= dt(2.0 ** draw(st.sampled_from([0, maxexp // 2 - 4, maxexp // 2 - 1, maxexp - 7, maxexp - 5])))  # |A| stays below 2^maxexp
    return A, v, w


def _minus_zero_start(kind, n, seed, spd=False):
    """(A, v, w) of a structured binary64 problem with every +0 of its
    starting vectors turned -0: the zeros of the vectors that the updates
    scale are then -0."""
    prob = random_structured_problem(kind, n, seed, spd=spd)
    v, w = (None if x is None else np.where(x == 0, -0.0, x) for x in (prob.v, prob.w))
    return prob.A.copy(), v, w


def _negative_beta_pair(n, seed):
    """A structured bi-Lanczos (A, v, w) whose T has negative superdiagonal
    entries: those beta_{i+1} < 0 turn w_{i+1}'s +0s into -0."""
    T = random_structure("nonsymtridiag", n, seed)
    assert (T.beta < 0).any()
    prob = assemble(T, random_signed_permutation(n, seed), 1.5, gamma1=2.0)
    return prob.A.copy(), prob.v.copy(), prob.w.copy()


# A chord-free symmetric A, not SPD, scaled by 2^511: d_1 = alpha_1 = +0 fails
# at step 1, before Lanczos's beta_3 square overflows at step 2.
_PIVOT_BEFORE_OVERFLOW = (
    np.array([[0.0, -6.7039039649712985e153, 0.0], [-6.7039039649712985e153, 5.4903850834235280e154, 2.7360236886074094e154], [0.0, 2.7360236886074094e154, 7.8560442453951230e154]]),
    np.array([1.0488769170637204, 0.0, 0.0]),
    None,
)


def _column_loop_outcome(f, *args):
    """_outcome of a column loop, under the errstate the algorithms hold."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _outcome(f, *args)


# An explicit example passes k in place of data.
@settings(max_examples=150, deadline=None)
@given(path_changing_case("jacobi"), st.sampled_from(VARIANTS), st.sampled_from(REORTH), st.data())
@example(_minus_zero_start("jacobi", 7, 0), "mgs", "none", 7)
@example(_minus_zero_start("jacobi", 7, 1), "cgs", "full", 7)
def test_lanczos_off_the_coordinate_path_is_the_column_loop(case, variant, reorth, data):
    A, v, _ = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(lanczos, A, v, k, variant, reorth), _column_loop_outcome(_lanczos_columns, A, v, k, variant, reorth))


@settings(max_examples=60, deadline=None)
@given(path_changing_case("jacobi", spd=True), st.data())
@example(_minus_zero_start("jacobi", 7, 2, spd=True), 7)
@example(_PIVOT_BEFORE_OVERFLOW, 2)
def test_cglanczos_off_the_coordinate_path_is_the_column_loop(case, data):
    A, b, _ = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(cglanczos, A, b, k), _column_loop_outcome(_cglanczos_columns, A, b, k))


@settings(max_examples=100, deadline=None)
@given(path_changing_case("hessenberg"), st.data())
@example(_minus_zero_start("hessenberg", 7, 0), 7)
def test_arnoldi_off_the_coordinate_path_is_the_column_loop(case, data):
    A, v, _ = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(arnoldi, A, v, k), _column_loop_outcome(_arnoldi_columns, A, v, k))


@settings(max_examples=100, deadline=None)
@given(path_changing_case("nonsymtridiag"), st.data())
@example(_minus_zero_start("nonsymtridiag", 7, 0), 7)
@example(_negative_beta_pair(7, 0), 7)
def test_nonsym_lanczos_off_the_coordinate_path_is_the_column_loop(case, data):
    A, v, w = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(nonsym_lanczos, A, v, w, k), _column_loop_outcome(_nonsym_lanczos_columns, A, v, w, k))


@settings(max_examples=100, deadline=None)
@given(path_changing_case("lowerbidiag"), st.data())
@example(_minus_zero_start("lowerbidiag", 7, 0), 7)
def test_golub_kahan_off_the_coordinate_path_is_the_column_loop(case, data):
    A, v, _ = case
    k = data if isinstance(data, int) else data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(golub_kahan, A, v, k), _column_loop_outcome(_golub_kahan_columns, A, v, k))


# (run, its column loop, dtype, A, starting vectors): each run to k = n raises
# at the operation named in its id, mostly on a signed coordinate, where the
# step takes its one-term forms.  In nonsym-beta-update, w_2 = A^T w_1 -
# alpha_1 w_1 overflows off v_2's coordinate, so beta_2 must fold the whole w_2.
# In the *-coordinate-update cases the step's one-entry update itself
# overflows; only bi-Lanczos reaches one, since in Lanczos and Golub-Kahan
# each such update subtracts the value it cancels.
_OVERFLOWS = [
    pytest.param(lambda A, v, k: lanczos(A, v, k, "mgs"), lambda A, v, k: _lanczos_columns(A, v, k, "mgs", "none"), np.float64, [[0, -(2.0**1021)], [-(2.0**1021), 1.5 * 2.0**1022]], ([0, 0.5],), id="lanczos-mgs-beta-square"),
    pytest.param(lambda A, v, k: lanczos(A, v, k, "cgs"), lambda A, v, k: _lanczos_columns(A, v, k, "cgs", "none"), np.float32, [[0, 2.0**125], [2.0**125, 0]], ([-1.5 * 2.0**61, -1.5 * 2.0**61],), id="lanczos-cgs-beta-square"),
    pytest.param(lambda A, v, k: lanczos(A, v, k, "mgs"), lambda A, v, k: _lanczos_columns(A, v, k, "mgs", "none"), np.float64, [[1, 0], [0, 1]], ([0, 2.0**600],), id="lanczos-start-square"),
    pytest.param(arnoldi, _arnoldi_columns, np.float32, [[0, 1.5 * 2.0**64], [2.0**-64, 0]], ([0, 0.5],), id="arnoldi-h-square"),
    pytest.param(golub_kahan, _golub_kahan_columns, np.float32, [[1.5 * 2.0**64, 0], [-1, 0]], ([0, 2],), id="golub-kahan-delta-square"),
    pytest.param(golub_kahan, _golub_kahan_columns, np.float32, [[2, 2.0**64], [-(2.0**64), -(2.0**126)]], ([-2, 0],), id="golub-kahan-gamma-square"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float32, [[-1.5 * 2.0**-65, 0], [-2, 0]], ([-2, 0], [-1.5 * 2.0**-65, 2.0**125]), id="nonsym-alpha-dot"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[0, 0], [2.0**1000, 0]], ([1, 2.0**-60], [0, 1]), id="nonsym-alpha-product"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float32, [[2.0**126, 0], [1.5, -1.5 * 2.0**63]], ([0.5, 0], [1.5, -1.5 * 2.0**61]), id="nonsym-beta-dot"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[-(2.0**1023), 2.0**1022, 1], [0, 2.0**1022, 0], [1, 0, 0]], ([1, 0, 0], [1, 1, 0]), id="nonsym-beta-update"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[2.0**512, 1], [1.5 * 2.0**1021, -1.5 * 2.0**-513]], ([1, 0], [1.5 * 2.0**510, -2]), id="nonsym-gamma-square"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float32, [[-1.5 * 2.0**125, -1], [1.5 * 2.0**126, 2.0**126]], ([0, 1], [-(2.0**62), 3]), id="nonsym-transposed-matvec"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[2.0**1023, 1], [1.5 * 2.0**1021, -(2.0**1023)]], ([0, -3], [-1, 1]), id="nonsym-v-beta-coordinate-update"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float32, [[-(2.0**127), -1.5 * 2.0**126, 0], [1, 2.0**127, 2.0**127], [0, 0, 0]], ([-3, 0, 0], [1.5 * 2.0**126, 2.0**127, 2]), id="nonsym-v-beta-coordinate-update-32"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[2.0**1023, 1.5 * 2.0**1021, 2], [-(2.0**1023), 0, 0], [1.5 * 2.0**1021, -1, 0]], ([-3, 0, 0], [1.5 * 2.0**1021, 1.5 * 2.0**1021, -(2.0**1023)]), id="nonsym-v-alpha-coordinate-update"),
    pytest.param(nonsym_lanczos, _nonsym_lanczos_columns, np.float64, [[-3, 1, 0], [0, 0, 1.5 * 2.0**1021], [2.0**-512, 2.0**-512, 0]], ([0, 1, 0], [1.5 * 2.0**1022, 1.5 * 2.0**1022, -3]), id="nonsym-w-alpha-coordinate-update"),
]


@pytest.mark.parametrize("run, columns, dtype, A, starts", _OVERFLOWS)
def test_an_overflow_raises_the_column_loops_error(run, columns, dtype, A, starts):
    """Every k, the run's result or error is the column loop's."""
    A = np.array(A, dtype=dtype)
    for k in range(len(A) + 1):
        args = (A, *(np.array(x, dtype=dtype) for x in starts), k)
        want = _column_loop_outcome(columns, *args)
        _assert_same(_outcome(run, *args), want)
    assert want[0] is NonFiniteError


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
def test_structured_steps_fold_and_scan_no_whole_vector(monkeypatch, precision):
    """Structured runs at n = 50, to k = n - 1 so that no step breaks down on
    z = 0, carry each vector's coordinate.  Lanczos (every variant and
    reorth) and Arnoldi make no whole-vector _dot fold and no _matvec scan;
    Lanczos, bi-Lanczos and Golub-Kahan no whole-vector update, and they and
    Arnoldi no whole-vector divide, which _unit makes when it finds no
    coordinate and a nonzero norm (bi-Lanczos's w divide is always whole).
    On dense input they make them every step:
    Lanczos folds at its start and twice a step, plus k(k+1)/2 times per
    reorthogonalization pass, and Arnoldi at its start, once a step and
    k(k+1)/2 times in _mgs's loop; each update is whole but the first
    against the +0 v_0 (w_0 in the twin), and each divide is whole.  The
    kernels are patched in every module that binds them (rebind)."""
    n, k = 50, 49
    calls = {"_dot": [], "_matvec": [], "_sub_scaled": [], "_unit": []}  # per call: did it take the whole vector?

    def counting(name, real, whole):  # whole(args, returned): did the call take the whole vector?
        def kernel(*args):
            returned = real(*args)
            calls[name].append(whole(args, returned))
            return returned

        return kernel

    def uncoordinated(at):  # at: the position of the coordinate argument
        return lambda args, _: len(args) <= at or args[at] < 0

    def divided(_, returned):  # _unit returns (||z||, z's coordinate)
        return returned[1] < 0 and returned[0] != 0

    for name, whole in (("_dot", uncoordinated(2)), ("_matvec", uncoordinated(2)), ("_sub_scaled", uncoordinated(3)), ("_unit", divided)):
        rebind(monkeypatch, fp, name, counting(name, getattr(fp, name), whole))

    def run(f, *args, kernels=tuple(calls)):
        """{kernel: (whole-vector calls, calls)} of one run, for the named kernels."""
        for c in calls.values():
            c.clear()
        assert f(*args).breakdown is None
        return {name: (sum(calls[name]), len(calls[name])) for name in kernels}

    dt = precision.dtype
    dense, ones = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n)).astype(dt), np.ones(n, dtype=dt)
    jacobi, hessenberg, nonsym, bidiag = (random_structured_problem(kind, n, 0, precision) for kind in ("jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag"))
    for variant in VARIANTS:
        for passes, reorth in enumerate(REORTH):
            got = run(lanczos, jacobi.A, jacobi.v, k, variant, reorth)
            assert got == {"_dot": (0, 1 + 2 * k), "_matvec": (0, k), "_sub_scaled": (0, 2 * k), "_unit": (0, k)}, (variant, reorth)
            got = run(lanczos, dense + dense.T, ones, k, variant, reorth)
            folds = 1 + 2 * k + passes * k * (k + 1) // 2
            assert got == {"_dot": (folds, folds), "_matvec": (k, k), "_sub_scaled": (2 * k - 1, 2 * k), "_unit": (k, k)}, (variant, reorth)
    folds = 1 + k + k * (k + 1) // 2
    kernels = ("_dot", "_matvec", "_unit")
    assert run(arnoldi, hessenberg.A, hessenberg.v, k, kernels=kernels) == {"_dot": (0, 1 + k), "_matvec": (0, k), "_unit": (0, k)}
    assert run(arnoldi, dense, ones, k, kernels=kernels) == {"_dot": (folds, folds), "_matvec": (k, k), "_unit": (k, k)}
    steps = ("_sub_scaled", "_unit")
    assert run(nonsym_lanczos, nonsym.A, nonsym.v, nonsym.w, k, kernels=steps) == {"_sub_scaled": (0, 4 * k), "_unit": (0, k)}
    assert run(nonsym_lanczos, dense, ones, ones, k, kernels=steps) == {"_sub_scaled": (4 * k - 2, 4 * k), "_unit": (k, k)}
    assert run(golub_kahan, bidiag.A, bidiag.v, k, kernels=steps) == {"_sub_scaled": (0, 2 * k), "_unit": (0, 2 * k)}
    assert run(golub_kahan, dense, ones, k, kernels=steps) == {"_sub_scaled": (2 * k - 1, 2 * k), "_unit": (2 * k, 2 * k)}


def test_overflow_raises_without_a_warning_and_restores_errstate():
    big, ones = np.full((4, 4), 1e308), np.ones(4)  # the sum in A v_1 overflows
    runs = [
        lambda: arnoldi(np.full((3, 3), 1e200), np.ones(3), 3),  # ||w|| overflows
        lambda: arnoldi(big, ones, 2),
        lambda: nonsym_lanczos(big, ones, ones, 2),
        lambda: nonsym_lanczos(np.full((2, 2), 1e308), np.ones(2), np.ones(2), 2),  # w_1^T A v_1 overflows
        lambda: golub_kahan(big, ones, 2),
        *(lambda qr=qr: block_lanczos(big, np.ones((4, 2)), 1, qr) for qr in ("mgs", "cgs")),
        # q_1 = (0.6, 0.8); the update w - r_12 q_1 of the second column overflows
        *(lambda qr=qr: gram_schmidt_qr(np.array([[3.0, 1.7e308], [4.0, -1.7e308]]), qr) for qr in ("mgs", "cgs")),
        lambda: matvec(big, ones),
        lambda: matmat(big, np.ones((4, 2))),
        lambda: hessenberg_lstsq(np.array([[1e-300], [1e-300]]), np.array([1.0, 0.0])),  # the Givens norm underflows to 0
        lambda: hessenberg_lstsq(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0, 0.0])),  # zero pivot
        lambda: gmres_structured(np.diag([0.0, 1.0]), np.array([1.0, 0.0]), 1),  # A v = 0: H = [[0], [0]]
    ]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(NonFiniteError):
                run()
            assert np.geterr() == before
        arnoldi(np.eye(3), np.ones(3), 3)
    assert np.geterr() == before
