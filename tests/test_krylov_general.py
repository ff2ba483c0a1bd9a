import dataclasses
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
from krylovexact.lanczos import VARIANTS, lanczos
from krylovexact.problems import random_signed_permutation, random_structure, random_structured_problem, assemble
from krylovexact.rational import nonzero_rows, rat_dot, rat_matvec, rational_lstsq, to_rational_vector


def _sym(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    W = g.uniform(-2, 2, (n, n))
    return np.triu(W) + np.triu(W, 1).T


# Arnoldi ------------------------------------------------------------------


@given(st.integers(2, 14), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_arnoldi_structured_exactness(n, seed):
    prob = random_structured_problem("hessenberg", n, seed)
    res = arnoldi(prob.A, prob.v, n)
    assert bitwise_equal(res.square(), prob.T.entries)
    assert bitwise_equal(res.V, prob.P.to_dense())
    assert res.breakdown == n


def test_arnoldi_on_symmetric_structured_matches_lanczos_bitwise():
    prob = random_structured_problem("jacobi", 10, 4)
    ar = arnoldi(prob.A, prob.v, 10)
    la = lanczos(prob.A, prob.v, 10)
    H = ar.square()
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
    k = res.k
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


@settings(max_examples=60, deadline=None)
@given(dense_case(), st.booleans(), st.data())
def test_nonsym_lanczos_rows_match_the_column_loop(case, same_start, data):
    A, v = case
    w = v.copy() if same_start else np.array(data.draw(st.lists(entry, min_size=len(v), max_size=len(v))), dtype=A.dtype)
    k = data.draw(st.integers(0, len(A)))
    _assert_same(_outcome(nonsym_lanczos, A, v, w, k), _outcome(_nonsym_lanczos_columns, A, v, w, k))


@settings(max_examples=60, deadline=None)
@given(dense_case(rows=True), st.data())
def test_golub_kahan_rows_match_the_column_loop(case, data):
    A, v = case
    k = data.draw(st.integers(0, min(A.shape)))
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


@settings(max_examples=80, deadline=None)
@given(block_case(), st.sampled_from(["mgs", "cgs"]), st.data())
def test_block_lanczos_rows_match_the_column_loop(case, qr_variant, data):
    A, U1 = case
    k = data.draw(st.integers(0, len(A) // U1.shape[1]))
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
    """Signed-coordinate bases, where _mgs takes its one vectorized step:
    the bits, breakdowns and errors of the column loops."""
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


@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
def test_mgs_projects_a_signed_coordinate_basis_without_the_dot_loop(monkeypatch, precision):
    """fp._dot calls of an Arnoldi run at n = k = 60: one for the start, one
    per step for h_{j+1,j}, and on structured input the loop's projections of
    the first steps, whose r < _MGS_STEP_ROWS rows keep the loop; a dense run
    makes the loop's k(k+1)/2 projections on top."""
    n = k = 60
    calls = []
    real = fp._dot

    def counting(x, y):
        calls.append(len(x))
        return real(x, y)

    monkeypatch.setattr(fp, "_dot", counting)
    prob = random_structured_problem("hessenberg", n, 0, precision)
    assert arnoldi(prob.A, prob.v, k).breakdown == n
    assert len(calls) == 1 + k + sum(range(fp._MGS_STEP_ROWS))
    calls.clear()
    A = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n)).astype(precision.dtype)
    assert arnoldi(A, np.ones(n, dtype=precision.dtype), k).breakdown is None
    assert len(calls) == 1 + k + k * (k + 1) // 2


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
