import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fp import ShapeError, bitwise_equal
from krylovexact.krylov_general import (
    SeriousBreakdownError,
    arnoldi,
    block_lanczos,
    gmres_structured,
    golub_kahan,
    gram_schmidt_qr,
    hessenberg_lstsq,
    nonsym_lanczos,
)
from krylovexact.lanczos import lanczos
from krylovexact.problems import random_nonsym_tridiagonal, random_signed_permutation, random_structured_problem, assemble
from krylovexact.rational import rational_lstsq


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
    T = random_nonsym_tridiagonal(8, 3, positive_beta=False)
    if not np.any(T.beta < 0):
        T = random_nonsym_tridiagonal(8, 5, positive_beta=False)
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


def test_gmres_requires_unit_start():
    prob = random_structured_problem("hessenberg", 5, 0)
    with pytest.raises(ValueError, match="unit norm"):
        gmres_structured(prob.A, 3.0 * prob.v / prob.beta1, 3)
