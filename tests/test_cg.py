
import numpy as np
import pytest

from krylovexact.cg import cg_hs, cglanczos, ldl
from krylovexact.fp import ShapeError, bitwise_equal
from krylovexact.lanczos import lanczos
from krylovexact.problems import random_jacobi, random_structured_problem
from krylovexact.rational import rational_cg


def _spd(n, seed):
    T = random_jacobi(n, seed, spd=True)
    return T.to_dense()


def test_cg_hs_solves_small_spd():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    tr = cg_hs(A, b)
    x = tr.x[-1]
    assert np.allclose(A @ x, b, rtol=1e-14, atol=1e-14)
    assert tr.residual_norms[-1] <= 1e-14


def test_cg_hs_identity_terminates_in_one_step():
    tr = cg_hs(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert len(tr.gammas) == 1
    assert tr.exact_termination
    assert tr.gammas[0] == 1.0


def test_cg_hs_rejects_indefinite():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        cg_hs(A, np.array([1.0, -1.0]))  # p^T A p = -2 on the first step


def test_cg_hs_coefficients_match_rational_oracle():
    A = _spd(8, 3)
    b = np.ones(8)
    tr = cg_hs(A, b)
    oracle = rational_cg(A, b)
    m = min(len(tr.gammas), len(oracle.gammas))
    assert m >= 6
    for j in range(m):
        exact = float(oracle.gammas[j])
        assert float(tr.gammas[j]) == pytest.approx(exact, rel=1e-10)


def test_ldl_roundtrip_and_pivot_error():
    T = random_jacobi(7, 1, spd=True)
    f = ldl(T.alpha, T.beta)
    # reconstruct L D L^T and compare to T
    n = T.n
    L = np.eye(n)
    for j in range(n - 1):
        L[j + 1, j] = f.ell[j]
    R = L @ np.diag(f.d) @ L.T
    assert np.allclose(R, T.to_dense(), rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="^nonpositive pivot d_2: matrix is not positive definite$"):
        ldl(np.array([1.0, 0.25]), np.array([1.0]))
    # a Lanczos run's trailing beta_{k+1} gives ell_k as well
    res = lanczos(_spd(6, 3), np.ones(6), 4)
    g = ldl(res.alpha, res.beta)
    assert len(g.d) == len(g.ell) == 4
    assert bitwise_equal(g.ell[-1:], res.beta[-1:] / g.d[-1:])
    assert bitwise_equal(ldl(res.alpha, res.beta[:3]).d, g.d)
    for beta in (res.beta[:2], np.ones(5)):
        with pytest.raises(ShapeError):
            ldl(res.alpha, beta)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("solver", [cg_hs, cglanczos])
def test_cg_entries_reject_a_non_symmetric_matrix(solver, dtype):
    A = np.array([[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 4.0]], dtype=dtype)  # diagonally dominant
    with pytest.raises(ValueError, match="^matrix is not bitwise symmetric$"):
        solver(A, np.ones(3, dtype=dtype))


def test_cglanczos_residual_collinear_with_lanczos_vector():
    A = _spd(9, 2)
    b = np.ones(9)
    tr = cglanczos(A, b)
    V = tr.lanczos_V
    for k in range(1, len(tr.rho) - 1):
        r = tr.r[k]
        expect = tr.rho[k] * V[:, k]
        if k % 2 == 1:
            expect = -expect
        assert bitwise_equal(r, expect)


def test_cglanczos_terminates_exactly_on_structured_input():
    prob = random_structured_problem("jacobi", 8, 0, spd=True)
    tr = cglanczos(prob.A, prob.v)
    assert tr.exact_termination
    assert np.all(tr.r[-1] == 0)
    assert tr.residual_norms[-1] == 0


def test_cglanczos_matches_cg_hs_iterates():
    A = _spd(8, 5)
    b = np.ones(8)
    a = cglanczos(A, b)
    h = cg_hs(A, b)
    m = min(len(a.x), len(h.x))
    for k in range(m):
        assert np.allclose(a.x[k], h.x[k], rtol=1e-9, atol=1e-11)


def test_cglanczos_rejects_indefinite():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="pivot"):
        cglanczos(A, np.array([1.0, -1.0]))


def test_energy_error_decreases_in_oracle():
    A = _spd(6, 9)
    oracle = rational_cg(A, np.ones(6))
    for a, b in zip(oracle.energy2, oracle.energy2[1:]):
        assert b < a
