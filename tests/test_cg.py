
import numpy as np
import pytest

from krylovexact.cg import cg_hs, cglanczos
from krylovexact.fp import bitwise_equal
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


def test_cglanczos_pivots_and_multipliers_factor_t_k():
    """tr.d and tr.ell are the LDL^T factors of the T_k of its Lanczos run,
    with the trailing beta_{k+1} giving a last ell_k."""
    prob = random_structured_problem("jacobi", 7, 1, spd=True)
    tr = cglanczos(prob.A, prob.v)
    n = prob.T.n
    assert len(tr.d) == len(tr.ell) == n and tr.ell[-1] == 0  # beta_{n+1} = +0 at the breakdown
    L = np.eye(n) + np.diag(tr.ell[:-1], -1)
    R = L @ np.diag(tr.d) @ L.T
    assert np.allclose(R, prob.T.to_dense(), rtol=1e-14, atol=1e-14)
    res = lanczos(_spd(6, 3), np.ones(6), 4)
    tr = cglanczos(_spd(6, 3), np.ones(6), 4)
    assert len(tr.d) == len(tr.ell) == 4
    assert bitwise_equal(np.array(tr.ell[-1:]), res.beta[-1:] / np.array(tr.d[-1:]))
    with pytest.raises(ValueError, match="^nonpositive pivot d_2: matrix is not positive definite$"):
        cglanczos(np.array([[1.0, 1.0], [1.0, 0.25]]), np.array([1.0, 0.0]))  # d_2 = 0.25 - 1 * 1


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
    V = lanczos(A, b, 9).V
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
