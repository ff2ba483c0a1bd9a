from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fp import BINARY32, NonFiniteError, ShapeError, bitwise_equal
from krylovexact.problems import (
    ConvergenceCurves,
    DistributionFunction,
    JacobiMatrix,
    SignedPermutation,
    assemble,
    condition_number_jacobi,
    detect_structure,
    distribution_function,
    eigenvalues_jacobi,
    extend_deficient,
    prescribe_cg_curves,
    random_convergence_curves,
    random_jacobi,
    random_signed_permutation,
    random_structured_problem,
    strakos_spectrum,
    sturm_count,
)

KINDS = ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag"]


def test_jacobi_validation():
    with pytest.raises(ValueError):
        JacobiMatrix(np.array([1.0, 2.0]), np.array([0.0]))  # beta must be positive
    T = JacobiMatrix(np.array([1.0, 2.0]), np.array([3.0]))
    D = T.to_dense()
    assert D[0, 1] == D[1, 0] == 3.0


def test_generators_are_deterministic():
    for kind in KINDS:
        p = 2 if kind == "blocktridiag" else 1
        a = random_structured_problem(kind, 8, 5, p=p)
        b = random_structured_problem(kind, 8, 5, p=p)
        assert bitwise_equal(a.A, b.A)
        assert bitwise_equal(a.v, b.v)


def test_signed_permutation_orthogonal():
    P = random_signed_permutation(9, 3)
    D = P.to_dense()
    assert np.array_equal(D @ D.T, np.eye(9))


def test_assemble_is_rounding_free():
    prob = random_structured_problem("jacobi", 10, 0)
    Pd = prob.P.to_dense()
    exact = Pd @ prob.T.to_dense() @ Pd.T  # products of +-1 placements: exact
    assert bitwise_equal(np.where(exact == 0, 0.0, exact), np.where(prob.A == 0, 0.0, prob.A))
    assert np.count_nonzero(prob.v) == 1


@given(st.integers(1, 20), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_detect_structure_roundtrip(n, seed):
    prob = random_structured_problem("jacobi", n, seed)
    found = detect_structure(prob.A, prob.v)
    assert found is not None
    P, T, beta1 = found
    again = assemble(T, P, beta1)
    assert bitwise_equal(again.A, prob.A)
    assert bitwise_equal(again.v, prob.v)
    assert np.all(T.beta > 0)


def test_detect_structure_rejects_unstructured():
    A = np.ones((4, 4)) + np.eye(4)
    v = np.zeros(4)
    v[0] = 1.0
    assert detect_structure(A, v) is None
    with pytest.raises(ValueError):
        detect_structure(np.triu(np.ones((3, 3))), np.ones(3))  # not symmetric
    # dense starting vector
    prob = random_structured_problem("jacobi", 4, 1)
    assert detect_structure(prob.A, np.ones(4)) is None


def test_extend_deficient_empty_blocks_matches_assemble():
    T = random_jacobi(5, 2)
    P = random_signed_permutation(5, 7)
    lead = assemble(T, P, 1.5)
    ext = extend_deficient(T, P, np.zeros((0, 0)), np.zeros((0, 0)), 1.5)
    assert bitwise_equal(lead.A, ext.A)
    assert bitwise_equal(lead.v, ext.v)
    assert ext.d == 5


def test_extend_deficient_is_bitwise_symmetric():
    T = random_jacobi(3, 0)
    P = random_signed_permutation(3, 1)
    g = np.random.Generator(np.random.Philox(key=9))
    R1 = g.uniform(-1, 1, (4, 4))
    W = g.uniform(-1, 1, (4, 4))
    R2 = np.triu(W) + np.triu(W, 1).T
    prob = extend_deficient(T, P, R1, R2, 2.0)
    assert bitwise_equal(prob.A, np.ascontiguousarray(prob.A.T))
    assert prob.d == 3 and prob.A.shape == (7, 7)


def test_strakos_spectrum_endpoints_and_monotonicity():
    lam = strakos_spectrum(24, 1e-3, 1.0, 0.7)
    assert lam[0] == 1e-3 and lam[-1] == 1.0
    assert np.all(np.diff(lam) > 0)
    # entrywise agreement with the exact rational formula, up to a few ulps
    for i in range(24):
        exact = Fraction(1, 1000) + Fraction(i, 23) * (1 - Fraction(1, 1000)) * Fraction(7, 10) ** (
            23 - i
        )
        assert abs(Fraction(float(lam[i])) - exact) <= Fraction(2) ** -48


def test_strakos_spectrum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        strakos_spectrum(1, 0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        strakos_spectrum(5, 1.0, 0.1, 0.5)


def test_distribution_function_steps():
    nodes = np.array([1.0, 2.0, 3.0])
    v1 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    om = distribution_function(nodes, v1)
    assert om(0.5) == 0.0
    assert om(3.0) == 1.0
    assert om(10.0) == 1.0
    assert 0.3 < om(1.5) < 0.35
    s = sum(float(w) for w in om.weights)
    assert abs(s - 1.0) <= 4 * 3 * 2**-53


def test_distribution_function_rejects_unnormalized():
    with pytest.raises(ValueError):
        distribution_function(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_prescribe_cg_curves_single_step():
    curves = ConvergenceCurves(np.array([2.0]), np.array([0.5]))
    sys_ = prescribe_cg_curves(curves)
    # T = [1/gamma_0] with gamma_0 = e0^2/r0^2
    gamma0 = Fraction(1, 4) / Fraction(4)
    assert sys_.exact_alpha == [1 / gamma0]
    assert sys_.b[0] == 2.0 and sys_.T.n == 1


@given(st.integers(1, 12), st.integers(0, 20))
@settings(max_examples=20, deadline=None)
def test_prescribe_cg_curves_yields_jacobi(n, seed):
    curves = random_convergence_curves(n, seed)
    sys_ = prescribe_cg_curves(curves)
    assert np.all(sys_.T.beta > 0)
    assert len(sys_.exact_alpha) == n


def test_curves_validation():
    with pytest.raises(ValueError):
        ConvergenceCurves(np.array([1.0, 1.0]), np.array([1.0, 2.0]))  # energy must decrease
    with pytest.raises(ValueError):
        ConvergenceCurves(np.array([1.0, -1.0]), np.array([2.0, 1.0]))


def test_curves_reject_nan():
    with pytest.raises(NonFiniteError):
        ConvergenceCurves(np.array([1.0, np.nan]), np.array([2.0, 1.0]))


def test_distribution_function_rejects_nan_weights():
    with pytest.raises(NonFiniteError):
        DistributionFunction(np.array([0.0, 1.0]), np.array([np.nan, 0.5]))


def test_detect_structure_checks_the_vector():
    prob = random_structured_problem("jacobi", 5, 0)
    with pytest.raises(ShapeError):
        detect_structure(prob.A, prob.v[:-1])
    with pytest.raises(ShapeError):
        detect_structure(prob.A, prob.v.astype(np.float32))


def test_sturm_and_eigenvalues_2x2():
    T = JacobiMatrix(np.array([2.0, 2.0]), np.array([1.0]))
    ev = eigenvalues_jacobi(T)
    assert ev == pytest.approx([1.0, 3.0], rel=1e-12)
    assert sturm_count(T, 2.0) == 1
    assert sturm_count(T, 0.0) == 0
    assert sturm_count(T, 4.0) == 2
    assert condition_number_jacobi(T) == pytest.approx(3.0, rel=1e-10)


def test_spd_jacobi_is_positive_definite():
    T = random_jacobi(12, 4, spd=True)
    ev = eigenvalues_jacobi(T)
    assert ev[0] > 0


def test_binary32_instances():
    prob = random_structured_problem("jacobi", 6, 0, BINARY32)
    assert prob.A.dtype == np.float32
    found = detect_structure(prob.A, prob.v)
    assert found is not None


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation(np.array([0, 0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        SignedPermutation(np.array([0, 1]), np.array([1, 2]))
