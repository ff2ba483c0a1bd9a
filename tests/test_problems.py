import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fp import BINARY32, BINARY64, NonFiniteError, RangeError, ShapeError, bitwise_equal
from krylovexact.problems import (
    ConvergenceCurves,
    HessenbergMatrix,
    JacobiMatrix,
    STRUCTURES,
    SignedPermutation,
    assemble,
    detect_structure,
    extend_deficient,
    prescribe_cg_curves,
    random_convergence_curves,
    random_jacobi,
    random_signed_permutation,
    random_structure,
    random_structured_problem,
    strakos_spectrum,
)
from krylovexact.rational import is_spd_rational, to_rational_matrix

KINDS = ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag"]


def test_jacobi_validation():
    with pytest.raises(ValueError):
        JacobiMatrix(np.array([1.0, 2.0]), np.array([0.0]))  # beta must be positive
    T = JacobiMatrix(np.array([1.0, 2.0]), np.array([3.0]))
    D = T.to_dense()
    assert D[0, 1] == D[1, 0] == 3.0


def test_hessenberg_names_the_first_offender_below_the_subdiagonal_in_row_major_order():
    H = np.triu(np.ones((5, 5)), -1)
    H[2, 0] = -0.0  # a zero of either sign is allowed
    H[4, 0] = 7.0
    H[3, 1] = 2.0  # first in row-major order, second in column-major order
    with pytest.raises(ValueError, match=r"nonzero below the subdiagonal at \(3,1\)$"):
        HessenbergMatrix(H)
    H[3, 1] = 0.0
    with pytest.raises(ValueError, match=r"nonzero below the subdiagonal at \(4,0\)$"):
        HessenbergMatrix(H)
    H[4, 0] = 0.0
    H[4, 2] = np.nan  # a NaN counts as nonzero
    with pytest.raises(ValueError, match=r"nonzero below the subdiagonal at \(4,2\)$"):
        HessenbergMatrix(H)
    H[4, 2] = 0.0
    assert HessenbergMatrix(H).n == 5


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


@pytest.mark.parametrize(
    "lam1, lamn, precision",
    [
        (1e-3, 1e300, BINARY32),  # lamn overflows the cast
        (1e-300, 1.0, BINARY32),  # lam1 underflows to 0
        (1e-3, float("inf"), BINARY64),
        (3 * 2.0**970, np.finfo(np.float64).max, BINARY64),  # lam1 + (lamn - lam1) rounds to inf
    ],
)
def test_strakos_spectrum_checks_its_parameters_after_the_cast_and_its_result(lam1, lamn, precision):
    with pytest.raises(RangeError):
        strakos_spectrum(2, lam1, lamn, 0.7, precision)


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


def test_detect_structure_checks_the_vector():
    prob = random_structured_problem("jacobi", 5, 0)
    with pytest.raises(ShapeError):
        detect_structure(prob.A, prob.v[:-1])
    with pytest.raises(ShapeError):
        detect_structure(prob.A, prob.v.astype(np.float32))


def test_spd_jacobi_is_positive_definite():
    T = random_jacobi(12, 4, spd=True)
    assert is_spd_rational(to_rational_matrix(T.to_dense()))


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


def test_structures_name_each_kind_once():
    assert list(STRUCTURES) == KINDS
    for kind, cls in STRUCTURES.items():
        assert cls.kind == kind
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}  # a class constant, not hashed with the data
        p = 2 if kind == "blocktridiag" else 1
        prob = random_structured_problem(kind, 4, 1, p=p)
        assert type(prob.T) is cls and prob.kind == kind
        assert type(random_structure(kind, 4, 1, p=p if kind == "blocktridiag" else 3)) is cls  # only blocktridiag reads p
    with pytest.raises(ValueError, match="unknown structured kind"):
        random_structure("dense", 4, 0)
