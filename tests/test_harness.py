from dataclasses import replace

import numpy as np
import pytest

from krylovexact.fp import BINARY32, BINARY64
from krylovexact.harness import (
    MetricSeries,
    a_orthogonality_loss,
    compare_structured,
    exactness_check,
    exactness_sweep,
    loss_of_orthogonality,
    sqrt_square_violations,
    sweep_failures,
)
from krylovexact.lanczos import lanczos
from krylovexact.problems import JacobiMatrix, random_structured_problem


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


@pytest.mark.parametrize(
    "algorithm",
    ["lanczos", "deficient", "arnoldi", "bilanczos", "gk", "blocklanczos"],
)
def test_exactness_check_small(algorithm):
    rep = exactness_check(algorithm, 6, seed=2, p=2)
    assert rep.ok, rep.mismatch


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
    rep = compare_structured(off_by_one_ulp, "lanczos", res, seed=3)
    assert not rep.projected_match and rep.basis_match and rep.breakdown_match
    assert rep.mismatch == "T[2]"
    V = res.V.copy()
    V[3, 5] = np.nextafter(V[3, 5], np.inf)
    assert compare_structured(prob, "lanczos", replace(res, V=V)).mismatch == "V[3,5]"
