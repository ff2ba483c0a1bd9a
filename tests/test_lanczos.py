import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact import fp
from krylovexact.fp import BINARY32, bitwise_equal
from krylovexact.lanczos import lanczos, lanczos_residual
from krylovexact.problems import random_structured_problem


def _sym(n, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    W = g.uniform(-2, 2, (n, n))
    return np.triu(W) + np.triu(W, 1).T


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
    r = lanczos_residual(prob.A, res)
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
    assert float(lanczos_residual(A, res)) <= 100 * 20 * 2**-53 * np.linalg.norm(A)


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
