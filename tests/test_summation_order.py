"""The structured class is exact in any summation order.

On a structured problem every sum of a step has at most one nonzero term,
so its value cannot depend on the order in which the terms are added.  Each
kernel set below replaces the package's sequential folds with another
order: numpy's pairwise np.sum, the fold from the last term to the first,
and BLAS (np.dot and A @ x).  A replacement ignores the coordinate argument,
so every sum runs over the whole vector, and _mgs becomes the per-row loop
over the set's dot, because its vectorized step sums one term and would hide
the order.  Under each set every exactness sweep must still match the
prediction bit for bit, while a general dense Lanczos run must change bits:
a set that was not installed fails the test.  (An FMA set is not covered.)
"""

import numpy as np
import pytest

from krylovexact import fp, harness
from krylovexact.fp import PRECISIONS, bitwise_equal
from krylovexact.lanczos import lanczos
from rebind import rebind


def _pairwise_fold(t):
    """Each column of t summed down axis 0 by np.sum, which adds a contiguous
    run pairwise."""
    return np.sum(np.ascontiguousarray(np.moveaxis(t, 0, -1)), axis=-1)


def _reversed_fold(t):
    """fl(((0 + t_last) + t_{last-1}) + ...) down axis 0."""
    if not len(t):
        return np.zeros(t.shape[1:], dtype=t.dtype)[()]
    return np.add.accumulate(t[::-1])[-1] + t.dtype.type(0.0)


# name -> (fold down axis 0, dot, matvec), each in its own order
_SETS = {
    "pairwise": (_pairwise_fold, lambda x, y: _pairwise_fold(x * y), lambda A, x: _pairwise_fold((A * x).T)),
    "reversed": (_reversed_fold, lambda x, y: _reversed_fold(x * y), lambda A, x: _reversed_fold((A * x).T)),
    "blas": (lambda t: np.ones(len(t), dtype=t.dtype) @ t, np.dot, lambda A, x: A @ x),
}


def _install(monkeypatch, name):
    """Replace the folding kernels with the named set in every module that binds them."""
    fold, dot, matvec = _SETS[name]

    def matmat(A, B):
        out = np.empty((A.shape[0], B.shape[1]), dtype=A.dtype)
        for j in range(B.shape[1]):
            out[:, j] = matvec(A, B[:, j])
        return out

    def gram(X, Y):
        out = np.empty((X.shape[1], Y.shape[1]), dtype=X.dtype)
        for i in range(X.shape[1]):
            for j in range(Y.shape[1]):
                out[i, j] = dot(X[:, i], Y[:, j])
        return out

    def mgs(Qt, w, c, p=None):
        for i, q in enumerate(Qt):
            c[i] = h = dot(q, w)
            w = w - h * q
        return w

    kernels = {
        "_dot": lambda x, y, c=-1: dot(x, y),
        "_norm2": lambda x, c=-1: np.sqrt(dot(x, x)),
        "_matvec": lambda A, x, c=-1: matvec(A, x),
        "_matmat": matmat,
        "_gram": gram,
        "_fold": fold,
        "_mgs": mgs,
    }
    for kernel, replacement in kernels.items():
        rebind(monkeypatch, fp, kernel, replacement)


def _dense_lanczos(dtype):
    g = np.random.Generator(np.random.Philox(key=7))
    W = g.uniform(-2, 2, (20, 20))
    A = (np.triu(W) + np.triu(W, 1).T).astype(dtype)
    return lanczos(A, g.uniform(0.5, 1.0, 20).astype(dtype), 12)


@pytest.mark.parametrize("kernel_set", list(_SETS))
def test_every_structured_sweep_is_exact_in_any_summation_order(kernel_set, monkeypatch):
    sequential = {precision.name: _dense_lanczos(precision.dtype) for precision in PRECISIONS}
    _install(monkeypatch, kernel_set)
    for precision in PRECISIONS:
        moved = _dense_lanczos(precision.dtype)
        assert not all(bitwise_equal(getattr(moved, f), getattr(sequential[precision.name], f)) for f in ("V", "alpha", "beta")), "the set was not installed"
    failed = []
    for algorithm in harness.SWEEPS:
        sizes = (4, 8, 16, 32) if algorithm == "blocklanczos" else (4, 9, 17, 33)  # n a multiple of p = 2
        for n in sizes:
            for seed in range(3):
                for precision in PRECISIONS:
                    report = harness.exactness_check(algorithm, n, seed, precision, p=2)
                    if not report.ok:
                        failed.append((algorithm, n, seed, precision.name, report.mismatch))
    assert not failed
