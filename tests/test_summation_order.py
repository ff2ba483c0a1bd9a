"""The structured class is exact in any summation order, with or without FMA.

On a structured problem every sum of a step has at most one nonzero term,
so its value cannot depend on the order in which the terms are added, nor
on whether a product is rounded before it is added.  Each kernel set below
replaces the package's sequential folds with another order: numpy's
pairwise np.sum, the fold from the last term to the first, and BLAS (np.dot
and A @ x).  A replacement ignores the coordinate argument, so every sum runs
over the whole vector, and _mgs becomes the per-row loop over the set's dot,
because its vectorized step sums one term and would hide the order.  Under
each set every exactness sweep must still match the prediction bit for bit,
while a general dense Lanczos run must change bits: a set that was not
installed fails the test.

The fourth set, binary64 only, fuses each multiply-add: every dot, matvec
row and Gram entry is the chain acc = round(acc + x_i y_i) from +0, one
rounding per step, and _sub_scaled and the _mgs update become z_j =
round(z_j - a x_j).  _fold has no products, so it stays.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from krylovexact import fp, harness
from krylovexact.fp import BINARY64, PRECISIONS, bitwise_equal
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


def _fused(acc, x, y):
    """round(acc + x y) in binary64 with one rounding: float() rounds the exact
    Fraction sum to nearest-even.  An exact zero sum is -0 only when acc and
    the product are both -0, as IEEE 754 rounds to nearest."""
    product = Fraction(x) * Fraction(y)
    total = Fraction(acc) + product
    if total or product:
        return float(total)
    return -0.0 if math.copysign(1.0, acc) < 0 and math.copysign(1.0, x) * math.copysign(1.0, y) < 0 else 0.0


def _fused_dot(x, y):
    acc = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        acc = _fused(acc, a, b)
    return np.float64(acc)


def _fused_update(z, a, x):
    """z - a x, each entry round(z_j - a x_j)."""
    return np.array([_fused(zj, -float(a), xj) for zj, xj in zip(z.tolist(), x.tolist())])


# name -> (fold down axis 0, dot, matvec, update z - a x), each in its own order
_SETS = {
    "pairwise": (_pairwise_fold, lambda x, y: _pairwise_fold(x * y), lambda A, x: _pairwise_fold((A * x).T), None),
    "reversed": (_reversed_fold, lambda x, y: _reversed_fold(x * y), lambda A, x: _reversed_fold((A * x).T), None),
    "blas": (lambda t: np.ones(len(t), dtype=t.dtype) @ t, np.dot, lambda A, x: A @ x, None),
    "fma": (fp._fold, _fused_dot, lambda A, x: np.array([_fused_dot(row, x) for row in A]), _fused_update),
}


def _install(monkeypatch, name):
    """Replace the folding kernels with the named set in every module that
    binds them; a set with its own update replaces _sub_scaled too."""
    fold, dot, matvec, update = _SETS[name]

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

    def mgs(Qt, w, c, p):
        for i, q in enumerate(Qt):
            c[i] = h = dot(q, w)
            w = w - h * q if update is None else update(w, h, q)
        return w

    def sub_scaled(z, a, x, c):
        z[:] = update(z, a, x)

    kernels = {
        "_dot": lambda x, y, c=-1: dot(x, y),
        "_norm2": lambda x, c=-1: np.sqrt(dot(x, x)),
        "_matvec": lambda A, x, c=-1: matvec(A, x),
        "_matmat": matmat,
        "_gram": gram,
        "_fold": fold,
        "_mgs": mgs,
    }
    if update is not None:
        kernels["_sub_scaled"] = sub_scaled
    for kernel, replacement in kernels.items():
        rebind(monkeypatch, fp, kernel, replacement)


def _dense_lanczos(dtype, n):
    g = np.random.Generator(np.random.Philox(key=7))
    W = g.uniform(-2, 2, (n, n))
    A = (np.triu(W) + np.triu(W, 1).T).astype(dtype)
    return lanczos(A, g.uniform(0.5, 1.0, n).astype(dtype), n * 3 // 5)


def _check_exact_under(kernel_set, monkeypatch, precisions, sizes, blocksizes, seeds, control_n):
    sequential = {precision.name: _dense_lanczos(precision.dtype, control_n) for precision in precisions}
    _install(monkeypatch, kernel_set)
    for precision in precisions:
        moved = _dense_lanczos(precision.dtype, control_n)
        assert not all(bitwise_equal(getattr(moved, f), getattr(sequential[precision.name], f)) for f in ("V", "alpha", "beta")), "the set was not installed"
    failed = []
    for algorithm in harness.SWEEPS:
        for n in blocksizes if algorithm == "blocklanczos" else sizes:  # n a multiple of p = 2
            for seed in range(seeds):
                for precision in precisions:
                    report = harness.exactness_check(algorithm, n, seed, precision, p=2)
                    if not report.ok:
                        failed.append((algorithm, n, seed, precision.name, report.mismatch))
    assert not failed


@pytest.mark.parametrize("kernel_set", ["pairwise", "reversed", "blas"])
def test_every_structured_sweep_is_exact_in_any_summation_order(kernel_set, monkeypatch):
    _check_exact_under(kernel_set, monkeypatch, PRECISIONS, (4, 9, 17, 33), (4, 8, 16, 32), 3, 20)


def test_every_structured_sweep_is_exact_with_fused_multiply_add(monkeypatch):
    _check_exact_under("fma", monkeypatch, (BINARY64,), (4, 9, 17), (4, 8, 16), 2, 8)
