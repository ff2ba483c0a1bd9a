"""Bit identities between algorithms on general input.

Golub-Kahan on A (n x m) from v is Lanczos on the augmented matrix
M = [[0, A], [A^T, 0]] from (v, 0): Lanczos's basis alternates (s_i, 0) and
(0, w_i), its alpha are +0, its beta are gamma_1, delta_2, gamma_2, ...
interleaved, its beta1 is delta_1, and a breakdown ("delta", j) is Lanczos's
step 2j - 2, ("gamma", i) its step 2i - 1.  On (s, 0) the augmented matvec
gathers the columns of A^T that A^T s gathers, in the same order, and the
other block sums +-0 terms from +0, so every bit agrees."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krylovexact.fp import bitwise_equal
from krylovexact.krylov_general import golub_kahan
from krylovexact.lanczos import VARIANTS, lanczos

# Full 53-bit mantissas (their products round), signed zeros, scales 2^+-20.
rough = st.builds(lambda m, e, s: s * m * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(-3, 2), st.sampled_from([-1.0, 1.0]))
entry = st.one_of(rough, st.sampled_from([0.0, -0.0]))


@st.composite
def rectangular_case(draw):
    """A general n x m matrix, with some zero rows and columns, and a start v,
    which may lie on the zero rows (a ("gamma", 1) breakdown)."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    A = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    A[draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)), :] = 0.0
    A[:, draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))] = 0.0
    v = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if draw(st.booleans()):
        v[np.flatnonzero(A.any(axis=1))] = 0.0
    scale = [2.0 ** draw(st.sampled_from([-20, 0, 20])) for _ in range(2)]
    return (A * scale[0]).astype(dtype), (v * scale[1]).astype(dtype)


def _augmented(A, v):
    n, m = A.shape
    M = np.zeros((n + m, n + m), dtype=A.dtype)
    M[:n, n:] = A
    M[n:, :n] = A.T
    return M, np.concatenate([v, np.zeros(m, dtype=v.dtype)])


@settings(max_examples=150, deadline=None)
@given(rectangular_case(), st.sampled_from(VARIANTS))
@example((np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.5]]), np.array([0.0, 1.0, 0.0])), "mgs")  # ("gamma", 1)
@example((np.eye(2, dtype=np.float32), np.array([1.0, 0.0], dtype=np.float32)), "cgs")  # ("delta", 2)
@example((np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]), np.array([1.0, 0.0, -0.0])), "mgs")  # ("delta", 3)
def test_golub_kahan_is_lanczos_on_the_augmented_matrix(case, variant):
    A, v = case
    n = len(A)
    k = min(A.shape)
    try:
        gk = golub_kahan(A, v, k)
    except ValueError as e:  # v = 0, or its squared norm underflows: Lanczos raises the same
        with pytest.raises(ValueError, match=re.escape(str(e))):
            lanczos(*_augmented(A, v), 2 * k, variant=variant)
        return
    lz = lanczos(*_augmented(A, v), 2 * k, variant=variant)
    kind, j = gk.breakdown or (None, 0)
    assert lz.breakdown == (None if kind is None else 2 * j - (1 if kind == "gamma" else 2))
    V = lz.V
    assert V[:, 0::2].shape[1] == gk.S.shape[1] and V[:, 1::2].shape[1] == gk.W.shape[1]
    assert bitwise_equal(V[:n, 0::2], gk.S) and bitwise_equal(V[n:, 1::2], gk.W)
    assert not _bits(V[n:, 0::2]).any() and not _bits(V[:n, 1::2]).any()  # the other halves are +0
    assert not _bits(lz.alpha).any()
    assert bitwise_equal(lz.beta[0::2][: len(gk.gamma)], gk.gamma) and bitwise_equal(lz.beta[1::2][: len(gk.delta)], gk.delta)
    assert bitwise_equal(lz.beta1, gk.delta1)


def _bits(a):
    """a's entries with a bit set: +0 alone has none."""
    return (a != 0) | np.signbit(a)
