"""Symmetric Lanczos tridiagonalization with optional reorthogonalization.

The loop below follows the three-term recurrence literally, one rounded
operation at a time: with structured input (P T P^T, beta1 P e1) every
intermediate quantity is reproduced exactly, so the computed basis equals
the signed identity columns and the computed tridiagonal equals T bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import _dot, _matvec, _mgs, _start, _sub_scaled, _unit, bitwise_symmetric, validate_operands
from .problems import JacobiMatrix

VARIANTS = ("mgs", "cgs")
REORTH = ("none", "full", "double")  # the index is the number of reorthogonalization passes


@dataclass(frozen=True)
class LanczosResult:
    """Basis V (n x k or n x (k+1)), coefficients, and the breakdown index.

    breakdown is the step i at which fl(||z||) = 0 stopped the loop (beta_{i+1}
    exactly +0), or None if the iteration limit was reached first.
    """

    V: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray  # beta_2 .. beta_{k+1}; the trailing entry is 0 on breakdown
    beta1: object
    breakdown: int | None

    @property
    def k(self) -> int:
        return len(self.alpha)

    def tridiagonal(self) -> JacobiMatrix:
        return JacobiMatrix(self.alpha.copy(), self.beta[: self.k - 1].copy())  # beta has k entries, so k = 0 slices none


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def lanczos(A: np.ndarray, v: np.ndarray, k: int, variant: str = "mgs", reorth: str = "none") -> LanczosResult:
    """Run k steps; stops early when fl(||z||) = 0 (exact breakdown test).

    variant 'mgs' computes w = Av_i - beta_i v_{i-1}, alpha_i = w^T v_i,
    z = w - alpha_i v_i; 'cgs' computes alpha_i = (Av_i)^T v_i, with the bits
    of v_i^T (Av_i), and then z = Av_i - alpha_i v_i - beta_i v_{i-1}.  reorth
    'full' projects z once against all previous basis vectors, 'double' twice;
    the reorthogonalization coefficients are discarded.  The loop,
    _lanczos_steps, keeps Vt, alpha and beta in fp's Row layout.
    """
    steps = _lanczos_steps(A, v, k, variant, reorth)
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


def _lanczos_steps(A, v, k, variant, reorth):
    """lanczos's loop, one record per step: checks the operands at the first
    next(), then yields (alpha_i, beta_{i+1}, v_{i+1}) for i = 0, 1, ..., k,
    from (+0, ||v||, v_1); k = None is n, read after the check.  A breakdown's
    record, the last, has beta_{i+1} = +0 and a +0 row.  v_{i+1} is a row of
    the basis, which no later step writes.  Returns the LanczosResult.  The
    callers, lanczos and cglanczos, hold the errstate: a generator's own would
    not span its body."""
    validate_operands(A, v, k=0 if k is None else k, square=True)
    n = len(A)
    k = n if k is None else k
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if reorth not in REORTH:
        raise ValueError(f"reorth must be one of {REORTH}")
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")

    Vt = np.zeros((k + 2, n), dtype=A.dtype)  # row i is v_i; row 0 is v_0 = +0
    coord = np.full(k + 2, -1)  # coord[i] is v_i's _coordinate; v_0 = +0 takes index 0
    coord[0] = 0
    beta1, Vt[1], coord[1] = _start(v, "starting vector")
    alpha = np.zeros(k + 1, dtype=A.dtype)  # alpha[i] is alpha_i
    beta = np.zeros(k + 2, dtype=A.dtype)  # beta[i] is beta_i; beta[1] = +0, and beta_1 v_0 a one-entry no-op
    scratch = np.empty(k, dtype=A.dtype)  # the discarded reorthogonalization coefficients
    yield alpha[0], beta1, Vt[1]
    breakdown = None
    for i in range(1, k + 1):
        vi, ci = Vt[i], coord[i]
        z = _matvec(A.T, vi, ci)  # A is bitwise symmetric: same bits, contiguous columns
        if variant == "mgs":
            _sub_scaled(z, beta[i], Vt[i - 1], coord[i - 1])  # z holds w
        alpha[i] = _dot(z, vi, ci)  # z is finite: fp's Coordinates
        _sub_scaled(z, alpha[i], vi, ci)
        if variant == "cgs":
            _sub_scaled(z, beta[i], Vt[i - 1], coord[i - 1])
        for _ in range(REORTH.index(reorth)):
            z = _mgs(Vt[1 : i + 1], z, scratch, coord[1 : i + 1])  # v_1..v_i
        beta[i + 1], coord[i + 1] = _unit(z, Vt[i + 1])
        yield alpha[i], beta[i + 1], Vt[i + 1]
        if beta[i + 1] == 0:
            breakdown = i
            break
    steps = breakdown or k
    return LanczosResult(
        V=Vt[1 : (breakdown or k + 1) + 1].T.copy(),  # v_1..v_{k+1}, or v_1..v_i on a breakdown at step i
        alpha=alpha[1 : steps + 1],
        beta=beta[2 : steps + 2],
        beta1=beta1,
        breakdown=breakdown,
    )
