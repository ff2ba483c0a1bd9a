"""Symmetric Lanczos tridiagonalization with optional reorthogonalization.

The loop below follows the three-term recurrence literally, one rounded
operation at a time: with structured input (P T P^T, beta1 P e1) every
intermediate quantity is reproduced exactly, so the computed basis equals
the signed identity columns and the computed tridiagonal equals T bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import _dot, _matvec, _mgs, bitwise_symmetric, norm2, validate_operands
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
        k = self.k
        off = self.beta[: k - 1] if k > 1 else self.beta[:0]
        return JacobiMatrix(self.alpha.copy(), off.copy())


@np.errstate(over="ignore", invalid="ignore")  # once per run; non-finite results raise in the kernels
def lanczos(A: np.ndarray, v: np.ndarray, k: int, variant: str = "mgs", reorth: str = "none") -> LanczosResult:
    """Run k steps; stops early when fl(||z||) = 0 (exact breakdown test).

    variant 'mgs' computes w = Av_i - beta_i v_{i-1}, alpha_i = w^T v_i,
    z = w - alpha_i v_i; 'cgs' computes alpha_i = v_i^T (Av_i) and then
    z = Av_i - alpha_i v_i - beta_i v_{i-1}.  reorth 'full' projects z once
    against all previous basis vectors, 'double' twice; the reorthogonalization
    coefficients are discarded.
    """
    n = len(A)
    validate_operands(A, v, k=k, limit=n)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if reorth not in REORTH:
        raise ValueError(f"reorth must be one of {REORTH}")
    if not bitwise_symmetric(A):
        raise ValueError("matrix is not bitwise symmetric")
    dt = A.dtype.type

    beta1 = norm2(v)
    if beta1 == 0:
        raise ValueError("starting vector is zero")
    Vt = np.zeros((k + 1, n), dtype=A.dtype)  # row i is v_{i+1}
    alphas = []
    betas = []
    vprev = np.zeros(n, dtype=A.dtype)  # v_0 = 0; beta_i * v_0 is evaluated, not skipped
    Vt[0] = v / beta1
    beta_i = dt(0.0)
    scratch = np.empty(k, dtype=A.dtype)  # the discarded reorthogonalization coefficients
    breakdown = None
    cols = 1
    for i in range(k):
        vi = Vt[i]
        av = _matvec(A.T, vi)  # A is bitwise symmetric: same bits, contiguous columns
        if variant == "mgs":
            w = av - beta_i * vprev
            alpha_i = _dot(w, vi)
            z = w - alpha_i * vi
        else:
            alpha_i = _dot(vi, av)
            z = av - alpha_i * vi
            z = z - beta_i * vprev
        for _ in range(REORTH.index(reorth)):
            z = _mgs(Vt[: i + 1], z, scratch)
        alphas.append(alpha_i)
        beta_next = norm2(z)
        betas.append(beta_next)
        if beta_next == 0:
            breakdown = i + 1
            break
        vprev = vi
        Vt[i + 1] = z / beta_next
        beta_i = beta_next
        cols = i + 2
    return LanczosResult(
        V=Vt[:cols].T.copy(),
        alpha=np.array(alphas, dtype=A.dtype),
        beta=np.array(betas, dtype=A.dtype),
        beta1=beta1,
        breakdown=breakdown,
    )
