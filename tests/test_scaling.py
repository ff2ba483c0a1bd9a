"""Power-of-two scaling as a bit-exact oracle on general input.

Scaling A by 2^a and the starting vector v by 2^b commutes with every IEEE
operation while nothing leaves the normal range.  So each ALGORITHMS entry
satisfies a relation bit for bit on any such input, with no oracle: every
field of the run on (2^a A, 2^b v) is the field of the run on (A, v) times
2^(ca a + cb b), for the field's pair (ca, cb) in _RELATIONS.  Negating A in
Lanczos negates alpha and the sign of every other Lanczos vector.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from test_golden_bits import _feed

from krylovexact.fp import BINARY32, BINARY64
from krylovexact.harness import ALGORITHMS, RunInputs
from krylovexact.problems import make_rng, random_structured_problem, strakos_spectrum

# entry -> (operand kind, {field: (ca, cb)}); a field left out is unscaled.
# bilanczos's w and blocklanczos's U1 are not scaled.
_CG = {"x": (-1, 1), "r": (0, 1), "p": (0, 1), "gammas": (-1, 0), "residual_norms": (0, 1), "rho": (0, 1), "d": (1, 0)}
_RELATIONS = {
    "lanczos": ("sym", {"alpha": (1, 0), "beta": (1, 0), "beta1": (0, 1)}),
    "arnoldi": ("nonsym", {"H": (1, 0)}),
    "bilanczos": ("nonsym", {"alpha": (1, 0), "beta": (1, 0), "gamma": (1, 0), "gamma1": (0, 1)}),
    "gk": ("nonsym", {"gamma": (1, 0), "delta": (1, 0), "delta1": (0, 1)}),
    "blocklanczos": ("sym", {"M": (1, 0), "B": (1, 0)}),
    "cg-hs": ("spd", _CG),
    "cglanczos": ("spd", _CG),
    "gmres": ("nonsym", dict.fromkeys(("x", "y", "x_error_norm", "y_error_norm"), (-1, 1))),
}
_SCALES = [(8, 0), (0, 5), (-6, 3)]  # (a, b)
_PRECISIONS = [BINARY64, BINARY32]


def _bits(obj) -> str:
    """A digest of obj's raw bits, dtypes, shapes and structure."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _times_power_of_two(value, e):
    """value times 2^e, exactly while nothing leaves the normal range: an
    array or numpy scalar keeps its dtype, a Python float stays one, and a
    list or tuple is scaled item by item."""
    if isinstance(value, (list, tuple)):
        return type(value)(_times_power_of_two(item, e) for item in value)
    if type(value) is float:
        return math.ldexp(value, e)
    return np.ldexp(value, e)


def _operands(dtype, n, seed, p):
    """Nonsymmetric, bitwise symmetric and diagonally dominant SPD n x n
    matrices, v, w and an n x p block, uniform on (-1, 1)."""
    g = make_rng(seed)
    A = g.uniform(-1.0, 1.0, (n, n)).astype(dtype)
    W = g.uniform(-1.0, 1.0, (n, n)).astype(dtype)
    sym = np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T)
    spd = sym.copy()
    spd[np.diag_indices(n)] += dtype(n)
    v, w = (g.uniform(-1.0, 1.0, n).astype(dtype) for _ in range(2))
    U1 = g.uniform(-1.0, 1.0, (n, p)).astype(dtype)
    return {"nonsym": A, "sym": sym, "spd": spd}, v, w, U1


def _graded_spd(n, seed, dtype):
    """A dense, bitwise symmetric SPD n x n matrix with a graded spectrum,
    and a start b: Q diag(lam) Q for the Householder reflector Q = I - beta
    u u^T, formed entrywise in binary64 as diag(lam) - beta (u w^T + w u^T)
    + beta^2 (u^T w) u u^T with w = lam u, then rounded to dtype; lam is
    strakos_spectrum(n, 1e-3, 1, 0.98)."""
    g = make_rng(seed)
    lam = strakos_spectrum(n, 1e-3, 1.0, 0.98)
    u = g.uniform(-1.0, 1.0, n)
    w = lam * u
    beta = 2.0 / math.fsum(u * u)
    A = np.diag(lam) - beta * (np.outer(u, w) + np.outer(w, u)) + beta * beta * math.fsum(u * w) * np.outer(u, u)
    b = g.uniform(0.5, 1.5, n) * (2 * g.integers(0, 2, n) - 1)
    return A.astype(dtype), b.astype(dtype)


def _check_relations(name, precision, n, seed, p=1, k=None, operands=None, reorth="none"):
    """The relations of entry name at k steps (n/2 by default), or at the
    largest k below at which no operation of the four runs rounds in the
    subnormal range (numpy's underflow flag): there the premise fails, as
    when CG in binary32 squares a residual entry below 2^-63.  Returns that
    k.  operands replaces _operands' draw; reorth is Lanczos's."""
    kind, scaled = _RELATIONS[name]
    entry = ALGORITHMS[name]
    mats, v, w, U1 = operands or _operands(precision.dtype, n, seed, p)
    inputs = [RunInputs(np.ldexp(mats[kind], a), np.ldexp(v, b), w, U1, reorth=reorth) for a, b in [(0, 0), *_SCALES]]
    for k in range(k or entry.steps(inputs[0]) // 2, -1, -1):
        try:
            with np.errstate(under="raise"):
                want, *runs = [entry.run(x, k) for x in inputs]
            break
        except FloatingPointError:
            continue
    for (a, b), got in zip(_SCALES, runs):
        for f in dataclasses.fields(want):
            ca, cb = scaled.get(f.name, (0, 0))
            e = ca * a + cb * b
            expected = _times_power_of_two(getattr(want, f.name), e) if e else getattr(want, f.name)
            assert _bits(getattr(got, f.name)) == _bits(expected), (name, n, seed, k, a, b, f.name)
    return k


def test_every_entry_states_its_scaling_relation():
    assert set(_RELATIONS) == set(ALGORITHMS)


@pytest.mark.parametrize("precision", _PRECISIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("name", [name for name in ALGORITHMS if name != "blocklanczos"])
def test_a_power_of_two_scaling_scales_every_field_bit_for_bit(name, precision):
    for n in (5, 12, 40):
        for seed in range(3):
            assert _check_relations(name, precision, n, seed) > 0


@pytest.mark.parametrize("precision", _PRECISIONS, ids=lambda p: p.name)
def test_the_relations_hold_at_n_300_on_a_graded_spd_matrix(precision):
    """Lanczos (without and with full reorthogonalization), cgLanczos and
    Arnoldi on a dense n = 300 input, 60 steps, where every vector is dense:
    the updates and divides take their whole-vector forms and each matvec
    its batches of 64 columns, at a size no literal loop in the tests reaches."""
    A, b = _graded_spd(300, 0, precision.dtype)
    operands = (dict.fromkeys(("sym", "spd", "nonsym"), A), b, None, None)
    for name, reorth in [("lanczos", "none"), ("lanczos", "full"), ("cglanczos", "none"), ("arnoldi", "none")]:
        assert _check_relations(name, precision, 300, 0, k=60, operands=operands, reorth=reorth) == 60, (name, reorth)


@pytest.mark.parametrize("precision", _PRECISIONS, ids=lambda p: p.name)
def test_structured_arnoldi_scales_h_and_keeps_v_bit_for_bit(precision):
    """Arnoldi on a structured Hessenberg pair (P H P^T, beta_1 P e_1) to its
    breakdown: every basis vector is a signed coordinate, so each step takes
    _mgs's vectorized step.  Under (2^a A, 2^b v), H scales by 2^a and V is
    the same, bit for bit."""
    for n in (5, 12, 40):
        for seed in range(3):
            prob = random_structured_problem("hessenberg", n, seed, precision)
            res = ALGORITHMS["arnoldi"].run(RunInputs(prob.A, prob.v), n)
            assert res.breakdown == n and (np.count_nonzero(res.V, axis=0) == 1).all()
            assert _check_relations("arnoldi", precision, n, seed, k=n, operands=({"nonsym": prob.A}, prob.v, None, None)) == n


@pytest.mark.parametrize("precision", _PRECISIONS, ids=lambda p: p.name)
def test_block_lanczos_scales_m_and_b_with_a_bit_for_bit(precision):
    for p in (2, 3, 4):
        for seed in range(3):
            assert _check_relations("blocklanczos", precision, 12, seed, p) > 0


@pytest.mark.parametrize("precision", _PRECISIONS, ids=lambda p: p.name)
def test_lanczos_on_minus_a_negates_alpha_and_every_other_vector(precision):
    entry = ALGORITHMS["lanczos"]
    for n in (5, 12, 40):
        for seed in range(3):
            mats, v, _, _ = _operands(precision.dtype, n, seed, 1)
            want = entry.run(RunInputs(mats["sym"], v), n // 2)
            got = entry.run(RunInputs(-mats["sym"], v), n // 2)
            signs = np.where(np.arange(want.V.shape[1]) % 2 == 0, 1, -1).astype(precision.dtype)  # (-1)^(k-1) for v_k
            expected = dataclasses.replace(want, V=want.V * signs, alpha=-want.alpha)
            for f in dataclasses.fields(want):
                assert _bits(getattr(got, f.name)) == _bits(getattr(expected, f.name)), (n, seed, f.name)
