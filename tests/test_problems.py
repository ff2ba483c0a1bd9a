import dataclasses
import io
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexact.fileio import read_problem, write_problem
from krylovexact.fp import BINARY32, BINARY64, NonFiniteError, RangeError, ShapeError, bitwise_equal, exact_identity_violations
from krylovexact.harness import ALGORITHMS, RunInputs, _deficient_instance, compare_structured
from krylovexact.problems import (
    _fisher_yates,
    BlockTridiagonal,
    ConvergenceCurves,
    HessenbergMatrix,
    JacobiMatrix,
    LowerBidiagonal,
    NonsymTridiagonal,
    STRUCTURES,
    SignedPermutation,
    assemble,
    detect_structure,
    extend_deficient,
    make_rng,
    prescribe_cg_curves,
    random_convergence_curves,
    random_signed_block_permutation,
    random_signed_permutation,
    random_structure,
    random_structured_problem,
    strakos_spectrum,
)
from krylovexact.rational import is_spd_rational, to_rational_matrix

KINDS = ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag", "blocktridiag"]


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: JacobiMatrix(np.ones(3, a), np.ones(2, b)),
        lambda a, b: NonsymTridiagonal(np.ones(3, a), np.ones(2, b), np.ones(2, b)),
        lambda a, b: NonsymTridiagonal(np.ones(3, a), np.ones(2, a), np.ones(2, b)),
        lambda a, b: LowerBidiagonal(np.ones(3, a), np.ones(2, b)),
        lambda a, b: BlockTridiagonal((np.eye(2, dtype=a), np.eye(2, dtype=b)), (np.eye(2, dtype=a),)),
        lambda a, b: ConvergenceCurves(np.ones(2, a), np.array([2.0, 1.0], b)),
    ],
    ids=["jacobi", "nonsymtridiag", "nonsymtridiag-gamma", "lowerbidiag", "blocktridiag", "curves"],
)
@pytest.mark.parametrize("a, b", [(np.float64, np.float32), (np.float32, np.float64)], ids=["64-32", "32-64"])
def test_a_structure_rejects_arrays_of_two_precisions(build, a, b):
    with pytest.raises(ShapeError, match=r"mixed dtypes: .+ is float(64|32), .+ is float(32|64)"):
        build(a, b)
    build(a, a)  # the same arrays in one precision are accepted


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


def _fisher_yates_scalar_draws(g, n):
    """The shuffle with one g.integers(0, i + 1) call per swap."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(g.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65, 257, 1000, 4097])
def test_fisher_yates_from_one_draw_is_the_scalar_draw_loop(n):
    """The same permutation and dtype, and the generator left in the same
    state: the signs and anything else drawn next are the loop's."""
    for seed in (0, 1, 0x5EED + 1, 2**31 - 1):
        g, h = make_rng(seed), make_rng(seed)
        got, want = _fisher_yates(g, n), _fisher_yates_scalar_draws(h, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(g.integers(0, 2, 16), h.integers(0, 2, 16)) and g.uniform() == h.uniform()


def test_assemble_is_rounding_free():
    prob = random_structured_problem("jacobi", 10, 0)
    Pd = prob.P.to_dense()
    exact = Pd @ prob.T.to_dense() @ Pd.T  # products of +-1 placements: exact
    assert bitwise_equal(np.where(exact == 0, 0.0, exact), np.where(prob.A == 0, 0.0, prob.A))
    assert np.count_nonzero(prob.v) == 1


def _salted(T, draw, dt):
    """T with each entry that its kind leaves free drawn from zeros of both
    signs, subnormals and normal values (nonzero where the kind needs it)."""
    tiny = np.finfo(dt)
    pool = [0.0, -0.0, float(tiny.smallest_subnormal), -float(tiny.smallest_normal) / 4, 1.5, -0.75]

    def entries(shape, nonzero=False):
        values = st.sampled_from(pool[2:] if nonzero else pool)
        return np.array(draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))), dtype=dt).reshape(shape)

    def symmetric(p):  # the upper triangle mirrored: its -0s stay
        W = entries((p, p))
        return np.where(np.tri(p, k=-1, dtype=bool), W.T, W)

    def strict_upper(B):
        return np.where(np.tri(len(B), dtype=bool), B, entries(B.shape))

    if T.kind == "jacobi":
        return dataclasses.replace(T, alpha=entries(T.n))
    if T.kind == "nonsymtridiag":
        return dataclasses.replace(T, alpha=entries(T.n), beta=entries(T.n - 1, nonzero=True))
    if T.kind == "hessenberg":
        H = T.entries
        return HessenbergMatrix(np.where(np.tri(T.n, k=-1, dtype=bool), H, entries(H.shape)))
    if T.kind == "blocktridiag":
        return BlockTridiagonal(tuple(symmetric(T.p) for _ in T.M), tuple(strict_upper(B) for B in T.B))
    return T  # lowerbidiag: every band entry must be positive and guarded


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([BINARY64, BINARY32]), st.data())
def test_assemble_places_and_flips_every_entry_bit_for_bit(kind, m, p, seed, precision, data):
    """A = P T P^T is the literal placement loop A[perm[i], perm[j]] = T[i, j],
    negated iff signs[i] != signs[j], bit for bit: zeros of both signs and
    subnormals keep their bits, and a flipped +0 off the band becomes -0.
    A block P is compared through flatten().  A is C-contiguous."""
    n, p = (m * p, p) if kind == "blocktridiag" else (m * p, 1)
    T = _salted(random_structure(kind, n, seed, precision, p=p, positive_beta=True), data.draw, precision.dtype)
    if kind == "blocktridiag":
        P = random_signed_block_permutation(m, p, seed)
        flat = P.flatten()
    else:
        P = flat = random_signed_permutation(n, seed)
    got = assemble(T, P, 1.5, gamma1=2.0 if kind == "nonsymtridiag" else None).A
    Td = T.to_dense()
    want = np.zeros((n, n), dtype=precision.dtype)
    for i in range(n):
        for j in range(n):
            want[flat.perm[i], flat.perm[j]] = -Td[i, j] if flat.signs[i] != flat.signs[j] else Td[i, j]
    assert got.dtype == want.dtype and bitwise_equal(got, want) and got.flags.c_contiguous


def _with_minus_zeros(T, g):
    """T with -0 at about half of the entries of each field that may hold
    one: the diagonal of jacobi and nonsymtridiag, every Hessenberg entry
    off the subdiagonal (those below it too), and every block entry off the
    B_i's diagonals (mirrored in M_i, and in B_i's strict lower triangle
    too).  lowerbidiag is positive throughout and takes none."""

    def zeroed(a, free):
        a = a.copy()
        a[free & (g.random(a.shape) < 0.5)] = -0.0
        return a

    if T.kind in ("jacobi", "nonsymtridiag"):
        return dataclasses.replace(T, alpha=zeroed(T.alpha, True))
    if T.kind == "hessenberg":
        return HessenbergMatrix(zeroed(T.entries, ~np.eye(T.n, k=-1, dtype=bool)))
    if T.kind == "blocktridiag":
        lower = np.tri(T.p, dtype=bool)
        M = tuple(np.where(lower, Z, Z.T) for Z in (zeroed(Mi, True) for Mi in T.M))
        return BlockTridiagonal(M, tuple(zeroed(Bi, ~np.eye(T.p, dtype=bool)) for Bi in T.B))
    return T


def _dense_by_fields(T):
    """T's dense form, placed field by field in a loop; +0 elsewhere."""
    if T.kind == "hessenberg":
        return T.entries.copy()
    if T.kind == "blocktridiag":
        p = T.p
        D = np.zeros((T.n, T.n), dtype=T.M[0].dtype)
        for i, Mi in enumerate(T.M):
            D[i * p : (i + 1) * p, i * p : (i + 1) * p] = Mi
        for i, Bi in enumerate(T.B):
            D[(i + 1) * p : (i + 2) * p, i * p : (i + 1) * p] = Bi
            D[i * p : (i + 1) * p, (i + 1) * p : (i + 2) * p] = Bi.T
        return D
    diag, sup, sub = (None if name is None else getattr(T, name) for name in _BANDS[T.kind])
    D = np.zeros((T.n, T.n), dtype=diag.dtype)
    for i in range(T.n):
        D[i, i] = diag[i]
        if i + 1 < T.n:
            if sup is not None:
                D[i, i + 1] = sup[i]
            D[i + 1, i] = sub[i]
    return D


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize("kind", KINDS)
def test_assemble_is_the_literal_gather(kind, n, precision):
    """assemble places T's stored entries into the sign pattern; the
    reference is the gather it replaced: the dense T taken through the
    inverse permutation, Td[inv][:, inv], then scaled by the signs s of A's
    rows, per row and per column.  Bit for bit and in C order, with and
    without -0 in each field that may hold one.  to_dense, the same
    placement with P = I, is the loop that places T's fields."""
    p = {1: 1, 2: 2, 5: 1, 40: 4}[n] if kind == "blocktridiag" else 1
    for seed in range(3):
        base = random_structure(kind, n, seed, precision, p=p)
        for T in (base, _with_minus_zeros(base, np.random.default_rng(seed))):
            if kind == "blocktridiag":
                P = random_signed_block_permutation(n // p, p, seed)
                flat = P.flatten()
            else:
                P = flat = random_signed_permutation(n, seed)
            Td = _dense_by_fields(T)
            dense = T.to_dense()
            assert dense.dtype == Td.dtype and bitwise_equal(dense, Td) and dense.flags.c_contiguous
            inv = np.argsort(flat.perm)
            s = flat.signs[inv].astype(precision.dtype)
            want = Td[inv][:, inv]
            want *= s[:, None]
            want *= s
            got = assemble(T, P, 1.5, gamma1=2.0 if kind == "nonsymtridiag" else None).A
            assert got.dtype == want.dtype and bitwise_equal(got, want) and got.flags.c_contiguous


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


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
def test_detect_structure_returns_the_generating_p_t_and_beta1(precision):
    """The generated T has positive off-diagonals, so the canonical
    factorization is the generating one: P, T and beta1 come back bit for bit."""
    for n in range(1, 41):
        for seed in (n, 1000 + n):
            prob = random_structured_problem("jacobi", n, seed, precision)
            P, T, beta1 = detect_structure(prob.A, prob.v)
            for got, want in ((P.perm, prob.P.perm), (P.signs, prob.P.signs)):
                assert got.dtype == np.int64 and np.array_equal(got, want), (n, seed)
            assert bitwise_equal(T.alpha, prob.T.alpha) and bitwise_equal(T.beta, prob.T.beta), (n, seed)
            assert type(beta1) is precision.dtype and bitwise_equal(beta1, prob.beta1), (n, seed)


def _flatten_by_entry(P):
    """SignedBlockPermutation.flatten's definition, one entry at a time."""
    perm, signs = [], []
    for bj, blk in enumerate(P.blocks):
        for j in range(P.p):
            perm.append(int(P.block_perm[bj]) * P.p + int(blk.perm[j]))
            signs.append(int(blk.signs[j]))
    return perm, signs


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_flatten_is_its_per_entry_definition(m, p, seed):
    """perm[bj*p + j] = block_perm[bj]*p + blocks[bj].perm[j] and signs[bj*p + j]
    = blocks[bj].signs[j], as int64 arrays, for a generated P and for the
    same P read back from a signedblockperm problem file."""
    P = random_signed_block_permutation(m, p, seed)
    prob = random_structured_problem("blocktridiag", m * p, seed, p=p)
    buf = io.StringIO()
    write_problem(buf, prob)
    buf.seek(0)
    for Q in (P, prob.P, read_problem(buf).P):
        flat = Q.flatten()
        assert flat.perm.dtype == np.int64 and flat.signs.dtype == np.int64
        assert (flat.perm.tolist(), flat.signs.tolist()) == _flatten_by_entry(Q)


def test_detect_structure_rejects_unstructured():
    A = np.ones((4, 4)) + np.eye(4)
    v = np.zeros(4)
    v[0] = 1.0
    assert detect_structure(A, v) is None
    assert detect_structure(np.triu(np.ones((3, 3))), np.ones(3)) is None  # not symmetric
    # dense starting vector
    prob = random_structured_problem("jacobi", 4, 1)
    assert detect_structure(prob.A, np.ones(4)) is None


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
def test_detect_structure_rejects_a_minus_zero_in_v_but_not_in_a(precision):
    """beta1 P e1 has only +0 zeros, so a v with a -0 is not such a vector.  The
    assembled A has off-band -0s, and A is detected with or without them."""
    prob = random_structured_problem("jacobi", 6, 0, precision)
    assert np.signbit(prob.A[prob.A == 0]).any()
    assert detect_structure(prob.A, prob.v) is not None
    assert detect_structure(prob.A + precision.dtype(0), prob.v) is not None
    for i in np.flatnonzero(prob.v == 0):
        v = prob.v.copy()
        v[i] = -0.0
        assert detect_structure(prob.A, v) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_detect_structure_rejects_a_path_with_a_chord_or_a_closed_cycle(data):
    """One extra symmetric edge between non-adjacent path nodes i < j - 1,
    with i = 0 and j = n - 1 closing the path into a cycle."""
    n = data.draw(st.integers(3, 9))
    prob = random_structured_problem("jacobi", n, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.sampled_from([BINARY64, BINARY32])))
    if data.draw(st.booleans()):
        i, j = 0, n - 1
    else:
        i = data.draw(st.integers(0, n - 3))
        j = data.draw(st.integers(i + 2, n - 1))
    a, b = prob.P.perm[i], prob.P.perm[j]  # path node k sits at row perm[k] of A
    A = prob.A.copy()
    A[a, b] = A[b, a] = data.draw(st.sampled_from([1.0, -0.5, 2.0**-20]))
    assert detect_structure(A, prob.v) is None


# banded kind -> names of its diagonal, superdiagonal (None: zero) and subdiagonal
_BANDS = {"jacobi": ("alpha", "beta", "beta"), "nonsymtridiag": ("alpha", "beta", "gamma"), "lowerbidiag": ("gamma", None, "delta")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_BANDS)), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([BINARY64, BINARY32]), st.data())
def test_banded_to_dense_is_a_placement_loop(kind, n, seed, precision, data):
    """Bit for bit, with +0 and -0 on the diagonals that may hold them."""
    T = random_structure(kind, n, seed, precision)
    diag = _BANDS[kind][0]
    if kind != "lowerbidiag":  # its diagonal must be positive
        d = getattr(T, diag).copy()
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
            d[i] = data.draw(st.sampled_from([0.0, -0.0]))
        T = dataclasses.replace(T, **{diag: d})
    want = _dense_by_fields(T)
    got = T.to_dense()
    assert got.dtype == want.dtype and bitwise_equal(got, want)


def test_extend_deficient_empty_blocks_matches_assemble():
    T = random_structure("jacobi", 5, 2)
    P = random_signed_permutation(5, 7)
    lead = assemble(T, P, 1.5)
    ext = extend_deficient(lead, np.zeros((0, 0)))
    assert bitwise_equal(lead.A, ext.A)
    assert bitwise_equal(lead.v, ext.v)
    assert ext.d == 5


def test_extend_deficient_is_bitwise_symmetric():
    T = random_structure("jacobi", 3, 0)
    P = random_signed_permutation(3, 1)
    g = np.random.Generator(np.random.Philox(key=9))
    W = g.uniform(-1, 1, (4, 4))
    R = np.triu(W) + np.triu(W, 1).T
    prob = extend_deficient(assemble(T, P, 2.0), R)
    assert bitwise_equal(prob.A, np.ascontiguousarray(prob.A.T))
    assert prob.d == 3 and prob.A.shape == (7, 7)


@pytest.mark.parametrize("precision", [BINARY64, BINARY32])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_a_deficient_instance_is_bitwise_symmetric(n, precision):
    """The trailing block triu(W) + triu(W, 1)^T is bitwise symmetric."""
    A = _deficient_instance(n, 4, precision).A
    assert A.dtype == precision.dtype and bitwise_equal(A, np.ascontiguousarray(A.T))


def test_extend_deficient_places_without_arithmetic():
    """diag(A, R) and zero-padded v and w, bit for bit; every field but the
    operands carries over."""
    prob = random_structured_problem("nonsymtridiag", 4, 3)
    R = -np.arange(9.0).reshape(3, 3)  # -0 at (0, 0)
    ext = extend_deficient(prob, R)
    A = np.zeros((7, 7))
    A[:4, :4], A[4:, 4:] = prob.A, R
    assert bitwise_equal(ext.A, A) and ext.A.flags.writeable is False
    for got, lead in ((ext.v, prob.v), (ext.w, prob.w)):
        assert bitwise_equal(got, np.concatenate([lead, np.zeros(3)]))
    assert (ext.P, ext.T, ext.beta1, ext.gamma1, ext.d, ext.U1) == (prob.P, prob.T, prob.beta1, prob.gamma1, 4, None)


def test_extend_deficient_rejects_a_block_problem_and_a_bad_r():
    prob = random_structured_problem("jacobi", 4, 0, BINARY32)
    with pytest.raises(ValueError, match="block problem"):
        extend_deficient(random_structured_problem("blocktridiag", 4, 0, p=2), np.zeros((1, 1)))
    for R in (np.zeros((2, 3), np.float32), np.zeros(2, np.float32), np.zeros((2, 2))):
        with pytest.raises(ShapeError, match="R must be square of the problem's dtype float32"):
            extend_deficient(prob, R)


# (grade d, trailing size m) pairs; m = 0 is the problem itself
_EXTENSIONS = [(1, 0), (1, 3), (4, 0), (5, 2), (8, 5)]


@pytest.mark.parametrize("precision", [BINARY64, BINARY32])
@pytest.mark.parametrize("kind", ["jacobi", "hessenberg", "nonsymtridiag", "lowerbidiag"])
def test_every_single_vector_kind_runs_exactly_on_its_deficient_extension(kind, precision):
    """The algorithm of the kind reproduces T and [P; 0] bit for bit and
    breaks down at the grade d, whatever R holds below the leading block: a
    second R, drawn afresh, gives the same bits in every result field."""
    name, entry = next((name, a) for name, a in ALGORITHMS.items() if a.kind == kind)
    first, second = (np.random.Generator(np.random.Philox(key=key)) for key in (21, 22))

    def run_extended(g, lead, m):
        W = g.uniform(-4.0, 4.0, (m, m)).astype(precision.dtype)
        prob = extend_deficient(lead, np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T))  # bitwise symmetric, as Lanczos needs
        x = RunInputs(prob.A, prob.v, prob.w)
        return prob, entry.run(x, entry.steps(x))

    for seed, (d, m) in enumerate(_EXTENSIONS):
        lead = random_structured_problem(kind, d, seed, precision)
        prob, res = run_extended(first, lead, m)
        rep = compare_structured(prob, name, res)
        assert rep.ok, (d, m, rep.mismatch)
        assert len(prob.v) == d + m and prob.d == d
        if m:
            _, again = run_extended(second, lead, m)
            for f in dataclasses.fields(res):
                got, want = getattr(again, f.name), getattr(res, f.name)
                same = bitwise_equal(got, want) if isinstance(want, (np.ndarray, np.generic)) else got == want
                assert same, (d, m, f.name)


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


def _strakos_loop(n, lam1, lamn, rho, dt):
    """lambda_i with each rho^(n-i) as its own loop of products from 1."""
    lam1, lamn, rho = dt(lam1), dt(lamn), dt(rho)
    out = np.empty(n, dtype=dt)
    out[0] = lam1
    for i in range(2, n + 1):
        rp = dt(1.0)
        for _ in range(n - i):
            rp = rp * rho
        out[i - 1] = lam1 + dt(i - 1) / dt(n - 1) * (lamn - lam1) * rp
    return out


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
@pytest.mark.parametrize("n, lam1, lamn, rho", [(24, 1e-3, 1.0, 0.7), (100, 1e-3, 1.0, 0.98), (300, 1e-3, 1.0, 0.98), (2, 0.5, 3.0, 0.1), (57, 1e-30, 7.5, 0.31), (40, 2.0, 1e20, 1.0)])
def test_strakos_spectrum_is_the_loop_of_sequential_powers(n, lam1, lamn, rho, precision):
    want = _strakos_loop(n, lam1, lamn, rho, precision.dtype)
    assert bitwise_equal(strakos_spectrum(n, lam1, lamn, rho, precision), want)


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


# scales one step outside each precision's exponent-range guard, below and above
_OUTSIDE = [
    (row, float(np.nextafter(row.dtype(edge), row.dtype(past))))
    for row in (BINARY64, BINARY32)
    for edge, past in ((row.guard_lo, 0.0), (row.guard_hi, np.inf))
]


@pytest.mark.parametrize("precision, scale", _OUTSIDE)
@pytest.mark.parametrize("kind", ["jacobi", "hessenberg", "lowerbidiag", "nonsymtridiag"])
def test_assemble_guards_the_scale_of_v(kind, precision, scale):
    """v = beta1 P e1 (gamma1 P e1 for nonsymtridiag), and a run takes its
    norm: a scale outside the guard is a RangeError, the guard's ends are not."""
    prob = random_structured_problem(kind, 6, 1, precision)
    other = {"gamma1": prob.gamma1} if kind == "nonsymtridiag" else {}
    name = "gamma1" if kind == "nonsymtridiag" else "beta1"
    for inside in (precision.guard_lo, precision.guard_hi):
        assemble(prob.T, prob.P, **{"beta1": prob.beta1, **other, name: inside})
    with pytest.raises(RangeError, match=f"{name} outside the exponent-range guard"):
        assemble(prob.T, prob.P, **{"beta1": prob.beta1, **other, name: scale})


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "nonsymtridiag"])
def test_assemble_rejects_a_gamma1_of_any_other_kind(kind):
    """gamma1 scales the right start of a nonsymtridiag problem only; with any
    other T it is an error, not dropped."""
    prob = random_structured_problem(kind, 6, 1, p=2)
    with pytest.raises(ValueError, match=f"^gamma1 applies to nonsymtridiag problems only, not {kind}$"):
        assemble(prob.T, prob.P, prob.beta1, gamma1=1.0)


@pytest.mark.parametrize("precision, scale", _OUTSIDE)
def test_a_nonsymmetric_beta1_outside_the_guard_still_runs_exactly(precision, scale):
    """beta1 scales w, which enters only through w^T v_1: no square, no guard."""
    base = random_structured_problem("nonsymtridiag", 7, 2, precision)
    prob = assemble(base.T, base.P, scale, gamma1=base.gamma1)
    x = RunInputs(prob.A, prob.v, prob.w)
    assert compare_structured(prob, "bilanczos", ALGORITHMS["bilanczos"].run(x, 7)).ok


@pytest.mark.parametrize("precision, scale", _OUTSIDE)
def test_block_tridiagonal_guards_the_diagonals_of_its_b_blocks(precision, scale):
    T = random_structured_problem("blocktridiag", 8, 0, precision, p=2).T
    B = [Bi.copy() for Bi in T.B]
    B[1][1, 1] = scale
    with pytest.raises(RangeError, match="subdiagonal block diagonal outside the exponent-range guard"):
        BlockTridiagonal(tuple(Mi.copy() for Mi in T.M), tuple(B))
    for inside in (precision.guard_lo, precision.guard_hi):
        B[1][1, 1] = inside
        BlockTridiagonal(tuple(Mi.copy() for Mi in T.M), tuple(Bi.copy() for Bi in B))  # a built structure freezes its arrays


@pytest.mark.parametrize("precision, scale", _OUTSIDE)
def test_detect_structure_guards_the_beta1_it_returns(precision, scale):
    prob = random_structured_problem("jacobi", 6, 3, precision)
    v = np.zeros_like(prob.v)
    v[prob.P.perm[0]] = -scale
    with pytest.raises(RangeError, match="beta1 outside the exponent-range guard"):
        detect_structure(prob.A, v)
    for inside in (precision.guard_lo, precision.guard_hi):
        v[prob.P.perm[0]] = -inside
        assert detect_structure(prob.A, v)[2] == inside


def _edges(precision):
    """lo, succ(lo), pred(hi) and hi of the precision's domain, then pred(lo) and succ(hi) just outside it."""
    dt = precision.dtype
    lo, hi = dt(precision.guard_lo), dt(precision.guard_hi)
    return [lo, np.nextafter(lo, dt(np.inf)), np.nextafter(hi, dt(0)), hi], [np.nextafter(lo, dt(0)), np.nextafter(hi, dt(np.inf))]


def _with_squared(T, values):
    """T with every entry that a run squares taken from values(length): Jacobi
    beta, the Hessenberg subdiagonal, nonsym gamma, both bidiagonal bands and
    the diagonals of the B blocks.  Every other entry is T's."""
    if T.kind == "jacobi":
        return JacobiMatrix(T.alpha.copy(), values(T.n - 1))
    if T.kind == "hessenberg":
        H = T.entries.copy()
        H[np.arange(1, T.n), np.arange(T.n - 1)] = values(T.n - 1)
        return HessenbergMatrix(H)
    if T.kind == "nonsymtridiag":
        return NonsymTridiagonal(T.alpha.copy(), T.beta.copy(), values(T.n - 1))
    if T.kind == "lowerbidiag":
        return LowerBidiagonal(values(T.n), values(T.n - 1))
    B = [Bi.copy() for Bi in T.B]
    for Bi in B:
        Bi[np.diag_indices(T.p)] = values(T.p)
    return BlockTridiagonal(tuple(Mi.copy() for Mi in T.M), tuple(B))


# the algorithm that runs on each kind, the scale of v whose norm it takes (a block problem's v is
# a column of P) and the entries of T that it squares (those _with_squared sets)
_EDGE_RUNS = {"jacobi": "lanczos", "hessenberg": "arnoldi", "nonsymtridiag": "bilanczos", "lowerbidiag": "gk", "blocktridiag": "blocklanczos"}
_GUARDED_SCALE = {"jacobi": "beta1", "hessenberg": "beta1", "nonsymtridiag": "gamma1", "lowerbidiag": "beta1", "blocktridiag": None}
_SQUARED = {
    "jacobi": lambda T: [T.beta],
    "hessenberg": lambda T: [np.diagonal(T.entries, -1)],
    "nonsymtridiag": lambda T: [T.gamma],
    "lowerbidiag": lambda T: [T.gamma, T.delta],
    "blocktridiag": lambda T: [np.diagonal(Bi) for Bi in T.B],
}


def _assemble_with_scale(base, T, scale):
    """assemble(T, base.P) with base's beta1 and gamma1, T's guarded scale (if it has one) set to scale."""
    scales = {"beta1": base.beta1, "gamma1": base.gamma1}
    if _GUARDED_SCALE[T.kind]:
        scales[_GUARDED_SCALE[T.kind]] = scale
    return assemble(T, base.P, **scales)


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_exact_on_the_edges_of_the_domain_and_raises_one_step_past_them(kind, precision):
    """The squared entries and the scale of v (beta1, gamma1 for nonsymtridiag)
    drawn from lo, succ(lo), pred(hi) and hi of Lemma 3.1's domain: each run
    matches its prediction bit for bit.  pred(lo) or succ(hi) in a squared
    entry or the scale is a RangeError from the constructor or assemble."""
    inside, outside = _edges(precision)
    name = _GUARDED_SCALE[kind]
    for i, n in enumerate((2, 3, 4, 6, 8, 12, 16, 24, 30)):
        base = random_structured_problem(kind, n, n, precision, p=3 if n % 3 == 0 else 1 if n % 2 else 2)
        g = make_rng(n)
        T = _with_squared(base.T, lambda length: np.array(inside, dtype=precision.dtype)[g.integers(0, 4, length)])
        assert all(np.isin(a, inside).all() for a in _SQUARED[kind](T))
        prob = _assemble_with_scale(base, T, inside[i % 4])
        x = RunInputs(prob.A, prob.v, prob.w, prob.U1)
        entry = ALGORITHMS[_EDGE_RUNS[kind]]
        report = compare_structured(prob, _EDGE_RUNS[kind], entry.run(x, entry.steps(x)))
        assert report.ok, (n, report.mismatch)
    for past in outside:
        with pytest.raises(RangeError, match="outside the exponent-range guard"):
            _with_squared(base.T, lambda length: np.full(length, past))
        if name:
            with pytest.raises(RangeError, match=f"^{name} outside the exponent-range guard$"):
                _assemble_with_scale(base, base.T, past)


@pytest.mark.parametrize("precision", [BINARY64, BINARY32], ids=lambda p: p.name)
def test_in_guard_is_a_normal_finite_square_at_the_edges(precision):
    """At the six edge points, in_guard(±x) is "fl(x*x) is normal and finite in
    the format", and exact_identity_violations raises RangeError exactly where
    in_guard is False."""
    inside, outside = _edges(precision)
    for x in inside + outside:
        with np.errstate(over="ignore", under="ignore"):
            square = x * x
        normal_finite = bool(np.isfinite(square) and square >= np.finfo(precision.dtype).smallest_normal)
        assert precision.in_guard(x) is precision.in_guard(-x) is normal_finite is (x in inside), x
        if normal_finite:
            assert not any(exact_identity_violations(np.array([x, -x])).values())
        else:
            with pytest.raises(RangeError):
                exact_identity_violations(np.array([x, -x]))


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


def _prescribe_with_lists(curves):
    """The prescription with its gamma, delta, ell and d lists kept: alpha_1 =
    d_0, alpha_{k+1} = d_k + delta_k d_{k-1}, beta_{k+1} = ell_k d_{k-1}."""
    n = curves.n
    r = [Fraction(float(x)) for x in curves.residual_norms]
    e2 = [Fraction(float(x)) ** 2 for x in curves.energy_errors] + [Fraction(0)]
    r2 = [x * x for x in r]
    gammas = []
    for k in range(n):
        g = (e2[k] - e2[k + 1]) / r2[k]
        if g <= 0:
            raise ValueError(f"gamma_{k} <= 0: curves inconsistent with an SPD system")
        gammas.append(g)
    deltas = [Fraction(0)] + [r2[k] / r2[k - 1] for k in range(1, n)]
    ell = [r[k] / r[k - 1] for k in range(1, n)]
    d = [1 / g for g in gammas]
    alpha = [d[0]] + [d[k - 1] + deltas[k - 1] * d[k - 2] for k in range(2, n + 1)]
    beta = [ell[k - 1] * d[k - 1] for k in range(1, n)]
    return alpha, beta, np.array([float(a) for a in alpha]), np.array([float(b) for b in beta])


@given(st.integers(1, 24), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_one_pass_prescription_matches_the_list_reference(n, seed):
    curves = random_convergence_curves(n, seed)
    got = prescribe_cg_curves(curves)
    alpha, beta, T_alpha, T_beta = _prescribe_with_lists(curves)
    assert got.exact_alpha == alpha and got.exact_beta == beta
    assert bitwise_equal(got.T.alpha, T_alpha) and bitwise_equal(got.T.beta, T_beta)


@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_one_pass_prescription_raises_at_the_first_rise_in_energy(n, seed, data):
    """Duck-typed curves (ConvergenceCurves rejects them) whose e_k^2 <= e_{k+1}^2
    at a drawn k, equal or rising; the terminal e_n = 0 is never reached."""
    curves = random_convergence_curves(n + 1, seed)
    k = data.draw(st.integers(0, n - 1))
    e = curves.energy_errors.copy()
    e[k + 1] = e[k] * data.draw(st.sampled_from([1.0, 1.5]))
    duck = SimpleNamespace(n=n + 1, residual_norms=curves.residual_norms, energy_errors=e)
    with pytest.raises(ValueError) as want:
        _prescribe_with_lists(duck)
    with pytest.raises(ValueError) as got:
        prescribe_cg_curves(duck)
    assert str(got.value) == str(want.value) == f"gamma_{k} <= 0: curves inconsistent with an SPD system"


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
    T = random_structure("jacobi", 12, 4, spd=True)
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
