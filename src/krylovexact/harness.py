"""Metrics and experiment drivers: orthogonality-loss measurements, bitwise
exactness sweeps over structured instances, and the two reference experiments
on the Strakos spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .cg import cg_hs, cglanczos
from .fp import (
    BINARY64,
    NonFiniteError,
    Precision,
    _dot,
    _fold,
    _gram,
    _matmat,
    _matvec,
    exact_identity_violations,
    first_bit_difference,
    frobenius_norm,
    precision_of,
    signed_columns_equal,
    validate_operands,
)
from .krylov_general import ArnoldiResult, BlockLanczosResult, GolubKahanResult, NonsymLanczosResult, arnoldi, block_lanczos, gmres_structured, golub_kahan, nonsym_lanczos
from .lanczos import LanczosResult, lanczos
from .problems import SignedBlockPermutation, extend_deficient, make_rng, random_structured_problem, strakos_spectrum
from .rational import rat_dot, rational_cg, to_rational_vector


@dataclass
class MetricSeries:
    """Per-iteration metric rows (k, metric name, value, hex-float string)."""

    experiment: str
    rows: list = field(default_factory=list)

    def add(self, k: int, name: str, value):
        prev = [r[0] for r in self.rows if r[1] == name]
        if prev and k <= prev[-1]:
            raise ValueError(f"iteration index must increase within series {name!r}")
        v = float(value)
        self.rows.append((int(k), name, v, v.hex()))

    def values(self, name: str) -> list:
        return [(r[0], r[2]) for r in self.rows if r[1] == name]

    def max_value(self, name: str) -> float:
        vals = [r[2] for r in self.rows if r[1] == name]
        if not vals:
            raise KeyError(f"no rows for metric {name!r}")
        return max(vals)


@dataclass(frozen=True)
class ExactnessReport:
    algorithm: str
    n: int
    seed: int
    precision: str
    projected_match: bool
    basis_match: bool
    breakdown_match: bool
    mismatch: str | None = None

    def __post_init__(self):
        clean = self.projected_match and self.basis_match and self.breakdown_match
        if clean != (self.mismatch is None):
            raise ValueError("mismatch location must be recorded iff a check failed")

    @property
    def ok(self) -> bool:
        return self.mismatch is None


# ---------------------------------------------------------------------------
# metrics


def loss_of_orthogonality(V: np.ndarray):
    """||V^T V - I||_F in the working precision of V: the norm of
    _orthogonality_gap(V).

    Columns must already be normalized (checked to 4nu in column order, on
    squared norms that are _dot's folds).  On a basis of exactly signed
    identity columns every dot of the gap is exact and the result is +0 bitwise.
    """
    return frobenius_norm(_orthogonality_gap(V))


def a_orthogonality_loss(Pdirs: np.ndarray, A: np.ndarray):
    """||Ptilde^T A Ptilde - I||_F with columns A-normalized internally: the
    norm of _a_orthogonality_gap(Pdirs, A)."""
    return frobenius_norm(_a_orthogonality_gap(Pdirs, A))


@np.errstate(over="ignore", invalid="ignore")  # once per call; a non-finite square raises below
def _orthogonality_gap(V: np.ndarray) -> np.ndarray:
    """V^T V - I, after loss_of_orthogonality's checks."""
    validate_operands(V)
    n, k = V.shape
    tol = 4 * n * precision_of(V).unit_roundoff
    for j, sq in enumerate(_fold(V * V)):
        if not np.isfinite(sq):
            raise NonFiniteError("non-finite dot product")
        if abs(float(np.sqrt(sq)) - 1.0) > tol:
            raise ValueError(f"column {j + 1} is not normalized")
    return _gram(V, V) - np.eye(k, dtype=V.dtype)


@np.errstate(over="ignore", invalid="ignore")  # once per call; non-finite results raise in the kernels
def _a_orthogonality_gap(Pdirs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Ptilde^T A Ptilde - I, Ptilde the A-normalized columns of Pdirs."""
    validate_operands(A, block=Pdirs, square=True)
    k = Pdirs.shape[1]
    Af = np.asfortranarray(A)  # _matvec gathers columns of A: make them contiguous once per call
    Pt = np.empty_like(Pdirs)
    for j in range(k):
        pap = _dot(Pdirs[:, j], _matvec(Af, Pdirs[:, j]))
        if pap <= 0:
            raise ValueError(f"p^T A p <= 0 for column {j + 1}: matrix is not numerically positive definite")
        Pt[:, j] = Pdirs[:, j] / np.sqrt(pap)
    return _gram(Pt, _matmat(Af, Pt)) - np.eye(k, dtype=A.dtype)


_SAMPLE_CHUNK = 2**20  # samples drawn and checked at a time: memory stays bounded


def sqrt_square_violations(samples: int, precision: Precision = BINARY64, seed: int = 0) -> int:
    """Count violations of fl(sqrt(fl(a^2))) = |a| (Lemma 3.1) over random samples ±m 2^e of the
    whole domain, e from guard_lo's binade to guard_hi's and m in [1, 2) capped at guard_hi's significand
    (no sample rounds past guard_hi), drawn and checked _SAMPLE_CHUNK at a time (one chunk when samples <= _SAMPLE_CHUNK)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    g = make_rng(seed)
    (_, elo), (top, ehi) = np.frexp(precision.guard_lo), np.frexp(precision.guard_hi)
    violations = 0
    for start in range(0, samples, _SAMPLE_CHUNK):
        m = min(_SAMPLE_CHUNK, samples - start)
        mant = np.minimum(g.uniform(1.0, 2.0, m), 2 * top)
        expo = g.integers(elo - 1, ehi, m)
        sign = (2 * g.integers(0, 2, m) - 1).astype(np.float64)
        alpha = (sign * np.ldexp(mant, expo)).astype(precision.dtype)
        violations += exact_identity_violations(alpha)["sqrt_square"]
    return violations


# ---------------------------------------------------------------------------
# the algorithm table


@dataclass(frozen=True)
class RunInputs:
    """Operands and settings of one algorithm run: the matrix A, the starting
    vector v, the left starting vector w (bilanczos), the starting block U1
    (blocklanczos), and the Lanczos and QR Gram-Schmidt choices."""

    A: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None
    U1: np.ndarray | None = None
    variant: str = "mgs"
    reorth: str = "none"
    qr_variant: str = "mgs"


@dataclass(frozen=True)
class Algorithm:
    """One entry of ALGORITHMS.

    run(inputs, k) looks the algorithm up by name in this module at call time,
    so patching ``harness.lanczos`` reaches every caller.  steps(inputs) is the
    length of a full run; columns(result) gives the (name, array) pairs that
    `run --out` writes.  Structured entries name the problem kind they run on,
    and predict(problem) builds, from the problem alone and in its dtype, the
    result that an exact full run returns: the basis P, T's entries, the
    terminal +0 and the breakdown at the grade d.  predict(problem, _lazy_P)
    gives each basis as _Columns instead, unbuilt.
    """

    run: Callable
    columns: Callable
    steps: Callable = lambda x: min(x.A.shape)
    kind: str | None = None
    predict: Callable | None = None


def _dense_P(prob, neg=()):
    """P over +0 rows up to len(v), the basis of a grade-deficient instance
    (P itself when there is nothing to pad), with -0 at the zero entries of
    the columns neg."""
    P = prob.P.to_dense(prob.A.dtype)
    pad = len(prob.v) - len(P)
    P = np.vstack([P, np.zeros((pad, P.shape[1]), dtype=P.dtype)]) if pad else P
    P[:, neg] = np.where(P[:, neg] == 0, -0.0, P[:, neg])
    return P


@dataclass(frozen=True)
class _Columns:
    """_dense_P(prob, neg) unbuilt, for fp.signed_columns_equal; [:, s] takes columns s."""

    n: int
    rows: np.ndarray
    signs: np.ndarray
    neg: np.ndarray

    def __getitem__(self, key):
        return _Columns(self.n, self.rows[key[1]], self.signs[key[1]], self.neg[key[1]])


def _lazy_P(prob, neg=()):
    """_dense_P(prob, neg) as _Columns: P's rows and signs, in A's dtype."""
    P = prob.P.flatten() if isinstance(prob.P, SignedBlockPermutation) else prob.P
    negative = np.zeros(P.n, dtype=bool)
    negative[np.asarray(neg, dtype=int)] = True
    return _Columns(len(prob.v), P.perm, P.signs.astype(prob.A.dtype), negative)


def _bilanczos_predict(prob, P=_dense_P):
    """V = W = P, except that W has -0 at the zero entries of each column j >= 1
    whose beta_{j+1} (prob.T.beta[j - 1]) is negative: w_{j+1} = wnew /
    beta_{j+1} is a full divide, which turns each +0 of wnew into -0.  The
    nonzero entry keeps P's sign."""
    V, neg = P(prob), np.flatnonzero(prob.T.beta < 0) + 1
    W = P(prob, neg) if neg.size else V
    return NonsymLanczosResult(V, W, prob.T.alpha, prob.T.beta, prob.T.gamma, prob.gamma1, prob.beta1, prob.d)


def _block_predict(prob, P=_dense_P):
    B, p = P(prob), prob.T.p  # U_i is B's i-th block of p columns
    return BlockLanczosResult(tuple(B[:, j : j + p] for j in range(0, len(prob.v), p)), prob.T.M, prob.T.B, prob.d)


def _plus_zero(a):
    """a with one +0 entry (a vector) or one +0 row (a matrix) appended, in a's dtype."""
    return np.concatenate([a, np.zeros((1, *a.shape[1:]), dtype=a.dtype)])


def _block_steps(x) -> int:
    if x.U1 is None:
        raise ValueError("blocklanczos needs a structured block problem file")
    return len(x.v) // x.U1.shape[1]


def _cg_columns(tr):
    return [("residual_norm", np.array(tr.residual_norms)), ("x", tr.x[-1])]


# CLI name -> Algorithm, one entry per algorithm.
ALGORITHMS = {
    "lanczos": Algorithm(
        run=lambda x, k: lanczos(x.A, x.v, k, variant=x.variant, reorth=x.reorth),
        columns=lambda r: [("alpha", r.alpha), ("beta", r.beta)],
        kind="jacobi",
        predict=lambda prob, P=_dense_P: LanczosResult(P(prob), prob.T.alpha, _plus_zero(prob.T.beta), prob.beta1, prob.d),
    ),
    "arnoldi": Algorithm(
        run=lambda x, k: arnoldi(x.A, x.v, k),
        columns=lambda r: [("H", r.H)],
        kind="hessenberg",
        predict=lambda prob, P=_dense_P: ArnoldiResult(P(prob), _plus_zero(prob.T.entries), prob.d),
    ),
    "bilanczos": Algorithm(
        run=lambda x, k: nonsym_lanczos(x.A, x.v, x.w, k),
        columns=lambda r: [("alpha", r.alpha), ("beta", r.beta), ("gamma", r.gamma)],
        kind="nonsymtridiag",
        predict=_bilanczos_predict,
    ),
    "gk": Algorithm(
        run=lambda x, k: golub_kahan(x.A, x.v, k),
        columns=lambda r: [("gamma", r.gamma), ("delta", r.delta)],
        kind="lowerbidiag",
        predict=lambda prob, P=_dense_P: GolubKahanResult(*[P(prob)] * 2, prob.T.gamma, prob.T.delta, prob.beta1, ("delta", prob.d + 1)),  # S = W = P
    ),
    "blocklanczos": Algorithm(
        run=lambda x, k: block_lanczos(x.A, x.U1, k, qr_variant=x.qr_variant),
        columns=lambda r: [(f"M{i + 1}", M) for i, M in enumerate(r.M)] + [(f"B{i + 2}", B) for i, B in enumerate(r.B)],
        steps=_block_steps,
        kind="blocktridiag",
        predict=_block_predict,
    ),
    "cg-hs": Algorithm(run=lambda x, k: cg_hs(x.A, x.v, kmax=k), columns=_cg_columns),
    "cglanczos": Algorithm(run=lambda x, k: cglanczos(x.A, x.v, kmax=k), columns=_cg_columns),
    "gmres": Algorithm(
        run=lambda x, k: gmres_structured(x.A, x.v, k),
        columns=lambda r: [("x", r.x), ("y", r.y), ("x_error_norm", np.array([r.x_error_norm])), ("y_error_norm", np.array([r.y_error_norm]))],
    ),
}

# The exactness sweeps: each structured entry on instances of its kind, and
# "deficient", Lanczos on grade-deficient instances (criterion 9).
SWEEPS = [name for name, a in ALGORITHMS.items() if a.kind] + ["deficient"]


def _structured(algorithm: str) -> Algorithm:
    if algorithm not in SWEEPS:
        raise ValueError(f"unknown sweep algorithm {algorithm!r}")
    return ALGORITHMS["lanczos" if algorithm == "deficient" else algorithm]


def structured_entry(prob, algorithm: str) -> Algorithm:
    """The entry that compares its results against prob; a problem of
    another kind raises ValueError."""
    entry = _structured(algorithm)
    if prob.kind != entry.kind:
        raise ValueError(f"{algorithm} compares against a {entry.kind} problem, not {prob.kind}")
    return entry


# ---------------------------------------------------------------------------
# exactness sweeps


def _pair(a, b, what):
    """(label, match) of the result's a against the predicted b; a shape
    difference, such as a run that stopped early, is a mismatch too."""
    if np.shape(a) != np.shape(b):
        return f"{what} (shape {np.shape(a)}, expected {np.shape(b)})", False
    idx = first_bit_difference(a, b)
    return (f"{what}[{','.join(str(int(i)) for i in idx)}]" if idx else what, idx is None)


def _columns_equal(got, want) -> bool:
    """got is bitwise the basis that want, _Columns or a tuple of them, stands for;
    blocks of the predicted shapes are checked as one hstack."""
    if isinstance(want, tuple):
        if not (isinstance(got, tuple) and len(got) == len(want) and all(type(g) is np.ndarray and g.shape == (w.n, len(w.rows)) for g, w in zip(got, want))):
            return False
        got, want = np.hstack(got), _Columns(want[0].n, *map(np.concatenate, zip(*((w.rows, w.signs, w.neg) for w in want))))
    return type(got) is np.ndarray and got.shape == (want.n, len(want.rows)) and got.dtype == want.signs.dtype and signed_columns_equal(got, want.rows, want.signs, want.neg)


def exactness_check(algorithm: str, n: int, seed: int, precision: Precision = BINARY64, p: int = 1, variant: str = "mgs", qr_variant: str = "mgs") -> ExactnessReport:
    """Build one structured instance, run the algorithm once, compare bitwise."""
    entry = _structured(algorithm)
    if algorithm == "deficient":
        prob = _deficient_instance(n, seed, precision)
    else:
        prob = random_structured_problem(entry.kind, n, seed, precision, p=p)
    x = RunInputs(prob.A, prob.v, prob.w, prob.U1, variant=variant, qr_variant=qr_variant)
    return replace(compare_structured(prob, algorithm, entry.run(x, entry.steps(x))), seed=seed)


def compare_structured(prob, algorithm: str, result) -> ExactnessReport:
    """Compare an algorithm's result bitwise, field by field, with the result
    its entry predicts from the structured instance it ran on.  The bases
    (V, W, S, U) decide basis_match, the breakdown decides breakdown_match and
    every other field (coefficients, scales, the terminal +0) projected_match.
    The mismatch names the first differing field in field order, with the
    index of its first differing entry: alpha[2], W[3,5], or beta1 for a scalar;
    a breakdown label names the run's value and the predicted one, as in
    breakdown (None, expected 5).  A basis is checked against its _Columns
    by fp.signed_columns_equal, without the n x n prediction, which is built
    only to name a mismatch.  The report's seed is -1: exactness_check sets
    the seed it drew the instance from."""
    entry = structured_entry(prob, algorithm)
    precision = precision_of(prob.A)
    n = len(prob.v)
    expected, dense = entry.predict(prob, _lazy_P), None
    checks = []  # (category, label, match) per field
    for f in fields(expected):
        got, want = getattr(result, f.name), getattr(expected, f.name)
        if f.name == "breakdown":
            checks.append(("breakdown", f"breakdown ({got}, expected {want})", got == want))
        elif f.name not in ("V", "W", "S", "U"):
            checks.append(("projected", *_pair(got, want, f.name)))
        elif not _columns_equal(got, want):
            dense = dense or entry.predict(prob)
            checks.append(("basis", *_pair(got, getattr(dense, f.name), f.name)))
        else:
            checks.append(("basis", f.name, True))
    matches = (all(ok for c, _, ok in checks if c == category) for category in ("projected", "basis", "breakdown"))
    mismatch = next((label for _, label, ok in checks if not ok), None)
    return ExactnessReport(algorithm, n, -1, precision.name, *matches, mismatch)


def _deficient_instance(n: int, seed: int, precision: Precision = BINARY64):
    """The Jacobi problem random_structured_problem("jacobi", d, seed) of grade
    d = max(n // 2, 1), extended to dimension n by extend_deficient with the
    bitwise symmetric R = triu(W) + triu(W, 1)^T, W uniform on (-1, 1) from
    make_rng(seed + 31)."""
    d = max(n // 2, 1)
    W = make_rng(seed + 31).uniform(-1.0, 1.0, (n - d, n - d)).astype(precision.dtype)
    return extend_deficient(random_structured_problem("jacobi", d, seed, precision), np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T))


def exactness_sweep(algorithm: str, sizes, seeds, precisions=(BINARY64,), p: int = 1, variant: str = "mgs", qr_variant: str = "mgs") -> list:
    """Run exactness_check over the grid; reports sorted by (precision, n, seed).
    A grid without a size, a seed or a precision raises ValueError."""
    if not (len(sizes) and len(seeds) and len(precisions)):
        raise ValueError("an exactness sweep needs at least one size, one seed and one precision")
    reports = []
    for precision in precisions:
        for n in sizes:
            for seed in seeds:
                reports.append(exactness_check(algorithm, n, seed, precision, p=p, variant=variant, qr_variant=qr_variant))
    reports.sort(key=lambda r: (r.precision, r.n, r.seed))
    return reports


def sweep_failures(reports) -> list:
    return [r for r in reports if not r.ok]


# ---------------------------------------------------------------------------
# figure experiments (Strakos spectrum, n = 24, lam1 = 1e-3, lamn = 1, rho = 0.7)


def _strakos_system():
    """The dense T_24 that Lanczos with double reorthogonalization gives on
    (diag(lambda), ones), and b = e1."""
    lam = strakos_spectrum(24, 1e-3, 1.0, 0.7)
    res = lanczos(np.diag(lam), np.ones(24, dtype=np.float64), 24, variant="mgs", reorth="double")
    if res.k < 24:
        raise RuntimeError("unexpected breakdown while building the reference tridiagonal")
    b = np.zeros(24, dtype=np.float64)
    b[0] = 1.0
    return res.tridiagonal().to_dense(), b


def _add_prefix_losses(series: MetricSeries, name: str, gap: np.ndarray) -> None:
    """Row k of the series is the norm of gap's leading k x k block, for k = 1
    .. the number of columns.  That is the metric of the first k columns, bit
    for bit: each Gram entry is its own fold down the rows, whatever columns
    follow, and frobenius_norm folds the block's squares in row-major order."""
    for k in range(1, gap.shape[0] + 1):
        series.add(k, name, frobenius_norm(gap[:k, :k]))


def experiment_fig2() -> MetricSeries:
    """Loss of orthogonality of HS-CG's normalized residuals on the Strakos
    instance, against the exact (+0) loss of plain Lanczos on the same pair."""
    A, b = _strakos_system()
    tr = cg_hs(A, b)
    series = MetricSeries("fig2")
    V = np.column_stack(tr.r) / np.array(tr.residual_norms)  # r_k / ||r_k||: no residual of this fixed pair is 0
    _add_prefix_losses(series, "hscg_orth_loss", _orthogonality_gap(V))
    lres = lanczos(A, b, len(b), variant="mgs", reorth="none")
    _add_prefix_losses(series, "lanczos_orth_loss", _orthogonality_gap(lres.V[:, : lres.k]))
    return series


def experiment_fig3() -> MetricSeries:
    """A-orthogonality of cgLanczos directions and relative error against the
    exact-arithmetic CG oracle on the Strakos instance."""
    A, b = _strakos_system()
    tr = cglanczos(A, b)
    oracle = rational_cg(A, b)
    series = MetricSeries("fig3")
    kmax = len(tr.x) - 1
    nonzero = [bool(np.any(p != 0)) for p in tr.p[:kmax]]
    gap = _a_orthogonality_gap(np.column_stack([p for p, nz in zip(tr.p, nonzero) if nz]), A)
    for k in range(1, kmax + 1):
        m = sum(nonzero[:k])  # prefix k's nonzero directions; gap[:m, :m] as in _add_prefix_losses
        series.add(k, "a_orth_loss", frobenius_norm(gap[:m, :m]))
        if k < len(oracle.x):
            xk = oracle.x[k]
            dx = [xe - xb for xe, xb in zip(xk, to_rational_vector(tr.x[k]))]
            num = np.sqrt(float(rat_dot(dx, dx)))  # IEEE sqrt is correctly rounded; libm's pow need not be
            den = np.sqrt(float(rat_dot(xk, xk)))
            series.add(k, "rel_error", num / den if den else 0.0)
        series.add(k, "residual_norm", tr.residual_norms[k])
    return series
