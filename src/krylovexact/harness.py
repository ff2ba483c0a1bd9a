"""Metrics and experiment drivers: orthogonality-loss measurements, bitwise
exactness sweeps over structured instances, and the two reference experiments
on the Strakos spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .cg import cg_hs, cglanczos
from .fp import (
    BINARY64,
    Precision,
    _dot,
    _gram,
    _matmat,
    _matvec,
    first_bit_difference,
    frobenius_norm,
    norm2,
    precision_of,
    validate_operands,
)
from .krylov_general import arnoldi, block_lanczos, gmres_structured, golub_kahan, nonsym_lanczos
from .lanczos import lanczos
from .problems import (
    extend_deficient,
    make_rng,
    random_jacobi,
    random_signed_permutation,
    random_structured_problem,
    strakos_spectrum,
)
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
    """||V^T V - I||_F in the working precision of V.

    Columns must already be normalized (checked to 4nu).  On a basis whose
    columns are exactly signed identity columns every dot product below is
    exact and the result is +0 bitwise.
    """
    validate_operands(V)
    n, k = V.shape
    tol = 4 * n * (np.finfo(V.dtype).eps / 2)
    for j in range(k):
        if abs(float(norm2(V[:, j])) - 1.0) > tol:
            raise ValueError(f"column {j + 1} is not normalized")
    return frobenius_norm(_gram(V, V) - np.eye(k, dtype=V.dtype))


@np.errstate(over="ignore", invalid="ignore")  # once per call; non-finite results raise in the kernels
def a_orthogonality_loss(Pdirs: np.ndarray, A: np.ndarray):
    """||Ptilde^T A Ptilde - I||_F with columns A-normalized internally."""
    validate_operands(A, block=Pdirs)
    k = Pdirs.shape[1]
    Pt = np.empty_like(Pdirs)
    for j in range(k):
        pap = _dot(Pdirs[:, j], _matvec(A, Pdirs[:, j]))
        if pap <= 0:
            raise ValueError(f"p^T A p <= 0 for column {j + 1}: matrix is not numerically positive definite")
        Pt[:, j] = Pdirs[:, j] / np.sqrt(pap)
    return frobenius_norm(_gram(Pt, _matmat(A, Pt)) - np.eye(k, dtype=A.dtype))


def sqrt_square_violations(samples: int, precision: Precision = BINARY64, seed: int = 0) -> int:
    """Count violations of fl(sqrt(fl(a^2))) = |a| over guarded random samples."""
    if samples < 1:
        raise ValueError("samples must be positive")
    g = make_rng(seed)
    emax = 499 if precision.name == "binary64" else 59
    mant = g.uniform(1.0, 2.0, samples)
    expo = g.integers(-emax, emax + 1, samples)
    sign = (2 * g.integers(0, 2, samples) - 1).astype(np.float64)
    alpha = (sign * mant * np.exp2(expo.astype(np.float64))).astype(precision.dtype)
    roundtrip = np.sqrt(alpha * alpha)
    kind = np.uint64 if precision.dtype == np.float64 else np.uint32
    bad = roundtrip.view(kind) != np.abs(alpha).view(kind)
    return int(np.count_nonzero(bad))


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
    `run --out` writes (None: sweep only).  Structured entries name the problem
    kind they run on, compare the projected matrix and the basis as (label,
    of_result, of_problem) triples, and test breakdown(result, problem).
    """

    run: Callable
    columns: Callable | None
    steps: Callable = lambda x: len(x.v)
    kind: str | None = None
    projected: tuple = ()
    basis: tuple = ()
    breakdown: Callable = lambda r, prob: r.breakdown == prob.d


def _dense_P(prob):
    return prob.P.to_dense(prob.A.dtype)


def _embedded_P(prob):
    """P in the leading rows of an n x d basis; d < n on deficient instances."""
    Pd, n, d = _dense_P(prob), len(prob.v), prob.d
    return Pd if n == d else np.vstack([Pd, np.zeros((n - d, d), dtype=Pd.dtype)])


def _block_entries(T):
    return np.concatenate([M.ravel() for M in T.M] + [B.ravel() for B in T.B])


def _lanczos_breakdown(res, prob) -> bool:
    """Breakdown at the grade d with a +0 terminal coefficient beta_{d+1}."""
    d = prob.d
    return res.breakdown == d and res.k == d and res.beta[d - 1] == 0 and not np.signbit(res.beta[d - 1])


def _block_steps(x) -> int:
    if x.U1 is None:
        raise ValueError("blocklanczos needs a structured block problem file")
    return len(x.v) // x.U1.shape[1]


def _cg_columns(tr):
    return [("residual_norm", np.array(tr.residual_norms)), ("x", tr.x[-1])]


_LANCZOS = Algorithm(
    run=lambda x, k: lanczos(x.A, x.v, k, variant=x.variant, reorth=x.reorth),
    columns=lambda r: [("alpha", r.alpha), ("beta", r.beta)],
    kind="jacobi",
    projected=("T", lambda r: np.concatenate([r.alpha, r.beta[: r.k - 1]]), lambda prob: np.concatenate([prob.T.alpha, prob.T.beta])),
    basis=("V", lambda r: r.V, _embedded_P),
    breakdown=_lanczos_breakdown,
)

# CLI name -> Algorithm.  Structured entries (kind set) are the exactness
# sweep algorithms; "deficient" runs Lanczos on a grade-deficient instance.
ALGORITHMS = {
    "lanczos": _LANCZOS,
    "arnoldi": Algorithm(
        run=lambda x, k: arnoldi(x.A, x.v, k),
        columns=lambda r: [("H", r.H)],
        kind="hessenberg",
        projected=("H", lambda r: r.square(), lambda prob: prob.T.entries),
        basis=("V", lambda r: r.V, _dense_P),
    ),
    "bilanczos": Algorithm(
        run=lambda x, k: nonsym_lanczos(x.A, x.v, x.w, k),
        columns=lambda r: [("alpha", r.alpha), ("beta", r.beta), ("gamma", r.gamma)],
        kind="nonsymtridiag",
        projected=(
            "T",
            lambda r: np.concatenate([r.alpha, r.beta, r.gamma, [r.gamma1, r.beta1]]),
            lambda prob: np.concatenate([prob.T.alpha, prob.T.beta, prob.T.gamma, [prob.gamma1, prob.beta1]]),
        ),
        basis=("VW", lambda r: np.concatenate([r.V, r.W], axis=1), lambda prob: np.concatenate([_dense_P(prob)] * 2, axis=1)),
    ),
    "gk": Algorithm(
        run=lambda x, k: golub_kahan(x.A, x.v, k),
        columns=lambda r: [("gamma", r.gamma), ("delta", r.delta)],
        kind="lowerbidiag",
        projected=(
            "L",
            lambda r: np.concatenate([r.gamma, r.delta, [r.delta1]]),
            lambda prob: np.concatenate([prob.T.gamma, prob.T.delta, [prob.beta1]]),
        ),
        basis=("SW", lambda r: np.concatenate([r.S, r.W], axis=1), lambda prob: np.concatenate([_dense_P(prob)] * 2, axis=1)),
        breakdown=lambda r, prob: r.breakdown == ("delta", prob.d + 1),
    ),
    "blocklanczos": Algorithm(
        run=lambda x, k: block_lanczos(x.A, x.U1, k, qr_variant=x.qr_variant),
        columns=lambda r: [(f"M{i + 1}", M) for i, M in enumerate(r.M)] + [(f"B{i + 2}", B) for i, B in enumerate(r.B)],
        steps=_block_steps,
        kind="blocktridiag",
        projected=("T", _block_entries, lambda prob: _block_entries(prob.T)),
        basis=("U", lambda r: np.concatenate(r.U, axis=1), _dense_P),
    ),
    "cg-hs": Algorithm(run=lambda x, k: cg_hs(x.A, x.v, kmax=k), columns=_cg_columns),
    "cglanczos": Algorithm(run=lambda x, k: cglanczos(x.A, x.v, kmax=k), columns=_cg_columns),
    "gmres": Algorithm(
        run=lambda x, k: gmres_structured(x.A, x.v, k),
        columns=lambda r: [("x", r.x), ("y", r.y), ("x_error_norm", np.array([r.x_error_norm])), ("y_error_norm", np.array([r.y_error_norm]))],
    ),
    "deficient": replace(_LANCZOS, columns=None),
}


def _structured(algorithm: str) -> Algorithm:
    entry = ALGORITHMS.get(algorithm)
    if entry is None or entry.kind is None:
        raise ValueError(f"unknown sweep algorithm {algorithm!r}")
    return entry


# ---------------------------------------------------------------------------
# exactness sweeps


def _pair(a, b, what):
    idx = first_bit_difference(a, b)
    return (what if idx is None else f"{what}[{','.join(str(int(i)) for i in idx)}]", idx is None)


def exactness_check(algorithm: str, n: int, seed: int, precision: Precision = BINARY64, p: int = 1, variant: str = "mgs", qr_variant: str = "mgs") -> ExactnessReport:
    """Build one structured instance, run the algorithm once, compare bitwise."""
    entry = _structured(algorithm)
    if algorithm == "deficient":
        prob = _deficient_instance(n, seed, precision)
    else:
        prob = random_structured_problem(entry.kind, n, seed, precision, p=p)
    x = RunInputs(prob.A, prob.v, prob.w, prob.U1, variant=variant, qr_variant=qr_variant)
    return compare_structured(prob, algorithm, entry.run(x, entry.steps(x)), seed=seed)


def compare_structured(prob, algorithm: str, result, seed: int = -1) -> ExactnessReport:
    """Compare an algorithm's result bitwise against the generating
    (P, T, grade) of the structured instance it ran on."""
    entry = _structured(algorithm)
    if prob.kind != entry.kind:
        raise ValueError(f"{algorithm} compares against a {entry.kind} problem, not {prob.kind}")
    precision = precision_of(prob.A)
    n = len(prob.v)
    checks = [_pair(of_result(result), of_problem(prob), label) for label, of_result, of_problem in (entry.projected, entry.basis)]
    checks.append((f"breakdown index (seed={seed}, n={n}, {precision.name})", entry.breakdown(result, prob)))
    mismatch = next((label for label, ok in checks if not ok), None)
    return ExactnessReport(algorithm, n, seed, precision.name, *(ok for _, ok in checks), mismatch)


def _deficient_instance(n: int, seed: int, precision: Precision = BINARY64):
    """Grade-d instance embedded in dimension n (d = ceil(n/2) at least 1)."""
    d = max(n // 2, 1)
    T = random_jacobi(d, seed, precision=precision)
    P = random_signed_permutation(d, seed + 917)
    g = make_rng(seed + 31)
    m = n - d
    R1 = g.uniform(-1.0, 1.0, (m, m)).astype(precision.dtype)
    W = g.uniform(-1.0, 1.0, (m, m)).astype(precision.dtype)
    R2 = np.triu(W) + np.ascontiguousarray(np.triu(W, 1).T)
    beta1 = precision.dtype(float(g.uniform(0.25, 4.0)))
    return extend_deficient(T, P, R1, R2, beta1)


def exactness_sweep(algorithm: str, sizes, seeds, precisions=(BINARY64,), p: int = 1, variant: str = "mgs", qr_variant: str = "mgs") -> list:
    """Run exactness_check over the grid; reports sorted by (precision, n, seed)."""
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


def _strakos_tridiagonal():
    lam = strakos_spectrum(24, 1e-3, 1.0, 0.7)
    A = np.diag(lam)
    v = np.ones(24, dtype=np.float64)
    res = lanczos(A, v, 24, variant="mgs", reorth="double")
    if res.k < 24:
        raise RuntimeError("unexpected breakdown while building the reference tridiagonal")
    return res.tridiagonal()


def experiment_fig2() -> MetricSeries:
    """Loss of orthogonality of HS-CG's normalized residuals on the Strakos
    instance, against the exact (+0) loss of plain Lanczos on the same pair."""
    T = _strakos_tridiagonal()
    A = T.to_dense()
    n = T.n
    b = np.zeros(n, dtype=np.float64)
    b[0] = 1.0
    tr = cg_hs(A, b)
    series = MetricSeries("fig2")
    steps = len(tr.r) - 1
    Vt = np.empty((n, steps + 1), dtype=np.float64)
    for j in range(steps + 1):
        nrm = tr.residual_norms[j]
        if nrm == 0:
            Vt = Vt[:, :j]
            steps = j - 1
            break
        Vt[:, j] = tr.r[j] / nrm
    for k in range(1, steps + 2):
        series.add(k, "hscg_orth_loss", loss_of_orthogonality(Vt[:, :k]))
    lres = lanczos(A, b, n, variant="mgs", reorth="none")
    for k in range(1, lres.k + 1):
        series.add(k, "lanczos_orth_loss", loss_of_orthogonality(lres.V[:, :k]))
    return series


def experiment_fig3() -> MetricSeries:
    """A-orthogonality of cgLanczos directions and relative error against the
    exact-arithmetic CG oracle on the Strakos instance."""
    T = _strakos_tridiagonal()
    A = T.to_dense()
    n = T.n
    b = np.zeros(n, dtype=np.float64)
    b[0] = 1.0
    tr = cglanczos(A, b)
    oracle = rational_cg(A, b)
    series = MetricSeries("fig3")
    kmax = len(tr.x) - 1
    for k in range(1, kmax + 1):
        dirs = [p for p in tr.p[:k] if np.any(p != 0)]
        series.add(k, "a_orth_loss", a_orthogonality_loss(np.column_stack(dirs), A))
        if k < len(oracle.x):
            xk = oracle.x[k]
            dx = [xe - xb for xe, xb in zip(xk, to_rational_vector(tr.x[k]))]
            num = float(rat_dot(dx, dx)) ** 0.5
            den = float(rat_dot(xk, xk)) ** 0.5
            series.add(k, "rel_error", num / den if den else 0.0)
        series.add(k, "residual_norm", tr.residual_norms[k])
    return series
