"""The benchmark's four workloads, each a fixed operation list built from a seed.

Every workload is a closed loop: one client in one process runs its list one
operation after another, with no threads.  An operation returns its verdict
and the outputs whose raw bits the bit-identity gate hashes.  Operations
reach the package through module attributes (``krylov_general.arnoldi``, not
a name imported here), so the per-layer trace sees every call they make.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# `krylovexact.lanczos` is shadowed by the function of that name on the
# package, so the modules are looked up by their full names.
cg, cli, fp, harness, krylov_general, lanczos_mod, problems, rational = (
    importlib.import_module(f"krylovexact.{name}")
    for name in ("cg", "cli", "fp", "harness", "krylov_general", "lanczos", "problems", "rational")
)


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (verdict, outputs to hash)."""

    name: str
    run: Callable[[], tuple]
    reads: tuple = ()  # files the operation reads, sized from outside
    writes: tuple = ()  # files the operation writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (seed, tiny, workdir) -> list[Op]
    passes: int  # passes of one run at --seconds 30, scaled in proportion
    probe: tuple = ("loop", "fraction", "scan")  # parts of run.py's speed probe


# ---------------------------------------------------------------------------
# output digests


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"nd{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, np.generic):
        h.update(f"np{obj.dtype.str}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, bool) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, int):
        h.update(f"i{obj}".encode())
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()}".encode())
    elif isinstance(obj, Fraction):
        h.update(f"q{obj.numerator}/{obj.denominator}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, Path):
        h.update(b"file")
        h.update(obj.read_bytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(outputs) -> str:
    """SHA-256 over the raw bits of arrays and scalars and the bytes of files."""
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# exact-large: harness.exactness_check at the largest sizes of criteria 1 and 3

BASIS_ALGORITHMS = ("lanczos", "arnoldi", "nonsym_lanczos", "golub_kahan", "block_lanczos")


@contextlib.contextmanager
def _results_of(module, names):
    """Collect the return values of ``module.<name>`` calls made in the block.

    exactness_check keeps only its verdict; this is how the gate sees the
    coefficients and bases it compared.
    """
    saved = {name: getattr(module, name) for name in names}
    results = []

    def recording(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append(out)
            return out

        return call

    for name, fn in saved.items():
        setattr(module, name, recording(fn))
    try:
        yield results
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _exactness_op(algorithm, n, seed, precision, p=1, variant="mgs", qr_variant="mgs"):
    def run():
        with _results_of(harness, BASIS_ALGORITHMS) as results:
            report = harness.exactness_check(algorithm, n, seed, precision, p=p, variant=variant, qr_variant=qr_variant)
        return report.ok, (report, results)

    label = f"{algorithm} n={n} {precision.name}"
    if algorithm == "lanczos":
        label += f" {variant}"
    if algorithm == "blocklanczos":
        label += f" p={p} {qr_variant}"
    return Op(label, run)


def build_exact_large(seed, tiny, workdir):
    lanczos_n, arnoldi_n, pair_ns, block_n = (20, 10, (6, 12), 16) if tiny else (1000, 300, (40, 90), 48)
    specs = [("lanczos", lanczos_n, prec, 1, var, "mgs") for prec in (fp.BINARY64, fp.BINARY32) for var in ("mgs", "cgs")]
    specs.append(("arnoldi", arnoldi_n, fp.BINARY64, 1, "mgs", "mgs"))
    specs += [(alg, n, fp.BINARY64, 1, "mgs", "mgs") for alg in ("bilanczos", "gk") for n in pair_ns]
    specs += [("blocklanczos", block_n, fp.BINARY64, 4, "mgs", qr) for qr in ("mgs", "cgs")]
    return [_exactness_op(alg, n, 1000 * seed + i, prec, p, var, qr) for i, (alg, n, prec, p, var, qr) in enumerate(specs)]


# ---------------------------------------------------------------------------
# oracle: the exact Fraction oracles of criteria 5, 7 and 8


def _gmres_op(A, v, n, k):
    def run():
        res = krylov_general.gmres_structured(A, v, k)
        return res.x_error_norm == res.y_error_norm, res

    return Op(f"gmres n={n} k={k}", run)


def _curves(n, seed):
    """Admissible CG convergence curves drawn without transcendental functions,
    so that their bits do not depend on the platform's libm."""
    g = problems.make_rng(seed)
    residuals = np.ldexp(g.uniform(1.0, 2.0, n), g.integers(-10, 11, n))
    energies = np.multiply.accumulate(g.uniform(0.2, 0.9, n)) * float(g.uniform(0.5, 2.0))
    return problems.ConvergenceCurves(residuals, energies)


def _curves_op(curves):
    def run():
        system = problems.prescribe_cg_curves(curves)
        tr = rational.rational_cg(system.exact_matrix(), system.exact_rhs())
        n = curves.n
        ok = len(tr.rnorm2) > n - 1 and all(
            tr.rnorm2[k] == Fraction(float(curves.residual_norms[k])) ** 2
            and tr.energy2[k] == Fraction(float(curves.energy_errors[k])) ** 2
            for k in range(n)
        )
        return ok, (system.T, tr.rnorm2, tr.energy2, tr.gammas, tr.deltas)

    return Op(f"prescribed curves n={curves.n}", run)


def _fig3_op():
    def run():
        series = harness.experiment_fig3()
        ok = series.max_value("rel_error") <= 5.6e-13 and series.max_value("a_orth_loss") <= 1e-13
        return ok, series.rows

    return Op("experiment fig3", run)


def _fig2_op():
    def run():
        series = harness.experiment_fig2()
        crossing = [k for k, v in series.values("hscg_orth_loss") if v > 1e-8]
        lanczos_loss = [v for _, v in series.values("lanczos_orth_loss")]
        exact_zero = all(v == 0.0 and math.copysign(1.0, v) > 0 for v in lanczos_loss)
        return bool(crossing) and min(crossing) < 24 and exact_zero, series.rows

    return Op("experiment fig2", run)


def build_oracle(seed, tiny, workdir):
    every_k_ns, spot_n, spot_ks, curve_ns = (
        ((4, 6), 8, (4, 8), (3, 4, 5)) if tiny else ((12, 24), 48, (8, 16, 24, 32, 40, 48), [3 + (7 * i) % 22 for i in range(20)])
    )
    ops = []
    for i, n in enumerate(every_k_ns + (spot_n,)):
        prob = problems.random_structured_problem("hessenberg", n, 1000 * seed + i)
        v = prob.v / prob.beta1  # a signed unit vector, exactly
        ops += [_gmres_op(prob.A, v, n, k) for k in (range(1, n + 1) if n != spot_n else spot_ks)]
    ops += [_curves_op(_curves(n, 1000 * seed + 100 + i)) for i, n in enumerate(curve_ns)]
    ops.append(_fig3_op())
    return ops


# ---------------------------------------------------------------------------
# cli-files: gen structured -> run --check-exact --out -> convert, in-process

CLI_CASES = (  # kind, full n, tiny n, block size, algorithm
    ("jacobi", 300, 12, 1, "lanczos"),
    ("hessenberg", 120, 8, 1, "arnoldi"),
    ("nonsymtridiag", 200, 10, 1, "bilanczos"),
    ("lowerbidiag", 200, 10, 1, "gk"),
    ("blocktridiag", 96, 8, 4, "blocklanczos"),
)


def _cli_op(label, argv, reads, writes):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code == 0, writes

    return Op(label, run, reads=reads, writes=writes)


def build_cli_files(seed, tiny, workdir):
    ops = []
    for i, (kind, n_full, n_tiny, p, algorithm) in enumerate(CLI_CASES):
        n = n_tiny if tiny else n_full
        for precision in ("binary64", "binary32"):
            stem = Path(workdir) / f"{kind}-{precision}"
            prob, run_csv, summary_csv = (stem.with_suffix(ext) for ext in (".prob", ".run.csv", ".summary.csv"))
            gen = ["gen", "structured", "--kind", kind, "--n", str(n), "--p", str(p), "--seed", str(1000 * seed + i), "--precision", precision, "--out", str(prob)]
            tag = f"{kind} n={n} {precision}"
            ops.append(_cli_op(f"gen {tag}", gen, (), (prob,)))
            ops.append(_cli_op(f"run {algorithm} {tag}", ["run", algorithm, "--problem", str(prob), "--check-exact", "--out", str(run_csv)], (prob,), (run_csv,)))
            ops.append(_cli_op(f"convert {tag}", ["convert", "--in", str(prob), "--out", str(summary_csv)], (prob,), (summary_csv,)))
    return ops


# ---------------------------------------------------------------------------
# dense-general: general dense SPD input with a graded spectrum


def graded_spd(n, seed):
    """H diag(lam) H for a Householder reflector H = I - beta u u^T.

    Formed entrywise as diag(lam) - beta (u w^T + w u^T) + beta^2 (u^T w) u u^T
    with w = lam * u, so A is dense, bitwise symmetric and independent of BLAS.
    """
    g = problems.make_rng(seed)
    lam = problems.strakos_spectrum(n, 1e-3, 1.0, 0.98)
    u = g.uniform(-1.0, 1.0, n)
    w = lam * u
    beta = 2.0 / math.fsum(u * u)
    gamma = beta * beta * math.fsum(u * w)
    A = np.diag(lam) - beta * (np.outer(u, w) + np.outer(w, u)) + gamma * np.outer(u, u)
    b = g.uniform(0.5, 1.5, n) * (2 * g.integers(0, 2, n) - 1)
    return A, b


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


def _dense_ops(A, b, k, m_orth, m_aorth):
    n = len(b)

    def lanczos_plain():
        res = lanczos_mod.lanczos(A, b, k, reorth="none")
        loss = harness.loss_of_orthogonality(res.V[:, :m_orth])
        return res.k == k and res.breakdown is None and _finite(res.V, res.alpha, res.beta, loss), (res, loss)

    def lanczos_full():
        res = lanczos_mod.lanczos(A, b, k, reorth="full")
        loss = harness.loss_of_orthogonality(res.V[:, :m_orth])
        return res.k == k and res.breakdown is None and float(loss) <= 1e-10, (res, loss)

    def arnoldi():
        res = krylov_general.arnoldi(A, b, k)
        return res.k == k and res.breakdown is None and _finite(res.V, res.H), res

    def cg_hs():
        tr = cg.cg_hs(A, b, kmax=k)
        dirs = np.column_stack(tr.p[:m_aorth])
        aloss = harness.a_orthogonality_loss(dirs, A)
        return tr.steps == k and _finite(tr.x[-1], tr.residual_norms, aloss), (tr.x, tr.residual_norms, tr.gammas, tr.deltas, aloss)

    def cglanczos():
        tr = cg.cglanczos(A, b, kmax=k)
        return tr.steps == k and _finite(tr.x[-1], tr.residual_norms), (tr.x, tr.residual_norms, tr.d, tr.ell)

    return [
        Op(f"lanczos n={n} k={k} reorth=none", lanczos_plain),
        Op(f"lanczos n={n} k={k} reorth=full", lanczos_full),
        Op(f"arnoldi n={n} k={k}", arnoldi),
        Op(f"cg_hs n={n} k={k}", cg_hs),
        Op(f"cglanczos n={n} k={k}", cglanczos),
    ]


def build_dense_general(seed, tiny, workdir):
    ops = []
    for i, (n, k) in enumerate(((8, 8), (12, 10)) if tiny else ((100, 100), (300, 100))):
        A, b = graded_spd(n, 1000 * seed + i)
        ops += _dense_ops(A, b, k, min(k, 4 if tiny else 60), min(k, 4 if tiny else 24))
    ops.append(_fig2_op())
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-large",
            "exactness_check at the largest sizes of criteria 1 and 3: every matvec takes the unit-vector "
            "fast path, so the O(n^2) require_finite scan and the per-element seq_dot/norm2 loops dominate; "
            "no rational work runs.",
            build_exact_large,
            7,
        ),
        Workload(
            "oracle",
            "the exact oracles of criteria 5, 7 and 8 (gmres_structured at every k, rational_cg on prescribed "
            "curves, experiment_fig3): Fraction arithmetic dominates and the fp kernels do little work, so a "
            "kernel change should barely move it while an oracle change shows only here.",
            build_oracle,
            # Four passes (about 40 s on a 2-vCPU Xeon) put the tail
            # percentile, ten samples from the top, inside the 4 samples of
            # GMRES n=48 k=32 rather than among the many ~0.2 s operations.
            4,
        ),
        Workload(
            "cli-files",
            "the user's path, cli.main in-process on files: gen structured -> run --check-exact --out -> convert "
            "for five structure kinds in both precisions; the only workload with fileio writes and CSV writers, "
            "and kernels on short vectors where per-call overhead competes with per-element work.",
            build_cli_files,
            # Twenty passes put the tail percentile, ten samples from the
            # top, at the median of the slowest operation's samples.
            20,
        ),
        Workload(
            "dense-general",
            "general dense SPD inputs with a graded spectrum at n=100 and 300, and experiment_fig2: the unit-vector "
            "fast path never fires, so only this workload measures the column-sweep dense matvec, dense seq_dot "
            "and CG beyond n=24.",
            build_dense_general,
            # Eleven operations and seven passes put the median inside the
            # samples of one operation and the tail percentile at the median
            # of the second slowest, not at an edge between two operations.
            7,
            # Its time goes to numpy calls on short vectors inside Python
            # loops, which a shared host slows more than it slows 8 MB scans.
            ("loop", "axpy"),
        ),
    )
}
