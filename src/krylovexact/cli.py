"""Command-line interface.

Exit codes: 0 = success and all requested checks passed, 1 = a correctness
check failed (first mismatch is printed), 2 = usage, input or I/O error,
including a serious breakdown of nonsymmetric Lanczos.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from fractions import Fraction

import numpy as np

from . import fileio
from .fp import PRECISIONS, precision_named, precision_of
from .harness import (
    ALGORITHMS,
    SWEEPS,
    RunInputs,
    compare_structured,
    exactness_sweep,
    experiment_fig2,
    experiment_fig3,
    sqrt_square_violations,
    structured_entry,
    sweep_failures,
)
from .krylov_general import SeriousBreakdownError
from .lanczos import REORTH, VARIANTS
from .problems import (
    STRUCTURES,
    assemble,
    detect_structure,
    prescribe_cg_curves,
    random_convergence_curves,
    random_structure,
    random_structured_problem,
    strakos_spectrum,
)
from .rational import MAX_ORACLE_DIM, StepLimitError, rational_cg


def _add_start(p):
    start = p.add_mutually_exclusive_group()
    start.add_argument("--e1", action="store_true", help="start from beta1 * e1")
    start.add_argument("--v-file", help="read the starting vector from a file")
    p.add_argument("--beta1", type=float, help="scale for --e1 (default 1)")


@functools.cache  # built on the first main call and reused: one build costs about 18 parses
def _build_parser():
    ap = argparse.ArgumentParser(prog="krylovexact", description="Krylov recurrences with bit-level exactness checks")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate matrices, vectors, and structured problems")
    gen.add_argument("what", choices=[*STRUCTURES, "strakos", "structured"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, help="seed of every target but strakos (default 0)")
    gen.add_argument("--p", type=int, default=1, help="block size (blocktridiag, structured blocktridiag)")
    gen.add_argument("--spd", action="store_true", help="shift the diagonal to force positive definiteness (jacobi, structured --kind jacobi)")
    gen.add_argument("--kind", choices=list(STRUCTURES), help="structure kind for `gen structured` (default jacobi)")
    gen.add_argument("--lam1", type=float, help="strakos (default 1e-3)")
    gen.add_argument("--lamn", type=float, help="strakos (default 1)")
    gen.add_argument("--rho", type=float, help="strakos (default 0.7)")
    gen.add_argument("--precision", choices=[row.name for row in PRECISIONS], default=PRECISIONS[0].name)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run an algorithm on a matrix or problem file")
    run.add_argument("algorithm", choices=list(ALGORITHMS))
    run.add_argument("--problem", required=True, help="matrix or problem file")
    _add_start(run)
    run.add_argument("--w-file", help="left starting vector file (bilanczos on matrix files)")
    run.add_argument("--k", type=int, default=0, help="number of steps (default: full dimension)")
    run.add_argument("--variant", choices=VARIANTS, help="Gram-Schmidt variant of lanczos (default mgs)")
    run.add_argument("--reorth", choices=REORTH, help="reorthogonalization of lanczos (default none)")
    run.add_argument("--qr-variant", choices=VARIANTS, help="block QR of blocklanczos (default mgs)")
    run.add_argument("--check-exact", action="store_true", help="compare bitwise against the structured generator")
    run.add_argument("--out", help="CSV output path")

    chk = sub.add_parser("check", help="run a correctness check")
    chk.add_argument("what", choices=["exactness", "lemma31", "bound52", "structure"])
    chk.add_argument("--algorithm", choices=SWEEPS, help="sweep of `check exactness` (default lanczos)")
    chk.add_argument("--sizes", help="comma-separated instance sizes of `check exactness` (default 2,10,50)")
    chk.add_argument("--seeds", type=int, help="number of seeds per size of `check exactness` (default 10)")
    chk.add_argument("--p", type=int, help="block size of blocklanczos (default 1)")
    chk.add_argument("--variant", choices=VARIANTS, help="Gram-Schmidt variant of lanczos and deficient (default mgs)")
    chk.add_argument("--qr-variant", choices=VARIANTS, help="block QR of blocklanczos (default mgs)")
    chk.add_argument("--samples", type=int, help="samples of `check lemma31` (default 1000000)")
    chk.add_argument("--seed", type=int, help="seed of `check lemma31` (default 0)")
    chk.add_argument("--problem", help="matrix file for `check structure`")
    _add_start(chk)
    chk.add_argument("--precision", choices=[row.name for row in PRECISIONS], help="default binary64; structure reads the file's")

    exp = sub.add_parser("experiment", help="run an experiment and write its CSV")
    exp.add_argument("what", choices=["fig2", "fig3", "prescribed-curves", "exactness-sweep"])
    exp.add_argument("--n", type=int, help=f"steps of prescribed-curves, 1 to {MAX_ORACLE_DIM} (default 12)")
    exp.add_argument("--seed", type=int, help="seed of prescribed-curves (default 0)")
    exp.add_argument("--seeds", type=int, help="seeds per size of exactness-sweep (default 5)")
    exp.add_argument("--out", required=True)

    cnv = sub.add_parser("convert", help="matrix/problem file to CSV summary")
    cnv.add_argument("--in", dest="infile", required=True)
    cnv.add_argument("--out", required=True)
    return ap


def _load_input(path):
    """(A, v, prob_or_None, raw_structure)."""
    with open(path) as f:
        text = f.read()
    if "signedperm" in text or "signedblockperm" in text:
        prob = fileio.read_problem(io.StringIO(text))
        return prob.A, prob.v, prob, prob.T
    T = fileio.read_matrix(io.StringIO(text))
    A = T if isinstance(T, np.ndarray) else T.to_dense()
    return A, None, None, T


def _read_vector(path, flag):
    with open(path) as f:
        v = fileio.read_matrix(f)
    if not isinstance(v, np.ndarray) or v.ndim != 1:
        raise fileio.FormatError(f"{flag} must contain a vector record")
    return v


def _starting_vector(args, A, v):
    """v of a problem file, else --v-file, else beta1 * e1; a flag that would be ignored is an error."""
    if v is not None:
        for flag, given in (("--v-file", args.v_file), ("--e1", args.e1), ("--beta1", args.beta1 is not None)):
            if given:
                raise ValueError(f"{flag} conflicts with the starting vector of the problem file")
        return v
    if args.v_file:
        if args.beta1 is not None:
            raise ValueError("--beta1 scales --e1 and does not apply to --v-file")
        return _read_vector(args.v_file, "--v-file")
    beta1 = 1.0 if args.beta1 is None else args.beta1
    v = np.zeros(A.shape[0], dtype=A.dtype)
    with np.errstate(over="ignore"):  # an overflowed cast raises below
        v[0] = A.dtype.type(beta1)
    if not 0 < v[0] < np.inf:
        raise ValueError(f"--beta1 must be positive and finite in {precision_of(A).name}, got {beta1!r}")
    return v


def _reject_unread(args, target, readers):
    """ValueError naming the first flag of readers, {flag: its readers}, that is given to a target not among them."""
    for flag, names in readers.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and target not in names:  # a given 0 is given: 0 == False
            raise ValueError(f"{flag} applies to {' and '.join(filter(None, (', '.join(names[:-1]), names[-1])))} only")


def _fill(args, **defaults):
    """Set each flag of defaults that is not given to its default, once _reject_unread has seen what is."""
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _given(args, *dests):
    """{dest: value} of the flags given, so the callee's defaults fill in the rest."""
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _write_series_csv(path, pairs):
    with open(path, "w", newline="") as f:
        fileio.write_vector_csv(f, pairs)


_GEN_READERS = {
    "--seed": tuple(f"gen {what}" for what in (*STRUCTURES, "structured")),
    "--kind": ("gen structured",),
    **dict.fromkeys(("--lam1", "--lamn", "--rho"), ("gen strakos",)),
}


def _cmd_gen(args) -> int:
    _reject_unread(args, f"gen {args.what}", _GEN_READERS)
    _fill(args, seed=0, kind="jacobi", lam1=1e-3, lamn=1.0, rho=0.7)
    target = f"gen structured --kind {args.kind}" if args.what == "structured" else f"gen {args.what}"
    _reject_unread(args, target, {"--spd": ("gen jacobi", "gen structured --kind jacobi")})
    if args.p != 1 and target not in ("gen blocktridiag", "gen structured --kind blocktridiag"):  # the default, --p 1, is valid for every kind
        raise ValueError("--p applies to gen blocktridiag and gen structured --kind blocktridiag only")
    precision = precision_named(args.precision)
    if args.what == "structured":
        drawn = random_structured_problem(args.kind, args.n, args.seed, precision, p=args.p, spd=args.spd)
    elif args.what == "strakos":
        drawn = strakos_spectrum(args.n, args.lam1, args.lamn, args.rho, precision)
    else:
        drawn = random_structure(args.what, args.n, args.seed, precision, p=args.p, spd=args.spd)
    with open(args.out, "w") as f:  # after the draw, so an error leaves no file
        (fileio.write_problem if args.what == "structured" else fileio.write_matrix)(f, drawn)
    return 0


def _cmd_run(args) -> int:
    """Run the algorithm once; --check-exact compares that run, the one --out writes."""
    A, v, prob, _ = _load_input(args.problem)
    v = _starting_vector(args, A, v)
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    entry = ALGORITHMS[args.algorithm]
    if args.check_exact and entry.kind is None:
        raise ValueError("--check-exact applies to basis algorithms only")
    _reject_unread(args, args.algorithm, _RUN_READERS)
    w = prob.w if prob is not None else None  # bilanczos's left vector: the problem's, --w-file, or v
    if w is not None and args.w_file:
        raise ValueError("--w-file conflicts with the left starting vector of the problem file")
    if w is None and args.algorithm == "bilanczos":
        w = _read_vector(args.w_file, "--w-file") if args.w_file else v.copy()
    x = RunInputs(A, v, w, prob.U1 if prob is not None else None, **_given(args, "variant", "reorth", "qr_variant"))
    full = entry.steps(x)
    if args.check_exact and 0 < args.k < full:
        raise ValueError(f"--check-exact compares the full run of {full} steps; --k {args.k} stops it early")
    if args.check_exact:  # settled before the run, so no run is discarded
        prob = _detected_problem(A, v, args.algorithm) if prob is None else prob
        structured_entry(prob, args.algorithm)
    res = entry.run(x, args.k or full)
    ok = _check_against_structure(prob, args.algorithm, res) if args.check_exact else True
    if args.out:
        _write_series_csv(args.out, entry.columns(res))
    return 0 if ok else 1


def _detected_problem(A, v, algorithm):
    if algorithm != "lanczos":
        raise ValueError("structure detection supports symmetric tridiagonal inputs only")
    found = detect_structure(A, v)
    if found is None:
        raise ValueError("input is not a structured (P T P^T, beta1 P e1) pair")
    P, T, beta1 = found
    return assemble(T, P, beta1)


def _check_against_structure(prob, algorithm, result) -> bool:
    report = compare_structured(prob, algorithm, result)
    if not report.ok:
        print(f"exactness check FAILED: first mismatch at {report.mismatch}", file=sys.stderr)
        return False
    print("exactness check passed: bitwise match")
    return True


_RUN_READERS = {"--w-file": ("bilanczos",), "--variant": ("lanczos",), "--reorth": ("lanczos",), "--qr-variant": ("blocklanczos",)}
_CHECK_READERS = {
    **dict.fromkeys(("--problem", "--e1", "--v-file", "--beta1"), ("check structure",)),
    "--precision": ("check lemma31", "check exactness", "check structure"),  # bound52 runs fig3, which is binary64
    **dict.fromkeys(("--algorithm", "--sizes", "--seeds", "--p", "--variant", "--qr-variant"), ("check exactness",)),
    **dict.fromkeys(("--samples", "--seed"), ("check lemma31",)),
}
_SWEEP_READERS = {"--variant": ("lanczos", "deficient"), "--qr-variant": ("blocklanczos",), "--p": ("blocklanczos",)}


def _cmd_check(args) -> int:
    _reject_unread(args, f"check {args.what}", _CHECK_READERS)
    _fill(args, algorithm="lanczos", sizes="2,10,50", seeds=10, samples=1000000, seed=0)
    if args.what == "exactness":
        _reject_unread(args, args.algorithm, _SWEEP_READERS)
    precision = precision_named(args.precision or PRECISIONS[0].name)
    if args.what == "lemma31":
        bad = sqrt_square_violations(args.samples, precision, args.seed)
        print(f"lemma31: {args.samples} samples, {bad} violations ({precision.name})")
        return 0 if bad == 0 else 1
    if args.what == "exactness":
        sizes = [int(s) for s in args.sizes.split(",") if s]
        reports = exactness_sweep(args.algorithm, sizes, range(args.seeds), (precision,), **_given(args, "p", "variant", "qr_variant"))
        bad = sweep_failures(reports)
        print(f"exactness[{args.algorithm}]: {len(reports)} instances, {len(bad)} mismatches")
        for r in bad[:5]:
            print(f"  mismatch at {r.mismatch} (n={r.n}, seed={r.seed}, {r.precision})", file=sys.stderr)
        return 0 if not bad else 1
    if args.what == "bound52":
        series = experiment_fig3()
        rel = series.max_value("rel_error")
        aorth = series.max_value("a_orth_loss")
        ok = rel <= 5.6e-13 and aorth <= 1e-13
        print(f"bound52: max relative error {rel:.3e} (limit 5.6e-13), max A-orthogonality loss {aorth:.3e} (limit 1e-13)")
        return 0 if ok else 1
    if not args.problem:  # structure
        raise ValueError("check structure needs --problem")
    A, v, _, _ = _load_input(args.problem)
    if args.precision not in (None, precision_of(A).name):
        raise ValueError(f"--precision {args.precision} differs from the file's {precision_of(A).name}")
    found = detect_structure(A, _starting_vector(args, A, v))
    if found is None:
        print("no structure detected", file=sys.stderr)
        return 1
    P, T, beta1 = found
    print(f"structured: n={T.n}, beta1={float(beta1)!r}")
    return 0


_EXPERIMENT_READERS = {**dict.fromkeys(("--n", "--seed"), ("experiment prescribed-curves",)), "--seeds": ("experiment exactness-sweep",)}


def _cmd_experiment(args) -> int:
    _reject_unread(args, f"experiment {args.what}", _EXPERIMENT_READERS)
    _fill(args, n=12, seed=0, seeds=5)
    if args.what in ("fig2", "fig3"):
        series = experiment_fig2() if args.what == "fig2" else experiment_fig3()
        with open(args.out, "w", newline="") as f:
            fileio.write_metric_csv(f, series)
        if args.what == "fig2":
            print(f"fig2: max loss of orthogonality {series.max_value('hscg_orth_loss'):.3e}")
        else:
            print(f"fig3: max A-orthogonality loss {series.max_value('a_orth_loss'):.3e}, max relative error {series.max_value('rel_error'):.3e}")
        return 0
    if args.what == "prescribed-curves":
        if not 1 <= args.n <= MAX_ORACLE_DIM:  # before the draw, whose energies underflow from n of about 1,070
            raise ValueError(f"--n must be between 1 and {MAX_ORACLE_DIM} (the rational oracle's limit), got {args.n}")
        curves = random_convergence_curves(args.n, args.seed)
        system = prescribe_cg_curves(curves)
        trace = rational_cg(system.exact_matrix(), system.exact_rhs())
        prescribed = [[Fraction(float(x)) ** 2 for x in curve] for curve in (curves.residual_norms, curves.energy_errors)]
        ok = [trace.rnorm2[: args.n], trace.energy2[: args.n]] == prescribed
        _write_series_csv(args.out, [("residual_norm_sq", [float(q) for q in trace.rnorm2])])
        print(f"prescribed-curves: roundtrip {'exact' if ok else 'MISMATCH'} over {args.n} steps")
        return 0 if ok else 1
    reports = []  # exactness-sweep
    for alg in SWEEPS:  # p is the block size of blocklanczos; the others ignore it
        reports += exactness_sweep(alg, (4, 12), range(args.seeds), p=2)
    with open(args.out, "w", newline="") as f:
        fileio.write_reports_csv(f, reports)
    bad = sweep_failures(reports)
    print(f"exactness-sweep: {len(reports)} instances, {len(bad)} mismatches")
    return 0 if not bad else 1


def _cmd_convert(args) -> int:
    T = _load_input(args.infile)[3]
    with open(args.out, "w", newline="") as f:
        fileio.write_matrix_summary_csv(f, T)
    return 0


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "check": _cmd_check, "experiment": _cmd_experiment, "convert": _cmd_convert}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, TypeError, OSError, MemoryError, SeriousBreakdownError, StepLimitError) as e:  # ValueError covers the fp and fileio errors
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
