"""Command-line interface.

Exit codes: 0 = success and all requested checks passed, 1 = a correctness
check failed (first mismatch is printed), 2 = usage, input or I/O error,
including a serious breakdown of nonsymmetric Lanczos.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction

import numpy as np

from . import fileio
from .fp import precision_named, precision_of
from .harness import (
    ALGORITHMS,
    RunInputs,
    compare_structured,
    exactness_sweep,
    experiment_fig2,
    experiment_fig3,
    sqrt_square_violations,
    sweep_failures,
)
from .krylov_general import SeriousBreakdownError
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
from .rational import rational_cg

# the algorithms `run` accepts, and the structured ones the exactness sweeps run
_RUN_CHOICES = [name for name, a in ALGORITHMS.items() if a.columns]
_STRUCTURED = [name for name, a in ALGORITHMS.items() if a.kind]


def _add_precision(p):
    p.add_argument("--precision", choices=["binary64", "binary32"], default="binary64")


def _build_parser():
    ap = argparse.ArgumentParser(prog="krylovexact", description="Krylov recurrences with bit-level exactness checks")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate matrices, vectors, and structured problems")
    gen.add_argument("what", choices=[*STRUCTURES, "strakos", "structured"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p", type=int, default=1, help="block size (blocktridiag, structured blocktridiag)")
    gen.add_argument("--spd", action="store_true", help="shift the diagonal to force positive definiteness (jacobi)")
    gen.add_argument("--kind", choices=list(STRUCTURES), default="jacobi", help="structure kind for `gen structured`")
    gen.add_argument("--lam1", type=float, default=1e-3)
    gen.add_argument("--lamn", type=float, default=1.0)
    gen.add_argument("--rho", type=float, default=0.7)
    _add_precision(gen)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run an algorithm on a matrix or problem file")
    run.add_argument("algorithm", choices=_RUN_CHOICES)
    run.add_argument("--problem", required=True, help="matrix or problem file")
    start = run.add_mutually_exclusive_group()
    start.add_argument("--e1", action="store_true", help="start from beta1 * e1")
    start.add_argument("--v-file", help="read the starting vector from a file")
    run.add_argument("--beta1", type=float, help="scale for --e1 (default 1)")
    run.add_argument("--w-file", help="left starting vector file (bilanczos on matrix files)")
    run.add_argument("--k", type=int, default=0, help="number of steps (default: full dimension)")
    run.add_argument("--variant", choices=["mgs", "cgs"], default="mgs")
    run.add_argument("--reorth", choices=["none", "full", "double"], default="none")
    run.add_argument("--qr-variant", choices=["mgs", "cgs"], default="mgs")
    run.add_argument("--check-exact", action="store_true", help="compare bitwise against the structured generator")
    run.add_argument("--out", help="CSV output path")

    chk = sub.add_parser("check", help="run a correctness check")
    chk.add_argument("what", choices=["exactness", "lemma31", "bound52", "structure"])
    chk.add_argument("--algorithm", choices=_STRUCTURED, default="lanczos")
    chk.add_argument("--sizes", default="2,10,50", help="comma-separated instance sizes")
    chk.add_argument("--seeds", type=int, default=10, help="number of seeds per size")
    chk.add_argument("--p", type=int, default=1)
    chk.add_argument("--variant", choices=["mgs", "cgs"], default="mgs")
    chk.add_argument("--qr-variant", choices=["mgs", "cgs"], default="mgs")
    chk.add_argument("--samples", type=int, default=1000000)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--problem", help="matrix file for `check structure`")
    chk_start = chk.add_mutually_exclusive_group()
    chk_start.add_argument("--e1", action="store_true")
    chk_start.add_argument("--v-file")
    chk.add_argument("--beta1", type=float)
    _add_precision(chk)

    exp = sub.add_parser("experiment", help="run an experiment and write its CSV")
    exp.add_argument("what", choices=["fig2", "fig3", "prescribed-curves", "exactness-sweep"])
    exp.add_argument("--n", type=int, default=12)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--seeds", type=int, default=5)
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


def _write_series_csv(path, pairs):
    with open(path, "w", newline="") as f:
        fileio.write_vector_csv(f, pairs)


def _cmd_gen(args) -> int:
    precision = precision_named(args.precision)
    if args.what == "structured":
        prob = random_structured_problem(args.kind, args.n, args.seed, precision, p=args.p, spd=args.spd)
        with open(args.out, "w") as f:
            fileio.write_problem(f, prob)
        return 0
    if args.what == "strakos":
        T = strakos_spectrum(args.n, args.lam1, args.lamn, args.rho, precision)
    else:
        T = random_structure(args.what, args.n, args.seed, precision, p=args.p, spd=args.spd)
    with open(args.out, "w") as f:
        fileio.write_matrix(f, T)
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
    w = prob.w if prob is not None else None  # bilanczos's left vector: the problem's, --w-file, or v
    if w is not None and args.w_file:
        raise ValueError("--w-file conflicts with the left starting vector of the problem file")
    if w is None:
        w = _read_vector(args.w_file, "--w-file") if args.w_file else v.copy()
    x = RunInputs(A, v, w, prob.U1 if prob is not None else None, args.variant, args.reorth, args.qr_variant)
    full = entry.steps(x)
    if args.check_exact and 0 < args.k < full:
        raise ValueError(f"--check-exact compares the full run of {full} steps; --k {args.k} stops it early")
    res = entry.run(x, args.k or full)
    ok = _check_against_structure(A, v, prob, args.algorithm, res) if args.check_exact else True
    if args.out:
        _write_series_csv(args.out, entry.columns(res))
    return 0 if ok else 1


def _check_against_structure(A, v, prob, algorithm, result) -> bool:
    if prob is None:
        found = detect_structure(A, v)
        if found is None:
            raise ValueError("input is not a structured (P T P^T, beta1 P e1) pair")
        if algorithm != "lanczos":
            raise ValueError("structure detection supports symmetric tridiagonal inputs only")
        P, T, beta1 = found
        prob = assemble(T, P, beta1)
    report = compare_structured(prob, algorithm, result)
    if not report.ok:
        print(f"exactness check FAILED: first mismatch at {report.mismatch}", file=sys.stderr)
        return False
    print("exactness check passed: bitwise match")
    return True


def _cmd_check(args) -> int:
    precision = precision_named(args.precision)
    if args.what == "lemma31":
        bad = sqrt_square_violations(args.samples, precision, args.seed)
        print(f"lemma31: {args.samples} samples, {bad} violations ({precision.name})")
        return 0 if bad == 0 else 1
    if args.what == "exactness":
        sizes = [int(s) for s in args.sizes.split(",") if s]
        reports = exactness_sweep(args.algorithm, sizes, range(args.seeds), (precision,), p=args.p, variant=args.variant, qr_variant=args.qr_variant)
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
    if args.what == "structure":
        if not args.problem:
            raise ValueError("check structure needs --problem")
        A, v, _, _ = _load_input(args.problem)
        found = detect_structure(A, _starting_vector(args, A, v))
        if found is None:
            print("no structure detected", file=sys.stderr)
            return 1
        P, T, beta1 = found
        print(f"structured: n={T.n}, beta1={float(beta1)!r}")
        return 0
    raise ValueError(f"unknown check {args.what!r}")


def _cmd_experiment(args) -> int:
    if args.what == "fig2":
        series = experiment_fig2()
        with open(args.out, "w", newline="") as f:
            fileio.write_metric_csv(f, series)
        print(f"fig2: max loss of orthogonality {series.max_value('hscg_orth_loss'):.3e}")
        return 0
    if args.what == "fig3":
        series = experiment_fig3()
        with open(args.out, "w", newline="") as f:
            fileio.write_metric_csv(f, series)
        print(f"fig3: max A-orthogonality loss {series.max_value('a_orth_loss'):.3e}, max relative error {series.max_value('rel_error'):.3e}")
        return 0
    if args.what == "prescribed-curves":
        curves = random_convergence_curves(args.n, args.seed)
        system = prescribe_cg_curves(curves)
        trace = rational_cg(system.exact_matrix(), system.exact_rhs())
        prescribed = [Fraction(float(x)) ** 2 for x in curves.residual_norms]
        ok = all(trace.rnorm2[j] == prescribed[j] for j in range(args.n))
        _write_series_csv(args.out, [("residual_norm_sq", [float(q) for q in trace.rnorm2])])
        print(f"prescribed-curves: roundtrip {'exact' if ok else 'MISMATCH'} over {args.n} steps")
        return 0 if ok else 1
    if args.what == "exactness-sweep":
        reports = []
        for alg in _STRUCTURED:  # p is the block size of blocklanczos; the others ignore it
            reports += exactness_sweep(alg, (4, 12), range(args.seeds), p=2)
        with open(args.out, "w", newline="") as f:
            fileio.write_reports_csv(f, reports)
        bad = sweep_failures(reports)
        print(f"exactness-sweep: {len(reports)} instances, {len(bad)} mismatches")
        return 0 if not bad else 1
    raise ValueError(f"unknown experiment {args.what!r}")


def _cmd_convert(args) -> int:
    T = _load_input(args.infile)[3]
    with open(args.out, "w", newline="") as f:
        fileio.write_matrix_summary_csv(f, T)
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "convert":
            return _cmd_convert(args)
    except (ValueError, TypeError, OSError, SeriousBreakdownError) as e:  # ValueError covers the fp and fileio errors
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
