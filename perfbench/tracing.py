"""Per-layer trace, recorded from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper in
every ``krylovexact`` module that binds it (``from .fp import matvec`` binds
``matvec`` again in ``lanczos``, ``krylov_general``, ``cg`` and ``harness``),
and ``uninstall()`` puts the originals back.  A wrapper records one span per
call: its CPU time, and the part of it that child spans cover, so a layer's
self time is its span time minus that coverage.  Counts are taken at the
same boundaries.  Spans are aggregated in memory per name; calls are nested
and single-threaded, so one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> the functions recorded under it, as (module, function).
SPANS = {
    "fp.matvec": [("fp", "matvec")],
    "fp.require_finite": [("fp", "require_finite")],
    "fp.seq_dot": [("fp", "seq_dot")],
    "fp.norm2": [("fp", "norm2")],
    "fp.first_bit_difference": [("fp", "first_bit_difference")],
    "problems.random_structured_problem": [("problems", "random_structured_problem")],
    "problems.assemble": [("problems", "assemble")],
    "lanczos.lanczos": [("lanczos", "lanczos")],
    **{f"krylov_general.{f}": [("krylov_general", f)] for f in ("arnoldi", "nonsym_lanczos", "golub_kahan", "block_lanczos", "gmres_structured", "hessenberg_lstsq")},
    "cg.cg_hs": [("cg", "cg_hs")],
    "cg.cglanczos": [("cg", "cglanczos")],
    **{f"rational.{f}": [("rational", f)] for f in ("rational_lstsq", "rat_solve", "rational_cg", "is_spd_rational")},
    **{f"harness.{f}": [("harness", f)] for f in ("exactness_check", "compare_structured", "loss_of_orthogonality", "a_orthogonality_loss")},
    **{f"fileio.{f}": [("fileio", f)] for f in ("write_problem", "read_problem", "read_matrix")},
    "fileio.csv_write": [("fileio", f) for f in ("write_metric_csv", "write_reports_csv", "write_matrix_summary_csv", "write_vector_csv")] + [("cli", "_write_series_csv")],
    "cli.main": [("cli", "main")],
}

# Entries of these spans are algorithm runs; cli.algorithm_runs_per_command
# counts the outermost ones inside each `run` command.
ALGORITHMS = {"lanczos.lanczos", "krylov_general.arnoldi", "krylov_general.nonsym_lanczos", "krylov_general.golub_kahan", "krylov_general.block_lanczos", "krylov_general.gmres_structured", "cg.cg_hs", "cg.cglanczos"}
STEP_COUNTED = ("lanczos.lanczos", "krylov_general.arnoldi")

# Counts taken at the span boundaries, besides each span's calls.
COUNTS = (
    "fp.matvec.cols",
    "fp.matvec.unit_calls",
    "fp.require_finite.bytes",
    "fp.seq_dot.elems",
    "lanczos.lanczos.steps",
    "krylov_general.arnoldi.steps",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "cli.run_commands",
    "cli.algorithm_entries",
)


def _module(name):
    return sys.modules[f"krylovexact.{name}"]


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, child-covered
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = []  # child-covered time of each open span
        self._algorithm_depth = 0
        self._in_run_command = False
        self._patches = []  # (module, attribute, original)

    def reset(self):
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(COUNTS, 0)

    def add(self, key, amount):
        self.counts[key] += amount

    # -- entry and return hooks, by span name

    def _on_entry(self, span, args, kwargs):
        if span == "fp.matvec":
            nonzero = int(np.count_nonzero(args[1] if len(args) > 1 else kwargs["x"]))
            self.add("fp.matvec.cols", nonzero)
            self.add("fp.matvec.unit_calls", int(nonzero == 1))
        elif span == "fp.require_finite":
            self.add("fp.require_finite.bytes", np.asarray(args[0] if args else kwargs["a"]).nbytes)
        elif span == "fp.seq_dot":
            self.add("fp.seq_dot.elems", len(args[0] if args else kwargs["x"]))
        elif span == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            if argv and argv[0] == "run":
                self.add("cli.run_commands", 1)
                self._in_run_command = True
        if span in ALGORITHMS:
            if self._in_run_command and self._algorithm_depth == 0:
                self.add("cli.algorithm_entries", 1)
            self._algorithm_depth += 1

    def _on_exit(self, span, result):
        if span in ALGORITHMS:
            self._algorithm_depth -= 1
        if span == "cli.main":
            self._in_run_command = False
        if result is not None and span in STEP_COUNTED:
            self.add(f"{span}.steps", result.k)

    def _wrap(self, span, fn):
        stat = self.spans[span]
        hooked = span in ALGORITHMS or span in STEP_COUNTED or span in ("fp.matvec", "fp.require_finite", "fp.seq_dot", "cli.main")
        opened = self._open
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hooked:
                self._on_entry(span, args, kwargs)
            covered = [0.0]
            opened.append(covered)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                opened.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += covered[0]
                if opened:
                    opened[-1][0] += elapsed
                if hooked:
                    self._on_exit(span, result)

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "krylovexact" or name.startswith("krylovexact.")]
        for span, targets in SPANS.items():
            for module_name, function in targets:
                original = getattr(_module(module_name), function)
                traced = self._wrap(span, original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attribute, traced)
                            self._patches.append((module, attribute, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Every value recorded since the last reset, by metric name: each
        span's calls and self_s, the counts and two ratios of them."""
        out = dict(self.counts)
        for span, (calls, total, covered) in self.spans.items():
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = total - covered
        matvecs = self.spans["fp.matvec"][0]
        out["fp.matvec.unit_ratio"] = self.counts["fp.matvec.unit_calls"] / matvecs if matvecs else 0.0
        runs = self.counts["cli.run_commands"]
        out["cli.algorithm_runs_per_command"] = self.counts["cli.algorithm_entries"] / runs if runs else 0.0
        return out
