"""Benchmark of the krylovexact package: four workloads, end-to-end metrics,
an outside-in per-layer trace and a bit-identity gate.

Run from the repository root (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload exact-large --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see ``workloads.py``) is a fixed operation list built from
``--seed``.  One client runs it in passes, one operation after another.  The
pass count is fixed per workload (15 s to 45 s of work at ``--seconds 30``)
and scales with ``--seconds``, so that two commits compared at the same
``--seconds`` do the same work and their percentiles rank the same samples.
A run whose passes have not all ended after 5 x ``--seconds`` of wall time
stops there and fails (exit status 1); it never reports a shorter run.

Times are CPU time (user + system) of the process that does the work, not
wall time, scaled to a reference speed.  Every workload is one thread that
never waits, so CPU and wall time agree on an idle machine; CPU time leaves
out the time a shared host takes the CPU away, which on a 2-vCPU VM stretched
wall time by up to 5x.  What CPU time does not leave out is the host running
the CPU slower while other tenants load it (shared caches, memory bandwidth,
clock), which moved pass times by up to 1.6x within one run.  So a fixed
probe that uses nothing of the package (``PROBE_PARTS``: an interpreter loop,
``Fraction`` arithmetic and numpy scans of an 8 MB array by default; an
interpreter loop and numpy calls on short vectors for dense-general, whose
work is that) runs before the first operation of a pass and after every
operation, and each latency is divided by the median of the four probes
around it, each a ratio of its CPU time to that on an idle reference host.
A time is thus the CPU time the operation would take on the reference host;
the record keeps the unscaled times too.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median time of seven child interpreters that import
  ``krylovexact`` and ``krylovexact.cli`` and build the workload's inputs,
  each scaled by the six probes around it, run one after another in the gaps
  between the passes;
* ``time_to_verdict_s``: median over passes of the time to run the operation
  list: the sum of its operations' latencies, each verdict included and the
  hashing for the bit-identity gate left out;
* ``op_p50_ms``, ``op_tail_ms``: per-operation latency, median and the highest
  percentile with at least ten samples beyond it;
* ``peak_rss_mb``: peak resident set of the benchmark process, in MiB.

``fail_ratio`` (operations with a wrong verdict, an exception, a nonzero CLI
exit or an output-digest mismatch, over operations attempted) is printed too;
the JSON line carries it as ``failed``/``attempted``.  Any failure makes the
command exit with status 1.

``--trace 1`` runs half as many passes untraced, then as many traced (see
``tracing.py``), and reports the per_layer metrics named in BENCHMARK.json:
those in seconds as the median over traced passes, the others as counts of
one pass, which must repeat exactly in every pass.

Bit-identity gate: every operation's outputs are hashed (raw bits of
coefficients and bases, bytes of written files).  The digest must repeat in
every pass, and at the default seed it must equal the one stored in
``digests.json``.  ``--record-digests`` rewrites the stored digests of one
workload after a deliberate change of outputs.

Each run writes a record to ``perfbench/out/``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TINY_PASSES = 2
# A run stops and fails once it has taken this many times --seconds of wall
# time, so that it ends in bounded time on a much slower or busier machine.
TIME_LIMIT_FACTOR = 5
DIGESTS = HERE / "digests.json"
PROBE_ARRAY = np.ones((1000, 1000))


def _import_workloads():
    """Import the benchmark's workloads from this checkout's ``src/``, or exit 2."""
    package = ROOT / "src" / "krylovexact"
    if not (package / "__init__.py").is_file():
        print(f"error: no krylovexact package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    imported = Path(sys.modules["krylovexact"].__file__).resolve().parent
    if imported != package.resolve():
        print(f"error: imported krylovexact from {imported}, not {package}", file=sys.stderr)
        sys.exit(2)
    return workloads


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or `all`")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30, help="nominal measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes and two passes (self-tests)")
    ap.add_argument("--record-digests", action="store_true", help="store this run's digests instead of checking them")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# run record


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring


def _setup_command(args):
    """A fresh interpreter that imports the package and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + ["--tiny"] * args.tiny


def _child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _probe_loop():
    total, items = 0.0, []
    for i in range(14000):
        total += i * 0.5
        items.append(total)


def _probe_fraction():
    q = Fraction(0)
    for k in range(1, 130):
        q += Fraction(k, 2 * k + 1) * Fraction(3, k + 7)


def _probe_scan():
    for _ in range(2):
        bool(np.isfinite(PROBE_ARRAY).all())


def _probe_axpy():
    x, y = PROBE_ARRAY[0, :300], np.zeros(300)
    for j in range(700):
        y += (j * 1e-3) * x


# The parts of the speed probe, each with its CPU seconds between the
# operations of a run on an idle 2-vCPU Intel Xeon.  A workload's probe runs
# the parts it names (Workload.probe).
PROBE_PARTS = {
    "loop": (_probe_loop, 0.00125),  # interpreter loop over Python floats
    "fraction": (_probe_fraction, 0.00095),  # Fraction arithmetic, big-int gcd
    "scan": (_probe_scan, 0.0021),  # numpy scans of an 8 MB array
    "axpy": (_probe_axpy, 0.0014),  # numpy calls on 300-element vectors
}


def _make_probe(parts):
    """A function that runs the named probe parts, which use nothing of the
    package, and returns their CPU time over the reference time: how much
    slower than the reference host this process runs right now.  The
    garbage collector is off meanwhile, so that the heap's size does not
    count."""
    reference = sum(PROBE_PARTS[name][1] for name in parts)
    functions = [PROBE_PARTS[name][0] for name in parts]

    def probe():
        gc.disable()
        try:
            start = time.process_time()
            for fn in functions:
                fn()
            return (time.process_time() - start) / reference
        finally:
            gc.enable()

    return probe


def _time_child(cmd, probe):
    """CPU time of a child interpreter, scaled by the probes around it."""
    slowness = [probe() for _ in range(3)]
    start = _child_cpu_s()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    elapsed = _child_cpu_s() - start
    slowness += [probe() for _ in range(3)]
    return elapsed / statistics.median(slowness)


class OutOfTime(Exception):
    """The run reached its time limit before its planned passes ended."""


class Gate:
    """Verdicts and the bit-identity gate: records every failed attempt."""

    def __init__(self, expected):
        self.expected = expected  # op name -> stored digest, or None
        self.first = {}  # op name -> digest of its first attempt
        self.attempted = 0
        self.failures = []

    def check(self, op, ok, outputs, error, digest):
        self.attempted += 1
        reason = error or (None if ok else "wrong verdict")
        if reason is None:
            value = digest(outputs)
            self.first.setdefault(op.name, value)
            if value != self.first[op.name]:
                reason = "outputs changed between passes"
            elif self.expected is not None and self.expected.get(op.name) != value:
                reason = "output digest differs from the stored one"
        if reason:
            self.failures.append(f"{op.name}: {reason}")


def _size(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _run_pass(ops, limit, gate, digest, probe, tracer=None):
    """CPU times of the operations of one pass: as measured, and scaled to
    reference speed by the probes around each (before it: slowness[i])."""
    latencies, slowness = [], [probe()]
    for op in ops:
        if time.perf_counter() > limit:
            raise OutOfTime
        error = None
        outputs = None
        start = time.process_time()
        try:
            ok, outputs = op.run()
        except Exception as e:  # an operation that raises is a failed attempt
            ok, error = False, f"{type(e).__name__}: {e}"
        latencies.append(time.process_time() - start)
        if tracer is not None:
            tracer.add("fileio.bytes_read", _size(op.reads))
            tracer.add("fileio.bytes_written", _size(op.writes))
        gate.check(op, ok, outputs, error, digest)
        slowness.append(probe())
    scaled = [t / statistics.median(slowness[max(0, i - 1) : i + 3]) for i, t in enumerate(latencies)]
    return latencies, scaled


def _tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def _run_passes(ops, passes, limit, gate, digest, probe, setup_cmd=None):
    """Latencies of each pass, as measured and scaled.  With setup_cmd, also
    the times of SETUP_REPEATS fresh set-ups, spread over the gaps before,
    between and after the passes so that they sample the whole run, not one
    moment."""
    latencies, scaled, setups = [], [], []
    for gap in range(passes + 1):
        if setup_cmd:
            count = sum(1 for j in range(SETUP_REPEATS) if j * (passes + 1) // SETUP_REPEATS == gap)
            setups += [_time_child(setup_cmd, probe) for _ in range(count)]
        if gap < passes:
            raw, fast = _run_pass(ops, limit, gate, digest, probe)
            latencies.append(raw)
            scaled.append(fast)
    return latencies, scaled, setups


def _end_to_end(pass_latencies, setups):
    samples = [t for lat in pass_latencies for t in lat]
    tail, pct, beyond = _tail(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "time_to_verdict_s": (statistics.median(sum(lat) for lat in pass_latencies), "s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "time_to_verdict_s": f"median of {len(pass_latencies)} passes",
        "op_p50_ms": f"{len(samples)} samples",
        "op_tail_ms": f"p{pct:.1f}, {beyond} of {len(samples)} samples beyond",
    }
    return metrics, notes


def _per_layer(ops, passes, limit, gate, digest, probe, untraced_pass_s):
    """The per_layer metrics of BENCHMARK.json: self times as medians over
    passes, other units as counts that must repeat in every pass.  Self times
    are CPU seconds as measured; trace.overhead_s compares pass times scaled
    to reference speed, so that the host's drift between the untraced and
    the traced passes does not count."""
    import tracing

    tracer = tracing.Tracer()
    per_pass = []
    tracer.install()
    try:
        for _ in range(passes):
            tracer.reset()
            _, scaled = _run_pass(ops, limit, gate, digest, probe, tracer)
            per_pass.append((sum(scaled), tracer.metrics()))
    finally:
        tracer.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    first = per_pass[0][1]
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in declared if m["name"] != "trace.overhead_s"):
        values = [m[name] for _, m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if any(v != values[0] for v in values):
                gate.failures.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = (first[name], unit)
    traced_pass_s = statistics.median(t for t, _ in per_pass)
    metrics["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    notes = {"trace.overhead_s": f"traced {traced_pass_s:.4f} s over {len(per_pass)} passes - untraced {untraced_pass_s:.4f} s"}
    return metrics, notes


# ---------------------------------------------------------------------------


def _run_workload(args, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload]
    profile = "tiny" if args.tiny else "full"
    workdir = HERE / "out" / f"work-{os.getpid()}"
    ops = workload.build(args.seed, args.tiny, str(workdir))
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise SystemExit(f"error: duplicate operation names in {args.workload}")
    if args.setup_child:
        return 0

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = stored.get(profile, {}).get(args.workload, {})
    gate = Gate(expected)
    passes = TINY_PASSES if args.tiny else max(1, round(workload.passes * args.seconds / 30))
    if args.trace:  # half untraced, half traced, so a traced run takes no longer
        passes = max(2, passes // 2)

    planned = 2 * passes if args.trace else passes
    workdir.mkdir(parents=True, exist_ok=True)
    limit_s = TIME_LIMIT_FACTOR * args.seconds
    limit = time.perf_counter() + limit_s
    untraced = scaled = []
    probe = _make_probe(workload.probe)
    for _ in range(5):  # warm the probe up
        probe()
    try:
        untraced, scaled, setups = _run_passes(ops, passes, limit, gate, workloads.digest, probe, None if args.trace else _setup_command(args))
        if args.trace:
            untraced_pass_s = statistics.median(sum(lat) for lat in scaled)
            metrics, notes = _per_layer(ops, passes, limit, gate, workloads.digest, probe, untraced_pass_s)
        else:
            metrics, notes = _end_to_end(scaled, setups)
    except OutOfTime:
        metrics, notes = {}, {}
        gate.failures.append(f"run stopped at its time limit of {limit_s} s wall time, {gate.attempted // len(ops)} of {planned} passes done")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(gate.failures)
    fail_ratio = failed / gate.attempted
    passes_run = gate.attempted // len(ops)
    print(f"workload {args.workload}: seed {args.seed}, {profile} sizes, {passes_run} of {planned} planned passes of {len(ops)} operations, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6f} {unit}{note}")
    print(f"  {'fail_ratio':44s} {fail_ratio:14.6f} ratio  ({failed} of {gate.attempted} operations)")
    for line in gate.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.record_digests:
        if args.seed != DEFAULT_SEED or failed:
            print(f"error: digests are recorded only from a clean run at seed {DEFAULT_SEED}", file=sys.stderr)
            return 1
        stored.setdefault(profile, {})[args.workload] = gate.first
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": profile,
        "passes_planned": planned,
        "passes_run": passes_run,
        "commit": _git_commit(),
        "machine": _machine(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fail_ratio": fail_ratio,
        "attempted": gate.attempted,
        "failed": failed,
        "failures": gate.failures,
        "digests": gate.first,
        "latency_s": {op.name: [lat[i] for lat in scaled] for i, op in enumerate(ops)},
        "unscaled_latency_s": {op.name: [lat[i] for lat in untraced] for i, op in enumerate(ops)},
    }
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{profile}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    result = {"correct": failed == 0, "attempted": gate.attempted, "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _run_all(args, workloads) -> int:
    """Every workload in its own process, then one table."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--record-digests"] * args.record_digests
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            rows[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            rows[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    units = {name: m["unit"] for row in rows.values() for name, m in row["metrics"].items()}
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in rows))
    for metric, unit in units.items():
        cells = "".join(f"{row['metrics'].get(metric, {}).get('value', float('nan')):16.6g}" for row in rows.values())
        print(f"{metric + ' [' + unit + ']':44s}{cells}")
    print(f"{'fail_ratio [ratio]':44s}" + "".join(f"{row['failed'] / row['attempted']:16.6g}" for row in rows.values()))
    result = {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{m}": v for w, r in rows.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_workloads()
    if args.workload == "all":
        return _run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return _run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
