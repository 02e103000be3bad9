"""symflow benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object.  See README.md.
"""
import time

T_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1  # pinned for steady timings; must not exceed nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR_BASE = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 8  # extra set-up measurements in fresh processes
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


def _load_library():
    if not (SRC / "symflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symflow

    if Path(symflow.__file__).resolve().parent != SRC / "symflow":
        sys.exit(f"perfbench: symflow imported from {symflow.__file__}, not {SRC}")
    import workloads

    return workloads


class Outcome:
    OK, STALL, WRONG, ERROR = "ok", "stall", "wrong", "error"


def run_op(op, workloads):
    """Time ``op.call``, then check its result outside the timed span."""
    t0 = time.perf_counter()
    try:
        res = op.call()
    except Exception as exc:  # the op failed; the loop records it and goes on
        return time.perf_counter() - t0, Outcome.ERROR, f"{op.kind}: {exc!r}"
    elapsed = time.perf_counter() - t0
    try:
        if op.stall is not None and op.stall(res):
            return elapsed, Outcome.STALL, ""
        op.check(res)
    except workloads.OracleError as exc:
        return elapsed, Outcome.WRONG, str(exc)
    except Exception as exc:  # malformed output counts as a wrong answer
        return elapsed, Outcome.WRONG, f"{op.kind}: unreadable output: {exc!r}"
    return elapsed, Outcome.OK, ""


class Loop:
    """Closed loop over ops 0, 1, 2, ... in whole cycles until ``seconds``
    of op time have been spent, and at least ``min_cycles`` cycles;
    ``wrap_op`` lets the traced run add spans."""

    def __init__(self, wl, workloads, seconds, wrap_op=None, min_cycles=1):
        self.latencies, self.outcomes, self.messages, self.kinds = [], [], [], []
        cycle = len(wl.cycle)
        busy, i = 0.0, 0
        while busy < seconds or i % cycle or i < min_cycles * cycle:
            op = wl.op(i)
            elapsed, outcome, msg = run_op(wrap_op(op, i) if wrap_op else op, workloads)
            busy += elapsed
            self.latencies.append(elapsed)
            self.outcomes.append(outcome)
            self.kinds.append(op.kind)
            if msg:
                self.messages.append(f"op {i}: {msg}")
            i += 1
        self.busy = busy

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(o != Outcome.OK for o in self.outcomes)

    @property
    def stalled(self):
        return sum(o == Outcome.STALL for o in self.outcomes)

    @property
    def ops_per_s(self):
        return self.attempted / self.busy


def tail(latencies):
    """Highest order statistic with TAIL_BEYOND samples above it, with its
    percentile; the maximum when there are too few samples."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup(workloads, name, seed, workdir, check=True):
    """Import (already done), input generation and one untimed warm-up op,
    checked after the clock stops unless ``check`` is false."""
    wl = workloads.WORKLOADS[name](workdir, seed)
    op = wl.warmup()
    if not check:
        op = dataclasses.replace(op, check=lambda result: None)
    started = time.perf_counter()
    elapsed, outcome, msg = run_op(op, workloads)
    if outcome != Outcome.OK:
        raise RuntimeError(f"warm-up op failed: {msg}")
    return wl, started + elapsed - T_START


def probe_setup(name, seed):
    """Set-up time of a fresh process running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def metric(value, unit):
    return {"value": value, "unit": unit}


def final_checks(wl, workloads, errors):
    try:
        wl.final_checks()
    except workloads.OracleError as exc:
        errors.append(str(exc))


def end_to_end(wl, workloads, args, setup_parent, errors):
    setup_times = [setup_parent] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    loop = Loop(wl, workloads, args.seconds)
    final_checks(wl, workloads, errors)
    tail_s, tail_pct = tail(loop.latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": metric(loop.ops_per_s, "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(loop.latencies), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    notes = {
        "op_tail_ms": f"p{tail_pct:.1f} of {loop.attempted} ops",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    for kind in dict.fromkeys(wl.cycle):
        lat = [x for x, k in zip(loop.latencies, loop.kinds) if k == kind]
        notes[f"op_p50_ms[{kind}]"] = f"{1e3 * statistics.median(lat):.1f} over {len(lat)} ops"
    return loop, metrics, notes


def per_layer(wl, workloads, args, errors):
    """Odd cycles run traced and even cycles untraced, interleaved so that
    host drift over the run affects both alike."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    cycle = len(wl.cycle)

    def is_traced(i):
        return (i // cycle) % 2 == 1

    def wrap_op(op, i):
        if is_traced(i):
            tracer.attach()
            return tracer.traced_op(op, i)
        tracer.detach()
        return op

    loop = Loop(wl, workloads, args.seconds, wrap_op=wrap_op, min_cycles=2)
    tracer.detach()
    final_checks(wl, workloads, errors)
    tracer.attach()
    n_spans, iters = len(tracer.start), tracer.counters["natgrad.iters"]
    counts = tracer.replay_counts(wl, workloads, run_op)
    errors += counts.messages
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    rate, n = {}, {}
    for flag in (False, True):
        lat = [x for i, x in enumerate(loop.latencies) if is_traced(i) == flag]
        n[flag], rate[flag] = len(lat), len(lat) / sum(lat)
    metrics = tracing.layer_metrics(tracer, n_spans, n[True], iters, counts)
    metrics["trace.overhead_frac"] = metric(1.0 - rate[True] / rate[False], "frac")
    notes = {
        "counts": f"per op over ops 0..{counts.n_ops - 1}, replayed twice from cold caches",
        "times": f"per op over {n[True]} traced ops, interleaved by cycle with "
                 f"{n[False]} untraced ops for the overhead",
    }
    return loop, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORKDIR_BASE / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    errors = []
    try:
        wl, setup_s = setup(workloads, args.workload, args.seed, workdir,
                            check=not args.setup_probe)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            loop, metrics, notes = per_layer(wl, workloads, args, errors)
        else:
            loop, metrics, notes = end_to_end(wl, workloads, args, setup_s, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes["fail_frac"] = (f"{loop.failed / loop.attempted!r} ({loop.failed} of "
                          f"{loop.attempted} ops; {loop.stalled} of them the known cqng stall)")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"sizes={json.dumps(wl.sizes())} env={json.dumps(environment())}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']!r:>24} {m['unit']}")
    for name, note in notes.items():
        print(f"  {name:<32} {note}")
    errors = loop.messages + errors
    for msg in errors:
        print(f"  ERROR {msg}")
    print(json.dumps({"correct": not errors, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
