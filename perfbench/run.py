"""trikoorn benchmark: one workload run, printed as one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify|transform|operators \
        --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout; nothing is
installed.  With ``--trace 0`` the run measures as many whole rounds as fit
in S seconds, at least one, and reports the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds twice, untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

# One BLAS thread: the run is a single process with no threads of its own,
# and threads competing for 2 vCPUs would only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# CPU time of the import, then the median of probes run just after it in the
# same process (bench_speed is imported only once the timed import is done).
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import trikoorn, trikoorn.cli; t = time.process_time() - t; "
    "sys.path.insert(0, sys.argv[2]); import statistics, bench_speed; "
    "print(t, statistics.median(bench_speed.probe() for _ in range(50)))"
)


def _import_library():
    """Import trikoorn from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import trikoorn.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import trikoorn from {SRC}: {exc}")
    mod = sys.modules["trikoorn"]
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: trikoorn resolved to {mod.__file__}, not to {SRC}")


def setup_seconds(repeats):
    """Import times of trikoorn and trikoorn.cli, each in a fresh process.

    Returns (CPU seconds, seconds at the nominal host speed) per import.
    """
    import bench_speed

    times = []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t, probe = map(float, res.stdout.split())
        times.append((t, t * bench_speed.NOMINAL_S / probe))
    return times


def _read_first(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unavailable"


def run_metadata(args):
    import mpmath
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable (not a git checkout)"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _read_first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_lines": src_lines,
    }


def high_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(slots, rec, setup_s):
    """The end_to_end metrics: the same names on every workload, timings at the nominal speed."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_s": (statistics.median(rec.round_s), "s"),
    }
    for slot, kind in slots.items():
        metrics[slot] = (statistics.median(rec.round_means[kind]), "s")
    return metrics


def describe(slots, rec, setup):
    """Lines naming each workload-specific timing, with its high percentile.

    Per-call medians and percentiles are raw CPU seconds; the slot values
    are at the nominal host speed.
    """
    rounds = " ".join(f"{t:.4g}" for t in rec.round_s)
    raw = statistics.median(rec.round_raw_s)
    lines = [
        f"setup_s: {' '.join(f'{s:.4g}' for _, s in setup)} s at nominal speed, "
        f"{' '.join(f'{t:.4g}' for t, _ in setup)} s CPU",
        f"round_s: {statistics.median(rec.round_s):.6g} s median over {len(rec.round_s)} rounds ({rounds}); "
        f"{raw:.6g} s CPU; {len(rec.sampler.times)} speed probes, median {statistics.median(rec.sampler.times):.4g} s",
    ]
    for slot, kind in slots.items():
        s = rec.samples[kind]
        means = rec.round_means[kind]
        line = (
            f"{slot} = {kind}: {statistics.median(means):.6g} s per call, median over {len(means)} rounds "
            f"({' '.join(f'{t:.4g}' for t in means)}); {statistics.median(s):.6g} s CPU median over {len(s)} calls"
        )
        hp = high_percentile(s)
        if hp is not None:
            line += f", p{hp[0]:.4g} {hp[1]:.6g} s"
        lines.append(line)
    return lines


def timed_run(wl, args, work):
    """End-to-end metrics of whole rounds run for at least --seconds."""
    # one unrecorded import writes the bytecode cache, which a user pays once
    # per checkout; the recorded imports are split between the start and the
    # end of the run, so they meet more of the machine's states
    import bench_speed

    setup_seconds(1)
    setup = setup_seconds(SETUP_REPEATS)
    stream = any(kind in wl.STREAM_KINDS for kind in wl.SLOTS[args.workload].values())
    with bench_speed.Sampler(stream=stream) as sampler:
        rec = wl.Recorder(sampler=sampler)
        wl.run_rounds(rec, args.workload, args.seed, work, seconds=args.seconds)
    setup += setup_seconds(SETUP_REPEATS)
    slots = wl.SLOTS[args.workload]
    for line in describe(slots, rec, setup):
        print(line)
    return end_to_end(slots, rec, statistics.median(s for _, s in setup)), [rec]


def traced_run(wl, args, work):
    """Per-layer metrics: a fixed number of rounds untraced, then traced."""
    import bench_trace

    rounds = wl.TRACED_ROUNDS[args.workload]
    plain = wl.Recorder()
    wl.run_rounds(plain, args.workload, args.seed, work, rounds=rounds)
    tracer = bench_trace.Tracer()
    undo = bench_trace.install(tracer)
    try:
        traced = wl.Recorder(tracer)
        wl.run_rounds(traced, args.workload, args.seed, work, rounds=rounds)
    finally:
        bench_trace.uninstall(undo)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    print(f"{rounds} round(s), {len(tracer.starts)} spans")
    for kind in plain.samples:
        print(f"  {kind}: {sum(traced.samples[kind]):.6g} s traced, {sum(plain.samples[kind]):.6g} s untraced")
    overhead = (sum(traced.round_s) - sum(plain.round_s)) / rounds
    return bench_trace.layer_metrics(tracer, overhead), [plain, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "transform", "operators"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, HERE)
    import bench_workloads as wl

    print("meta " + json.dumps(run_metadata(args), sort_keys=True), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        metrics, recs = (traced_run if args.trace else timed_run)(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in recs)
    for problem in [p for r in recs for p in r.problems][:20]:
        print("FAILED " + problem.replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
