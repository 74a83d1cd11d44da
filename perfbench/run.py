#!/usr/bin/env python3
"""trustsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. With
--trace 0 the workload runs in a closed loop for S seconds and the last
line of stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json. With --trace 1 a fixed block of work runs once untraced
and twice traced, and the metrics are the per-layer ones. The lines
before the result give the environment record, every named timing as
median + tail percentile + sample count, and, when traced, the layer
shares and the exact-count block. Workloads are listed in workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
BLAS_THREADS = "1"  # one client and no extra threads
WORKLOAD_NAMES = ("pipeline-308", "rl-train", "fit-large")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


def _git(*args) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, load1: float) -> dict:
    import numpy
    import trustsim

    nproc = len(os.sched_getaffinity(0))
    sha = _git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trustsim": trustsim.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "blas_threads": int(BLAS_THREADS),
        "blas_threads_capped": int(BLAS_THREADS) <= nproc,
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if sha else None,
        "load1_at_start": load1,
        "seed": seed,
    }


def at_reference(value: float, unit: str, slowdown: float) -> float:
    """A time or rate measured at `slowdown`, restated at the reference speed."""
    if unit in ("s", "ms"):
        return value / slowdown
    return value * slowdown if unit == "1/s" else value


def timed_run(workload, seconds: float, checks) -> dict:
    """Set-up SETUP_REPEATS times, then the closed loop for `seconds` of
    wall time. Times and rates are stated at the reference machine speed
    (see speed.py); the notes give the figures as measured."""
    import speed
    from stats import median_line, percentile

    setups, setups_raw = [], []
    with speed.sampling():
        for k in range(SETUP_REPEATS):
            first = len(speed.slices)
            start = speed.clock()
            workload.set_up(k)
            setups_raw.append(speed.clock() - start)
            setups.append(setups_raw[-1] / speed.factor(speed.slices[first:]))
        first = len(speed.slices)
        samples = {}
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            for key, values in workload.op(i, checks).items():
                samples.setdefault(key, []).extend(values)
            i += 1
        slowdown = speed.factor(speed.slices[first:])
        n_slices = len(speed.slices) - first
    workload.finish(checks)

    op_ms = samples["op_ms"]
    raw_ops_per_s = 1e3 * len(op_ms) / sum(op_ms)
    metrics = {
        "setup_s": percentile(setups, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": at_reference(raw_ops_per_s, "1/s", slowdown),
    }
    print(f"machine slowdown over the loop: {slowdown:.4f} "
          f"({n_slices} calibration slices; 1 = slice takes {speed.REF_SLICE_S} s)")
    *_, setup_note = median_line("setup_s", setups, "s")
    print(f"setup_s: {metrics['setup_s']:.6g} s ({setup_note}; "
          f"as measured: {percentile(setups_raw, 50):.6g} s)")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB (whole process)")
    for name, value, unit, note in workload.named(samples):
        print(f"{name}: {at_reference(value, unit, slowdown):.6g} {unit} "
              f"({note}; as measured: {value:.6g} {unit})")
    print(f"ops_per_s: {metrics['ops_per_s']:.6g} 1/s ({len(op_ms)} {workload.op_unit} "
          f"/ {sum(op_ms) / 1e3:.3f} s; as measured: {raw_ops_per_s:.6g} 1/s)")
    return metrics


def traced_run(workload, checks) -> dict:
    import layers
    from tracer import Tracer

    workload.set_up(0)
    untraced_ns = 0
    runs = []
    for k in (1, 2):  # alternate untraced and traced blocks of identical work
        start = time.perf_counter_ns()
        workload.block(f"untraced-{k}", checks)
        untraced_ns += time.perf_counter_ns() - start
        tracer = Tracer()
        with tracer.installed(layers.SPECS):
            start = time.perf_counter_ns()
            workload.block(f"traced-{k}", checks)
            wall_ns = time.perf_counter_ns() - start
        runs.append(layers.per_layer(tracer, wall_ns))
    metrics, counts = runs[0]
    traced_s = metrics["trace.wall_s"] + runs[1][0]["trace.wall_s"]
    metrics["trace.overhead_ratio"] = traced_s * 1e9 / untraced_ns
    checks.op([] if counts == runs[1][1] else
              [f"exact counts differ between traced runs: {counts} vs {runs[1][1]}"])

    print("layer self-time shares of the traced wall time "
          f"({metrics['trace.wall_s']:.3f} s):")
    for layer in layers.LAYERS:
        print(f"  {layer:16s} {metrics[layer + '.self_share']:.4f}")
    print(f"  {'unattributed':16s} {metrics['trace.unattributed_share']:.4f}")
    print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f} "
          f"(traced {traced_s:.3f} s / untraced {untraced_ns / 1e9:.3f} s, two blocks each)")
    print("exact counts (num / base = value, equal in both traced runs: "
          f"{counts == runs[1][1]}):")
    for name, c in counts.items():
        print(f"  {name}: {c['num']} / {c['base']} = {c['value']:.6g}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trustsim" / "__init__.py").is_file():
        print(f"error: no trustsim sources under {SRC}", file=sys.stderr)
        return 2
    load1 = os.getloadavg()[0]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read once, when numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Checks

    print("env " + json.dumps(environment(args.seed, load1), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            import layers
            values, units = traced_run(workload, checks), layers.UNITS
        else:
            values, units = timed_run(workload, args.seconds, checks), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only succeeds once no other run is using it
    print(f"ops_failed / ops_attempted = {checks.failed} / {checks.attempted}")
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
