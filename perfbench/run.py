"""corrsync pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corrupt20 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One workload runs in this process; `all` runs every workload untraced and
then traced, each in a fresh process, prints every metric by name with its
unit and the tracing overhead, and exits 1 when any output check fails.

The last line of a single-workload run is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (see tracer.py) with --trace 1. Exits 2 without a
result when the corrsync sources are not under ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOAD_NAMES = ("corrupt20", "hub60", "rows12", "cli20")

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pairs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Above the median that needs at least 21 samples; with fewer, the tail is
    the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        k = n - 11
        return xs[k], 100.0 * (k + 1) / n
    return xs[-1], 100.0


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": "unknown",
        "dirty": "unknown",
    }
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            env["commit"] = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            )
            env["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import shutil

    import workloads
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    spec = workloads.WORKLOADS[workload]
    out_dir = os.path.join(HERE, "_out")
    workdir = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer(workload)
        tracer.install()
    try:
        clock = workloads.Clock()
        inputs, *first = workloads.setup(spec, seed, workdir, clock, tracer)
        res = workloads.run(spec, inputs, seconds, workdir, clock, tracer)
        del inputs
        setups = workloads.setup_samples(spec, seed, workdir, clock, first, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        tracer.dump(spans_path)
        metrics = layer_metrics(tracer.spans)
        units = LAYER_METRICS
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pairs_per_s": statistics.median(res.pair_rates) if res.pair_rates else 0.0,
            "peak_rss_mb": res.peak_rss_mb,
        }
        units = END_TO_END
    # printed, not gated: see "Reported and checked, but not gated" in README.md
    print("commands_s " + " ".join(f"{t:.3f}" for t in res.cmd_s))
    print("commands_ref_s " + " ".join(f"{t:.3f}" for t in res.ref_cmd_s))
    print("setups_ref_s " + " ".join(f"{t:.4f}" for t in setups))
    if res.cmd_s:
        print(f"wall cmd_p50_s {statistics.median(res.cmd_s)!r} s")
        tail_s, tail_pct = tail(res.cmd_s)
        print(f"wall cmd_tail_s {tail_s!r} s (p{tail_pct:.1f} of {len(res.cmd_s)} commands)")
        print(f"ref cmd_p50_s {statistics.median(res.ref_cmd_s)!r} s")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name][0]}")
    for name, value in res.quality.items():
        print(f"quality {name} {value!r} unitless")
    failed_frac = res.failed / res.attempted if res.attempted else 1.0
    print(f"quality failed_frac {failed_frac!r} ratio ({res.failed} of {res.attempted})")
    for problem in res.problems:
        print(f"check failed: {problem}")

    correct = not res.problems and res.failed == 0 and res.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    summary = []
    for workload in WORKLOAD_NAMES:
        p50 = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            p50[trace] = next(float(ln.split()[2]) for ln in lines
                              if ln.startswith("ref cmd_p50_s "))
        if len(p50) == 2:
            plain, traced = p50[0], p50[1]
            summary.append(
                f"trace overhead {workload}: {traced - plain:+.3f} s per command "
                f"({100.0 * (traced - plain) / plain:+.1f}% of {plain:.3f} s, "
                "median command time at reference speed, traced minus untraced)"
            )
    for line in summary:
        print(line)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "corrsync", "__init__.py")):
        print("perfbench: corrsync sources not found under ./src; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    if args.seconds is None:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
