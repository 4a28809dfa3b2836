"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corrupt20,hub60 --seeds 0-9 \
        [--seconds 25] [--trace 0] [--json runs.json]

Runs `perfbench/run.py` once per (workload, seed), one at a time, and prints
for every metric its median, first and third quartile
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the bound BENCHMARK.json fixes for it, and the same for the ungated
command times each run prints (`wall ...`, `ref ...`). Exits 1 when a run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write every run's result here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    ok = True
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["quality"] = {
                ln.split()[1]: float(ln.split()[2]) for ln in lines if ln.startswith("quality ")
            }
            # ungated command times: wall clock and at reference speed
            result["timings"] = {
                f"{ln.split()[0]}_{ln.split()[1]}": float(ln.split()[2])
                for ln in lines if ln.startswith(("wall ", "ref "))
            }
            result["env"] = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["quality"]:
            values = [r["quality"][name] for r in results]
            print(f"  quality {name}: " + " ".join(f"{v:.4g}" for v in values))
        for name in [*results[0]["metrics"], *results[0]["timings"]]:
            values = [r["metrics"][name]["value"] if name in r["metrics"] else r["timings"][name]
                      for r in results]
            med = statistics.median(values)
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {name:28s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{note}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
