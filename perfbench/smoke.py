"""Smoke test for the benchmark harness, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload's code path and output checks on tiny inputs (5 or 6
shapes x 60 points, one CLI pair, so two CLI calls), once untraced and once
traced. The two runs must pass their checks, report identical quality
metrics and write byte-identical CLI outputs (the rerun invariant), and the
traced run must time its commands and read non-zero on the layer each
workload exists for (LAYER_PROBE). The one check not required
at this size is `mle_margin > 0`, which needs a full-size collection. Takes
seconds; exits 1 on a failure.
"""

from __future__ import annotations

import os
import shutil
import sys

SEED = 1
# the per-layer metric each workload exists to exercise; a tracer that lost
# its wrappers or spans reads 0 here
LAYER_PROBE = {
    "corrupt20": "collection.oracle_build_s",
    "hub60": "flow.chains",
    "rows12": "soft.frechet_s",
    "cli20": "collection.load_s",
}


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "corrsync", "__init__.py")):
        print("smoke: corrsync sources not found under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    import workloads
    from tracer import Tracer, layer_metrics

    failures = []
    for name, spec in workloads.TINY.items():
        results = []
        for traced in (False, True):
            workdir = os.path.join(workloads.HERE, "_out", f"smoke-{name}")
            os.makedirs(workdir, exist_ok=True)
            tracer = Tracer(name) if traced else None
            if tracer:
                tracer.install()
            try:
                clock = workloads.Clock()
                inputs, _, _ = workloads.setup(spec, SEED, workdir, clock, tracer)
                res = workloads.run(spec, inputs, 0.0, workdir, clock, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
                shutil.rmtree(workdir, ignore_errors=True)
            label = f"{name} {'traced' if traced else 'untraced'}"
            # mle_margin > 0 is a full-size property: with a handful of shapes
            # too few chains outvote a corrupted map, so it is not required here
            failures += [f"{label}: {p}" for p in res.problems if not p.startswith("mle_margin")]
            if res.failed or not res.attempted or not res.cmd_s:
                failures.append(f"{label}: {res.failed} of {res.attempted} operations failed")
            if tracer:
                layers = layer_metrics(tracer.spans)
                for metric in ("bench.cmd_s", LAYER_PROBE[name]):
                    if not layers[metric] > 0:
                        failures.append(f"{label}: {metric} reads {layers[metric]!r}")
            results.append(res)
        plain, traced_res = results
        if plain.quality != traced_res.quality:
            failures.append(f"{name}: quality differs between runs: "
                            f"{plain.quality} vs {traced_res.quality}")
        if plain.outputs != traced_res.outputs:
            failures.append(f"{name}: CLI outputs differ between runs")
        print(f"{name}: {len(plain.cmd_s)} command(s), quality {plain.quality}, "
              f"{len(plain.outputs)} CLI output(s)")
    for f in failures:
        print(f"FAIL {f}")
    print("smoke passed" if not failures else "smoke FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
