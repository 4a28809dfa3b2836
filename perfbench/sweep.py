"""Scaling sweep: chains per pair into the hub, by collection size.

    python3 perfbench/sweep.py [--seed 0]

Reports counts, not timings, and is not a gated workload. For each size it
builds a synth collection (200 points per shape) and a random 2-D Euclidean
distance matrix, picks the hub as run_benchmark(to_mean=True) does, and
counts the chains from every other shape into the hub with an exact
path-count DP (all chains, as at lambda=0). It also reports the largest
count over every ordered pair, where the ROADMAP saw the budget overflow.
enumerate_paths raises PathBudgetError exactly when a pair has more chains
than max_paths, so the first size whose largest count exceeds the default
budget is where it fires.
For the largest pair of each size with at most CHECK_LIMIT chains, the DP is
confirmed against enumerate_paths: a budget of the count succeeds and one
less raises.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

CHECK_LIMIT = 100_000
SIZES = (10, 20, 40, 60, 80)
POINTS = 200


def chain_count(D: np.ndarray, i: int, j: int) -> int:
    from corrsync.flow import directed_flow_matrix
    from tracer import count_chains

    return count_chains(directed_flow_matrix(D, i, j).F, i, j, D)


def hub_counts(D: np.ndarray) -> tuple[int, list[int]]:
    hub = int(np.argmin((D**2).sum(axis=1)))
    return hub, [chain_count(D, i, hub) for i in range(D.shape[0]) if i != hub]


def confirm(D: np.ndarray, i: int, hub: int, count: int) -> bool:
    from corrsync.errors import PathBudgetError
    from corrsync.flow import directed_flow_matrix, enumerate_paths

    flow = directed_flow_matrix(D, i, hub)
    if len(enumerate_paths(flow, lam=0.0, max_paths=count)) != count:
        return False
    try:
        enumerate_paths(flow, lam=0.0, max_paths=count - 1)
    except PathBudgetError:
        return True
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "corrsync", "__init__.py")):
        print("sweep: corrsync sources not found under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from corrsync.benchmark import synth_collection
    from corrsync.flow import MAX_PATHS_DEFAULT
    from scipy.spatial.distance import cdist

    rows = []
    first_fire = {kind: {"hub": None, "any": None} for kind in ("synth", "random2d")}
    for kind in ("synth", "random2d"):
        for n in SIZES:
            if kind == "synth":
                D = synth_collection(n, POINTS, 0.10, args.seed, map_source="truth").D
            else:
                pts = np.random.default_rng([args.seed, n]).random((n, 2))
                D = cdist(pts, pts)
            hub, counts = hub_counts(D)
            top = int(np.argmax(counts))
            source = top if top < hub else top + 1
            checked = confirm(D, source, hub, counts[top]) if counts[top] <= CHECK_LIMIT else None
            any_max = max(chain_count(D, i, j) for i in range(n) for j in range(n) if i != j)
            fires = max(counts) > MAX_PATHS_DEFAULT
            for scope, fired in (("hub", fires), ("any", any_max > MAX_PATHS_DEFAULT)):
                if fired and first_fire[kind][scope] is None:
                    first_fire[kind][scope] = n
            row = {
                "kind": kind, "shapes": n, "pairs": len(counts),
                "chains_mean": float(np.mean(counts)), "chains_max": int(max(counts)),
                "fires": fires, "dp_confirmed": checked, "any_pair_chains_max": any_max,
            }
            rows.append(row)
            print(f"{kind:9s} shapes={n:3d} into hub: pairs={len(counts):3d} "
                  f"chains_mean={row['chains_mean']:.6g} chains_max={row['chains_max']} "
                  f"PathBudgetError={'yes' if fires else 'no'} "
                  f"dp_confirmed={'skipped' if checked is None else checked}; "
                  f"any ordered pair: chains_max={any_max:.4g}", flush=True)
    for kind, first in first_fire.items():
        for scope, n in first.items():
            where = f"first fires at {n} shapes" if n else "does not fire up to 80 shapes"
            print(f"{kind}: PathBudgetError at max_paths={MAX_PATHS_DEFAULT}, "
                  f"{'pairs into the hub' if scope == 'hub' else 'some ordered pair'}: {where}")
    print(json.dumps({"seed": args.seed, "max_paths": MAX_PATHS_DEFAULT,
                      "first_fire": first_fire, "rows": rows}))
    ok = all(r["dp_confirmed"] is not False for r in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
