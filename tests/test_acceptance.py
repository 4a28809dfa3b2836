"""End-to-end acceptance suite.

Each numbered test exercises one headline guarantee of the toolkit at its
stated tolerance and prints a single summary line; run with ``-s`` to see the
lines for passing tests too. Everything here is self-contained apart from the
golden walk CSV under tests/data/.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from corrsync.benchmark import (
    METHODS,
    add_far_shape,
    corrupt_maps,
    curve_from_errors,
    geodesic_errors,
    run_benchmark,
    stability_report,
    synth_collection,
)
from corrsync.collection import GeodesicOracle, Shape, ShapeCollection, identity_map
from corrsync.flow import brute_force_paths, directed_flow_matrix, enumerate_paths
from corrsync.geometry import (
    GeodesicLegPath,
    SphereTriangle,
    TangentVector,
    build_lattice,
    holonomy_deficit,
    lattice_walks,
    random_triangle,
    tangent_toward,
    transport_along_path,
)
from corrsync.soft import all_pairs_soft, frechet_mean, mle, propagate_soft

from conftest import random_euclidean_distances, soft_from_rows, two_point_shape

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_enumeration_matches_oracle():
    rng = np.random.default_rng(101)
    lams = (0.0, 1e-4, 0.01, 0.3)
    t0 = time.perf_counter()
    total_paths = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        D = random_euclidean_distances(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        lam = float(lams[rng.integers(len(lams))])
        strict = bool(rng.integers(2))
        fast = enumerate_paths(directed_flow_matrix(D, i, j), lam=lam, strict=strict)
        slow = brute_force_paths(D, i, j, lam=lam, strict=strict)
        assert [p.vertices for p in fast] == [p.vertices for p in slow]
        assert all(abs(a.weight - b.weight) <= 1e-12 for a, b in zip(fast, slow))
        total_paths += len(fast)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 10.0,
        f"200 seeded configs, {total_paths} paths oracle-exact, {elapsed:.2f}s",
    )


def test_criterion_2_flow_structure_invariants():
    rng = np.random.default_rng(202)
    failures = 0
    for _ in range(100):
        D = random_euclidean_distances(rng, 20)
        i, j = (int(v) for v in rng.choice(20, size=2, replace=False))
        F = directed_flow_matrix(D, i, j).F
        # acyclic: ordered by distance from i, every edge points forward
        o = np.argsort(D[i], kind="stable")
        ok = (
            not np.tril(F[np.ix_(o, o)]).any()
            and not (F & F.T).any()
            and np.array_equal(directed_flow_matrix(D, j, i).F, F.T)
            and bool(F[i, j])
        )
        failures += not ok
    _report(2, failures == 0, f"100 instances at n=20, {failures} failures")


def test_criterion_3_consistent_collection_collapses():
    coll = synth_collection(10, 500, 0.05, seed=7, map_source="truth")
    res = run_benchmark(coll, methods=METHODS, lams=(0.978,))
    worst_err = max(float(np.max(errs)) for errs in res.errors.values())

    queries = {sid: list(range(500)) for sid in coll.ids}
    pairs = all_pairs_soft(coll, lam=0.978, queries=queries)
    rows_are_deltas = True
    worst_mass_gap = 0.0
    for sc in pairs.soft.values():
        for row in sc.rows.values():
            rows_are_deltas &= len(row) == 1
            worst_mass_gap = max(worst_mass_gap, abs(sum(row.values()) - 1.0))
    ok = worst_err == 0.0 and rows_are_deltas and worst_mass_gap <= 1e-12
    _report(
        3,
        ok,
        f"five methods max error {worst_err}, all rows single-point, "
        f"mass gap {worst_mass_gap:.1e}",
    )


def test_criterion_4_hand_fixture_masses(l4_swap):
    soft = propagate_soft(l4_swap, "s0", "s3", lam=0.0, max_paths=100)
    row = soft.rows[0]
    mass_gap = max(abs(row[0] - 0.8937), abs(row[1] - 0.1063))
    majority_ok = mle(soft)[0] == 0

    lopsided = soft_from_rows({0: {0: 0.6, 1: 0.4}})
    oracle = GeodesicOracle(two_point_shape("b"), k=1)
    mean_ok = frechet_mean(lopsided, oracle) == {0: 0}

    ok = mass_gap <= 1e-4 and majority_ok and mean_ok
    _report(
        4,
        ok,
        f"four-path masses off by {mass_gap:.2e}, majority vertex and 0.6-mass "
        f"vertex both recovered",
    )


def test_criterion_5_sphere_transport_deficit():
    t0 = time.perf_counter()
    octant = holonomy_deficit(
        SphereTriangle(EX, EY, EZ), TangentVector(EX, tangent_toward(EX, EY))
    )
    octant_gap = abs(octant.deficit - math.sqrt(2.0))

    rng = np.random.default_rng(505)
    all_bounded = True
    worst_gap = 0.0
    for _ in range(50):
        tri = random_triangle(rng)
        tv = TangentVector(tri.p, tangent_toward(tri.p, tri.q))
        res = holonomy_deficit(tri, tv)
        all_bounded &= res.bound_satisfied
        numeric = transport_along_path(
            GeodesicLegPath((tri.p, tri.r, tri.q)), tv, method="rk4"
        )
        worst_gap = max(worst_gap, float(np.linalg.norm(numeric.vector - res.two_leg)))
    elapsed = time.perf_counter() - t0
    ok = octant_gap <= 1e-9 and all_bounded and worst_gap <= 1e-9 and elapsed < 5.0
    _report(
        5,
        ok,
        f"octant gap {octant_gap:.1e}, 50 curvature bounds hold, integration "
        f"gap {worst_gap:.1e}, {elapsed:.2f}s",
    )


def _with_near_vertex(base: ShapeCollection) -> ShapeCollection:
    # planar construction: the new shape sits at (0.5, sqrt(0.11)) above the
    # line 0,1,2,3 so both nearest originals are exactly 0.6 away and Kruskal
    # reroutes the s0..s1 tree path through it
    xs = [0.0, 1.0, 2.0, 3.0]
    dc = [math.hypot(0.5 - x, math.sqrt(0.11)) for x in xs]
    D = np.zeros((5, 5))
    D[:4, :4] = base.D
    D[4, :4] = dc
    D[:4, 4] = dc
    maps = dict(base.maps)
    for sid in base.ids:
        maps[("c", sid)] = identity_map("c", 2, sid)
        maps[(sid, "c")] = identity_map(sid, 2, "c")
    return ShapeCollection(
        shapes=base.shapes + [two_point_shape("c")],
        D=D,
        maps=maps,
        beta=base.beta,
    )


def test_criterion_6_stability_far_and_near(l4_identity):
    coll = synth_collection(6, 80, 0.05, seed=11, map_source="truth")
    far = add_far_shape(coll, factor=10.0)
    rep = stability_report(coll, far, lam=0.0)
    worst_tv = max(rep.tv.values())
    worst_flow = max(rep.flow_edge_diff.values())
    extra = set(rep.mst_after) - set(rep.mst_before)
    far_ok = (
        worst_tv == 0.0
        and worst_flow == 0
        and not rep.mst_changed
        and set(rep.mst_before) <= set(rep.mst_after)
        and len(extra) == 1
        and "far" in next(iter(extra))
    )

    near = _with_near_vertex(l4_identity)
    rep2 = stability_report(l4_identity, near, lam=0.0)
    surviving_after = {e for e in rep2.mst_after if "c" not in e}
    near_ok = (
        rep2.mst_changed
        and max(rep2.flow_edge_diff.values()) == 0
        and ("s0", "s1") in rep2.mst_before
        and ("s0", "s1") not in surviving_after
    )
    ok = far_ok and near_ok
    _report(
        6,
        ok,
        f"far shape: worst tv {worst_tv}, flow diff {worst_flow}, one new leaf; "
        f"near shape reroutes the tree with flow diff "
        f"{max(rep2.flow_edge_diff.values())}",
    )


def test_criterion_7_corruption_regression():
    t0 = time.perf_counter()
    margins = []
    for seed in range(10):
        coll = synth_collection(20, 2000, 0.10, seed=seed, map_source="truth")
        bad = corrupt_maps(coll, 0.25, seed=seed)
        res = run_benchmark(bad, methods=("direct", "mle"), lams=(0.978,))
        direct = float(np.mean(res.errors[("direct", None)]))
        robust = float(np.mean(res.errors[("mle", 0.978)]))
        margins.append(direct - robust)
    elapsed = time.perf_counter() - t0
    wins = sum(m > 0 for m in margins)
    floor = min(margins)
    # regression pin from the first validated run: per-seed margins bottom out
    # at 0.0201, so 0.019 flags a real change while riding out float jitter
    ok = wins >= 9 and floor >= 0.019 and elapsed < 300.0
    _report(
        7,
        ok,
        f"{wins}/10 seeds favor the path-mode map, min margin {floor:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_lattice_walks(tmp_path):
    lattice = build_lattice(31)
    rep = lattice_walks(lattice, mode="eop", count=100, seed=0)
    target = lattice.n - 1
    reached = all(w[0] == 0 and w[-1] == target for w in rep.walks)
    monotone = all(
        np.all(
            np.diff(np.linalg.norm(lattice.coords[np.array(w)] - lattice.coords[target], axis=1))
            < 0
        )
        for w in rep.walks
    )

    nb = lattice_walks(build_lattice(9), mode="nonbacktracking", count=100, seed=0)
    no_reversals = all(
        w[k] != w[k + 2] for w in nb.walks for k in range(len(w) - 2)
    )

    golden = Path(__file__).parent / "data" / "lattice_golden.csv"
    out = tmp_path / "walks.csv"
    subprocess.run(
        [
            sys.executable, "-m", "corrsync", "lattice", "--mode", "eop",
            "--side", "15", "--walks", "20", "--seed", "3", "--out", str(out),
        ],
        check=True,
        capture_output=True,
    )
    byte_stable = out.read_bytes() == golden.read_bytes()

    ok = (
        len(rep.walks) == 100 and reached and monotone
        and len(nb.walks) == 100 and no_reversals and byte_stable
    )
    _report(
        8,
        ok,
        f"100 directed walks reached ({rep.discarded} discarded), profiles "
        f"strictly monotone, no reversals, golden CSV byte-stable",
    )


def test_criterion_9_benchmark_plumbing():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    oracle = GeodesicOracle(Shape(id="t", points=pts), k=3)
    predicted = {0: 0, 1: 1, 2: 3, 3: 1}
    curve = curve_from_errors(
        geodesic_errors(predicted, [(v, v) for v in range(4)], oracle, normalize=False),
        grid=np.array([0.0, 1.0, 2.0]),
        normalized=False,
    )
    cdf_ok = np.array_equal(curve.fractions, [0.5, 0.75, 1.0])

    coll = synth_collection(5, 60, 0.05, seed=3, map_source="truth")
    res = run_benchmark(coll, methods=("mle",), lams=(0.9, 0.95, 0.978))
    sweep_ok = [c.lam for c in res.curves] == [0.9, 0.95, 0.978]
    nondecreasing = all(np.all(np.diff(c.fractions) >= 0) for c in res.curves)

    ok = cdf_ok and sweep_ok and nondecreasing
    _report(
        9,
        ok,
        f"cdf fixture exact, {len(res.curves)} sweep curves, all nondecreasing",
    )
