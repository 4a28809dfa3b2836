import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

import corrsync.baselines as baselines_mod
from corrsync.benchmark import (
    METHODS,
    ErrorCurve,
    add_far_shape,
    corrupt_maps,
    curve_from_errors,
    default_grid,
    fibonacci_sphere,
    geodesic_errors,
    remove_shape,
    run_benchmark,
    shared_label_pairs,
    stability_report,
    synth_collection,
)
from corrsync.collection import CorrespondenceMap, GeodesicOracle, Shape, ShapeCollection
from corrsync.errors import CorrsyncError, IndexRangeError, InvalidValueError, ManifestError


def corrupted_pairs(before, after):
    """The unordered pairs (a before b in id order) whose stored a -> b map changed."""
    ids = before.ids
    return [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if not np.array_equal(after.maps[(a, b)].indices, before.maps[(a, b)].indices)
    ]


def line_oracle(xs):
    xs = np.asarray(xs, dtype=float)
    pts = np.c_[xs, np.zeros(len(xs)), np.zeros(len(xs))]
    return GeodesicOracle(Shape(id="line", points=pts), k=1)


class TestErrorCdf:
    def test_reference_fixture(self):
        # predictions land 0, 0, 1 and 2 units from truth on a unit-spaced line
        oracle = line_oracle([0.0, 1.0, 2.0, 3.0])
        predicted = {0: 0, 1: 1, 2: 3, 3: 1}
        gt = [(0, 0), (1, 1), (2, 2), (3, 3)]
        errors = geodesic_errors(predicted, gt, oracle, normalize=False)
        curve = curve_from_errors(errors, grid=[0.0, 1.0, 2.0], normalized=False)
        assert list(curve.fractions) == [0.5, 0.75, 1.0]

    def test_normalized_by_diameter(self):
        oracle = line_oracle([0.0, 1.0, 2.0, 3.0])
        errs = geodesic_errors({0: 3}, [(0, 0)], oracle, normalize=True)
        assert errs[0] == pytest.approx(1.0)

    def test_empty_pairs_rejected(self):
        oracle = line_oracle([0.0, 1.0])
        with pytest.raises(ManifestError):
            geodesic_errors({}, [], oracle)

    def test_curves_nondecreasing_validated(self):
        with pytest.raises(ValueError):
            ErrorCurve("m", None, (0.0, 1.0), (0.9, 0.1))

    def test_decreasing_grid_is_an_invalid_value(self):
        with pytest.raises(InvalidValueError, match="nondecreasing"):
            curve_from_errors(np.array([0.1, 0.2]), grid=[0.3, 0.0])

    def test_curve_from_errors(self):
        grid = default_grid(5, 1.0)
        curve = curve_from_errors(np.array([0.0, 0.5, 2.0]), grid, method="m")
        assert curve.fractions[-1] == pytest.approx(2.0 / 3.0)
        assert all(b >= a for a, b in zip(curve.fractions, curve.fractions[1:]))


class TestGeodesicErrorsFromTruthRows:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_equals_per_prediction_distance(self, seed, as_map):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        pts = fibonacci_sphere(n) * rng.uniform(0.5, 2.0) + rng.normal(scale=0.01, size=(n, 3))
        oracle = GeodesicOracle(Shape(id="t", points=pts), k=6)
        reference = GeodesicOracle(Shape(id="t", points=pts), k=6)
        truths = rng.integers(0, n, size=int(rng.integers(1, 20)))
        guesses = rng.integers(0, n, size=n)
        predicted = (
            CorrespondenceMap("s", "t", "discrete", indices=guesses, target_size=n)
            if as_map else {v: int(guesses[v]) for v in range(n)}
        )
        gt = [(int(rng.integers(0, n)), int(t)) for t in truths]
        errs = geodesic_errors(predicted, gt, oracle, normalize=True)
        want = [reference.distances_from(int(guesses[s]))[t] / reference.diameter() for s, t in gt]
        np.testing.assert_allclose(errs, want, rtol=1e-12, atol=0)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_single_source_rows(self, seed, normalize):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        oracle = GeodesicOracle(Shape(id="t", points=rng.normal(size=(n, 3))), k=6)
        gt = [(int(s), int(t)) for s, t in rng.integers(0, n, size=(int(rng.integers(1, 20)), 2))]
        predicted = {s: int(rng.integers(0, n)) for s, _ in gt}
        errs = geodesic_errors(predicted, gt, oracle, normalize=normalize)
        scale = oracle.diameter() if normalize else 1.0
        want = [
            float(csgraph.dijkstra(oracle.graph, directed=False, indices=t)[predicted[s]]) / scale
            for s, t in gt
        ]
        assert errs.tolist() == want

    def test_out_of_range_truth_rejected(self):
        oracle = line_oracle([0.0, 1.0, 2.0])
        with pytest.raises(IndexRangeError, match="vertex 5 out of range"):
            geodesic_errors({0: 1}, [(0, 5)], oracle)

    def test_out_of_range_prediction_rejected(self):
        oracle = line_oracle([0.0, 1.0, 2.0])
        with pytest.raises(IndexRangeError, match="predicted vertex 7"):
            geodesic_errors({0: 7}, [(0, 1)], oracle)


class TestSharedLabels:
    def test_intersection_sorted(self):
        a = Shape(id="a", points=np.zeros((3, 3)) + np.arange(3)[:, None],
                  ground_truth={"x": 0, "y": 1})
        b = Shape(id="b", points=np.zeros((3, 3)) + np.arange(3)[:, None],
                  ground_truth={"y": 2, "z": 0})
        assert shared_label_pairs(a, b) == [(1, 2)]


class TestSynth:
    def test_deterministic(self):
        a = synth_collection(4, 60, 0.05, seed=11, map_source="truth")
        b = synth_collection(4, 60, 0.05, seed=11, map_source="truth")
        assert np.array_equal(a.D, b.D)
        for sa, sb in zip(a.shapes, b.shapes):
            assert np.array_equal(sa.points, sb.points)

    def test_seed_changes_geometry(self):
        a = synth_collection(4, 60, 0.05, seed=11, map_source="truth")
        b = synth_collection(4, 60, 0.05, seed=12, map_source="truth")
        assert not np.array_equal(a.shapes[1].points, b.shapes[1].points)

    @pytest.mark.parametrize("n_shapes", [2, 5, 20])
    @pytest.mark.parametrize("n_points", [2, 7, 8, 9, 127, 128, 129, 1000])
    def test_truth_distances_match_per_pair_formula_bitwise(self, n_shapes, n_points):
        # sizes on both sides of numpy's pairwise-summation blocks
        coll = synth_collection(n_shapes, n_points, 0.1, seed=3, map_source="truth",
                                landmark_count=min(16, n_points))
        want = np.zeros((n_shapes, n_shapes))
        for a, sa in enumerate(coll.shapes):
            for b, sb in enumerate(coll.shapes):
                if a != b:
                    want[a, b] = float(
                        np.sqrt(np.mean(np.sum((sa.points - sb.points) ** 2, axis=1)))
                    )
        want = 0.5 * (want + want.T)
        assert coll.D.tobytes() == want.tobytes()

    def test_truth_maps_are_identity(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth")
        for (a, b), m in coll.maps.items():
            assert list(m.indices) == list(range(50))

    def test_ground_truth_labels_cover_landmarks(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth",
                                landmark_count=8)
        for sh in coll.shapes:
            assert len(sh.ground_truth) == 8
            assert len(sh.landmark_indices) == 8

    def test_unknown_map_source_is_an_invalid_value_naming_it(self):
        with pytest.raises(InvalidValueError, match="got 'exact'"):
            synth_collection(3, 50, 0.05, seed=2, map_source="exact")

    def test_align_maps_exist_both_directions(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="align")
        ids = coll.ids
        for a in ids:
            for b in ids:
                if a != b:
                    assert (a, b) in coll.maps

    def test_fibonacci_sphere_unit(self):
        pts = fibonacci_sphere(100)
        assert pts.shape == (100, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


class TestRunBenchmark:
    def test_truth_collection_all_methods_exact(self):
        coll = synth_collection(5, 80, 0.05, seed=7, map_source="truth")
        res = run_benchmark(coll, methods=METHODS, lams=(0.978,))
        for curve in res.curves:
            assert curve.fractions[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("methods", [METHODS, ("direct", "mle")], ids=["all", "direct-mle"])
    def test_scoring_oracles_hold_no_spare_rows(self, methods):
        # the diameter's rows are read before the 16 landmark rows, so each row
        # store grows to exactly the rows it holds
        coll = synth_collection(6, 300, 0.05, seed=3, map_source="truth")
        assert all(len(s.landmark_indices) == 16 for s in coll.shapes)
        run_benchmark(coll, methods=methods)
        oracles = [coll.oracle(s) for s in coll.ids]
        assert all(o._filled == len(o._store) for o in oracles)
        assert all(o._filled >= 16 for o in oracles)

    def test_spanning_tree_is_built_once_per_collection(self, monkeypatch):
        # mst routes over the tree and shortest's default epsilon is its
        # longest edge: one Kruskal run serves all 30 pairs of both methods
        calls = []

        def counted(D, _real=baselines_mod.kruskal_mst):
            calls.append(D.shape)
            return _real(D)

        monkeypatch.setattr(baselines_mod, "kruskal_mst", counted)
        coll = synth_collection(6, 60, 0.05, seed=7, map_source="truth")
        res = run_benchmark(coll, methods=("mst", "shortest"))
        assert len(res.pairs) == 30 and calls == [(6, 6)]
        run_benchmark(coll, methods=("mst", "shortest"))
        assert calls == [(6, 6)]

    def test_unknown_method_rejected(self):
        coll = synth_collection(3, 50, 0.05, seed=7, map_source="truth")
        with pytest.raises(ValueError):
            run_benchmark(coll, methods=("direct", "psychic"))

    def test_lambda_sweep_emits_one_curve_per_lambda(self):
        coll = synth_collection(4, 60, 0.05, seed=7, map_source="truth")
        res = run_benchmark(coll, methods=("mle",), lams=(0.9, 0.95, 0.978))
        lams = [c.lam for c in res.curves]
        assert lams == [0.9, 0.95, 0.978]

    def test_to_mean_restricts_pairs(self):
        coll = synth_collection(4, 60, 0.05, seed=7, map_source="truth")
        res = run_benchmark(coll, methods=("direct",), to_mean=True)
        hubs = {b for _, b in res.pairs}
        # the hub minimizes the summed squared distance to the other shapes
        assert hubs == {coll.ids[int(np.argmin((coll.D**2).sum(axis=1)))]}

    def test_route_methods_share_error_keys(self):
        coll = synth_collection(4, 60, 0.05, seed=7, map_source="truth")
        res = run_benchmark(coll, methods=("direct", "mst", "shortest"))
        assert set(res.errors) == {("direct", None), ("mst", None), ("shortest", None)}

    @pytest.mark.parametrize("method", ["mst", "shortest"])
    def test_soft_map_inside_a_route_is_named(self, method):
        # seed 3: the hub is s01, and both routes from s02 run s02 -> s00 -> s01
        coll = synth_collection(4, 60, 0.05, seed=3, map_source="truth")
        soft = coll.maps[("s02", "s00")].to_soft()
        coll.maps[("s02", "s00")] = CorrespondenceMap("s02", "s00", "soft", matrix=soft)
        assert run_benchmark(coll, methods=("direct",), to_mean=True).pairs[1] == ("s02", "s01")
        with pytest.raises(CorrsyncError, match="map 's02' -> 's00' is soft"):
            run_benchmark(coll, methods=(method,), to_mean=True)

    def test_all_methods_in_one_pass_match_each_method_alone(self):
        coll = corrupt_maps(synth_collection(5, 80, 0.08, seed=4), 0.3, seed=1)
        lams = (0.9, 0.978)
        together = run_benchmark(coll, METHODS, lams=lams)
        assert list(together.errors) == [
            ("direct", None), ("mst", None), ("shortest", None),
            ("frechet", 0.9), ("frechet", 0.978), ("mle", 0.9), ("mle", 0.978),
        ]
        for m in METHODS:
            alone = run_benchmark(coll, (m,), lams=lams)
            assert list(alone.errors) == [key for key in together.errors if key[0] == m]
            for key, errs in alone.errors.items():
                assert errs.tobytes() == together.errors[key].tobytes()

    def test_disconnected_targets_name_the_first_in_pair_order(self):
        # s1 and s2 split into two far clusters, so neither has a connected
        # k-NN graph; the pairs run (s0, s1), (s0, s2), ..., so s1 is named
        # whatever order the interpreter's string hashing gives a set of ids
        script = textwrap.dedent(
            """
            import numpy as np
            from corrsync.benchmark import run_benchmark
            from corrsync.collection import Shape, ShapeCollection, identity_map

            line = np.c_[np.arange(20.0), np.zeros(20), np.zeros(20)]
            split = line + np.c_[np.repeat([0.0, 100.0], 10), np.zeros(20), np.zeros(20)]
            shapes = [
                Shape(id=sid, points=pts, ground_truth={"a": 0, "b": 19})
                for sid, pts in (("s0", line), ("s1", split), ("s2", split))
            ]
            maps = {(a, b): identity_map(a, 20, b)
                    for a in ("s0", "s1", "s2") for b in ("s0", "s1", "s2") if a != b}
            coll = ShapeCollection(shapes=shapes, D=1.0 - np.eye(3), maps=maps)
            run_benchmark(coll, methods=("direct",))
            """
        )
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert "DisconnectedGraphError: shape 's1': k=8 graph has 2 components" in proc.stderr


class TestCorruptMaps:
    def test_fraction_validated(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth")
        named = r"fraction must be a finite number in \[0, 1\], got"
        for fraction in (-0.1, 1.5, float("nan")):
            with pytest.raises(InvalidValueError, match=named):
                corrupt_maps(coll, fraction, seed=0)

    def test_soft_map_is_a_domain_error(self):
        coll = synth_collection(2, 50, 0.05, seed=2, map_source="truth")
        soft = coll.maps[("s01", "s00")].to_soft()
        coll.maps[("s01", "s00")] = CorrespondenceMap("s01", "s00", "soft", matrix=soft)
        with pytest.raises(InvalidValueError, match="discrete maps only, not 's00'<->'s01'"):
            corrupt_maps(coll, 1.0, seed=0)

    def test_zero_fraction_is_identity(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth")
        out = corrupt_maps(coll, 0.0, seed=0)
        for key, m in coll.maps.items():
            assert np.array_equal(out.maps[key].indices, m.indices)

    def test_full_fraction_corrupts_all_pairs(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        out = corrupt_maps(coll, 1.0, seed=0)
        assert len(corrupted_pairs(coll, out)) == 6

    def test_mutual_inverse_preserved(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        out = corrupt_maps(coll, 1.0, seed=0)
        n = 50
        for (a, b) in corrupted_pairs(coll, out):
            fwd = out.maps[(a, b)]
            rev = out.maps[(b, a)]
            assert list(rev.push(fwd.indices)) == list(range(n))

    def test_corruption_actually_changes_maps(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        out = corrupt_maps(coll, 1.0, seed=0)
        changed = sum(
            not np.array_equal(out.maps[k].indices, coll.maps[k].indices)
            for k in coll.maps
        )
        assert changed > 0

    def test_deterministic(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        a = corrupt_maps(coll, 0.5, seed=3)
        b = corrupt_maps(coll, 0.5, seed=3)
        assert corrupted_pairs(coll, a) == corrupted_pairs(coll, b)
        for k in a.maps:
            assert np.array_equal(a.maps[k].indices, b.maps[k].indices)


class TestCollectionEdits:
    def test_add_far_shape_distances(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        far = add_far_shape(coll, factor=10.0)
        n = len(coll.shapes)
        assert far.D.shape == (n + 1, n + 1)
        expected = 10.0 * coll.D.max()
        assert np.allclose(far.D[n, :n], expected)
        assert np.array_equal(far.D[:n, :n], coll.D)

    def test_remove_shape(self):
        coll = synth_collection(4, 50, 0.05, seed=2, map_source="truth")
        out = remove_shape(coll, "s02")
        assert "s02" not in out.ids
        assert len(out.shapes) == 3
        keep = [coll.index(i) for i in out.ids]
        assert np.array_equal(out.D, coll.D[np.ix_(keep, keep)])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: corrupt_maps(c, 0.5, seed=1),
            lambda c: add_far_shape(c),
            lambda c: remove_shape(c, "s01"),
        ],
        ids=["corrupt", "add-far", "remove"],
    )
    def test_edits_keep_beta_and_allow_duplicates(self, edit):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth")
        coll = ShapeCollection(
            shapes=coll.shapes, D=coll.D, maps=coll.maps, beta=2.5, allow_duplicates=True
        )
        out = edit(coll)
        assert (out.beta, out.allow_duplicates) == (2.5, True)

    def test_remove_unknown_rejected(self):
        coll = synth_collection(3, 50, 0.05, seed=2, map_source="truth")
        with pytest.raises(ManifestError):
            remove_shape(coll, "nope")


class TestStabilityReport:
    def test_far_vertex_exactly_stable(self):
        coll = synth_collection(5, 60, 0.05, seed=3, map_source="truth")
        rep = stability_report(coll, add_far_shape(coll), lam=0.0)
        assert all(v == 0 for v in rep.flow_edge_diff.values())
        assert all(v == 0.0 for v in rep.tv.values())
        assert not rep.mst_changed
        extra = set(rep.mst_after) - set(rep.mst_before)
        assert len(extra) == 1
        assert any("far" in e for e in extra)

    def test_removal_reports_shared_ids(self):
        coll = synth_collection(4, 50, 0.05, seed=3, map_source="truth")
        rep = stability_report(coll, remove_shape(coll, "s03"), lam=0.0)
        assert rep.shared_ids == ("s00", "s01", "s02")
        assert all(0.0 <= v <= 1.0 for v in rep.tv.values())
