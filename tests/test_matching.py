import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

from corrsync.benchmark import synth_collection
from corrsync.collection import GeodesicOracle, Shape
from corrsync.errors import (
    BallOverlapError,
    DegenerateGeometryError,
    DisconnectedGraphError,
    InvalidValueError,
)
from corrsync.matching import (
    Match,
    baseline_pairwise_align,
    check_ball_disjoint,
    detect_extrema,
    fps_landmarks,
    gp_partial_match,
    interpolate_dense,
    joint_fps_refine,
    match_pair,
    project_vertices,
    stable_curvature_match,
    strict_extrema,
)

from conftest import soft_from_rows


def line_shape(shape_id, xs):
    xs = np.asarray(xs, dtype=float)
    return Shape(id=shape_id, points=np.c_[xs, np.zeros(len(xs)), np.zeros(len(xs))])


def match_pairs(matches):
    return [(m.source, m.target) for m in matches]


def adjacency(neighbors):
    """Sparse adjacency whose row v holds the vertices of neighbors[v]."""
    rows = [v for v, hood in enumerate(neighbors) for _ in hood]
    cols = [u for hood in neighbors for u in hood]
    n = len(neighbors)
    return sparse.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(n, n))


def hop_neighborhoods(neighbors, hops):
    # per-vertex breadth-first reference: every other vertex within hops steps
    out = []
    for v in range(len(neighbors)):
        seen = {v}
        frontier = {v}
        for _ in range(hops):
            nxt = set()
            for u in frontier:
                nxt.update(neighbors[u])
            frontier = nxt - seen
            seen |= nxt
        seen.discard(v)
        out.append(seen)
    return out


class TestFps:
    def test_collinear_fixture(self):
        sh = line_shape("line", [0.0, 1.0, 2.0, 3.0])
        oracle = GeodesicOracle(sh, k=2)
        assert fps_landmarks(sh, 3, oracle) == (0, 3, 1)

    def test_count_capped_by_vertices(self):
        sh = line_shape("line", [0.0, 1.0])
        oracle = GeodesicOracle(sh, k=1)
        with pytest.raises(ValueError):
            fps_landmarks(sh, 3, oracle)

    @pytest.mark.parametrize("count", [3.5, 3.0, "3"])
    def test_non_integer_count_rejected(self, count):
        sh = line_shape("line", [0.0, 1.0, 2.0, 3.0])
        oracle = GeodesicOracle(sh, k=2)
        with pytest.raises(InvalidValueError, match=f"landmark count {count!r} is not an integer"):
            fps_landmarks(sh, count, oracle)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        sh = Shape(id="blob", points=rng.normal(size=(40, 3)))
        oracle = GeodesicOracle(sh, k=6)
        a = fps_landmarks(sh, 8, oracle)
        b = fps_landmarks(sh, 8, oracle)
        assert a == b


class TestBallDisjoint:
    def test_overlap_raises_with_separation(self):
        sh = line_shape("line", [0.0, 1.0, 2.0])
        oracle = GeodesicOracle(sh, k=1)
        with pytest.raises(BallOverlapError, match="separation"):
            check_ball_disjoint((0, 2), 1.0, oracle)

    def test_exactly_touching_rejected(self):
        # separation must strictly exceed 2R
        sh = line_shape("line", [0.0, 1.0, 2.0])
        oracle = GeodesicOracle(sh, k=1)
        with pytest.raises(BallOverlapError):
            check_ball_disjoint((0, 2), 1.0, oracle)
        check_ball_disjoint((0, 2), 0.9, oracle)

    def test_first_overlap_in_landmark_order_reported(self):
        # landmarks 4, 0, 1, 3 on a unit-spaced line: the pairs at positions
        # (0, 3) and (1, 2) overlap; a column-first or vertex-sorted scan
        # would report 0 and 1
        sh = line_shape("line", [0.0, 1.0, 2.0, 3.0, 4.0])
        oracle = GeodesicOracle(sh, k=1)
        with pytest.raises(BallOverlapError, match=r"^landmarks 4 and 3 are 1 apart; "):
            check_ball_disjoint((4, 0, 1, 3), 0.6, oracle)


class TestGpPartialMatch:
    def _soft(self, src, tgt, rows):
        return soft_from_rows(rows, src, tgt)

    def test_mutual_mass_matches(self):
        a = line_shape("a", [0.0, 4.0])
        b = line_shape("b", [0.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        soft_ab = self._soft("a", "b", {0: {0: 0.9, 1: 0.1}, 1: {1: 1.0}})
        soft_ba = self._soft("b", "a", {0: {0: 0.8, 1: 0.2}, 1: {1: 1.0}})
        out = gp_partial_match(soft_ab, soft_ba, (0, 1), (0, 1), 1.0, oa, ob)
        assert match_pairs(out) == [(0, 0), (1, 1)]

    def test_unmatched_landmark_left_out(self):
        a = line_shape("a", [0.0, 4.0])
        b = line_shape("b", [0.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        # landmark 1's mass lands nowhere mutual
        soft_ab = self._soft("a", "b", {0: {0: 1.0}, 1: {0: 1.0}})
        soft_ba = self._soft("b", "a", {0: {0: 1.0}, 1: {1: 1.0}})
        out = gp_partial_match(soft_ab, soft_ba, (0, 1), (0, 1), 1.0, oa, ob)
        assert out == [Match(0, 0, "partial")]

    def test_taken_target_skipped(self):
        a = line_shape("a", [0.0, 4.0])
        b = line_shape("b", [0.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        # both landmarks point at target 0; only the first claims it
        soft_ab = self._soft("a", "b", {0: {0: 1.0}, 1: {0: 1.0}})
        soft_ba = self._soft("b", "a", {0: {0: 0.5, 1: 0.5}, 1: {1: 1.0}})
        out = gp_partial_match(soft_ab, soft_ba, (0, 1), (0, 1), 1.0, oa, ob)
        assert match_pairs(out) == [(0, 0)]

    def test_ball_overlap_checked_on_both_shapes(self):
        a = line_shape("a", [0.0, 1.0])
        b = line_shape("b", [0.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        soft_ab = self._soft("a", "b", {0: {0: 1.0}, 1: {1: 1.0}})
        soft_ba = self._soft("b", "a", {0: {0: 1.0}, 1: {1: 1.0}})
        with pytest.raises(BallOverlapError):
            gp_partial_match(
                soft_ab, soft_ba, (0, 1), (0, 1), 1.0, oa, ob
            )


class TestExtrema:
    def test_chain_fixture(self):
        field = np.array([1.0, 3.0, 2.0, 5.0])
        nb = ((1,), (0, 2), (1, 3), (2,))
        assert strict_extrema(field, adjacency(nb), hops=1) == (1, 3)

    def test_two_hop_suppresses_smaller_peak(self):
        field = np.array([1.0, 3.0, 2.0, 5.0])
        nb = ((1,), (0, 2), (1, 3), (2,))
        assert strict_extrema(field, adjacency(nb), hops=2) == (3,)

    def test_plateau_is_not_strict(self):
        field = np.array([2.0, 2.0])
        nb = ((1,), (0,))
        assert strict_extrema(field, adjacency(nb), hops=1) == ()

    def test_isolated_vertex_vacuous(self):
        field = np.array([0.0, 5.0, 1.0])
        nb = ((), (2,), (1,))
        assert strict_extrema(field, adjacency(nb), hops=1) == (0, 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_breadth_first_reference(self, data):
        # directed edges, self-loops, isolated vertices and tied values
        n = data.draw(st.integers(1, 9))
        vertex = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        field = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
        hops = data.draw(st.integers(1, 4))
        nb = tuple(tuple(sorted({u for w, u in edges if w == v})) for v in range(n))
        hoods = hop_neighborhoods(nb, hops)
        expected = tuple(v for v in range(n) if all(field[v] > field[u] for u in hoods[v]))
        assert strict_extrema(field, adjacency(nb), hops) == expected

    @pytest.mark.parametrize(
        "shape_id, by_hops",
        [
            ("s00", [(66, 136), (66, 136), (66,), (66,)]),
            ("s04", [(33, 71, 144), (33, 144), (33, 144), (33, 144)]),
        ],
    )
    def test_synth_extrema_pinned(self, shape_id, by_hops):
        coll = synth_collection(8, 150, 0.08, seed=3)
        shape, oracle = coll.shape(shape_id), coll.oracle(shape_id)
        assert [detect_extrema(shape, oracle, hops) for hops in (1, 2, 3, 4)] == by_hops

    def test_two_hop_match_pinned(self):
        coll = synth_collection(8, 150, 0.08, seed=3)
        matches, unmatched = match_pair(
            coll, "s04", "s06", radius=0.2, delta=1.0, hops=2, max_matches=15,
            lam=0.978, landmarks=10, k=8,
        )
        assert matches[0] == Match(144, 107, "curvature")
        assert (len(matches), unmatched) == (15, 0)

    def test_detect_requires_field(self):
        sh = line_shape("a", [0.0, 1.0])
        oracle = GeodesicOracle(sh, k=1)
        with pytest.raises(ValueError):
            detect_extrema(sh, oracle)

    def test_detect_uses_shape_field(self):
        sh = Shape(
            id="a",
            points=np.c_[np.arange(4.0), np.zeros(4), np.zeros(4)],
            scalar_field=np.array([1.0, 3.0, 2.0, 5.0]),
        )
        oracle = GeodesicOracle(sh, k=1)
        assert detect_extrema(sh, oracle, hops=1) == (1, 3)


class TestProjectVertices:
    def test_nearest_with_low_tie(self):
        src = np.array([[0.5, 0, 0]])
        tgt = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert project_vertices(src, tgt) == [0]


class TestStableMatch:
    def test_contested_target_goes_to_closer_proposer(self):
        # both extrema of a prefer b's vertex 0; brute force over the two
        # complete matchings says the unique stable outcome pairs (0,0),(1,1)
        a = line_shape("a", [0.0, 0.4, 4.0])
        b = line_shape("b", [0.0, 1.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        out = stable_curvature_match(a.points, b.points, (0, 1), (0, 1), 10.0, oa, ob)
        assert match_pairs(out) == [(0, 0), (1, 1)]

    def test_admissibility_threshold(self):
        a = line_shape("a", [0.0, 4.0])
        b = line_shape("b", [10.0, 14.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        out = stable_curvature_match(a.points, b.points, (0,), (0,), 0.5, oa, ob)
        assert out == []

    @pytest.mark.parametrize("extrema_a, extrema_b", [((0, 0), (0,)), ((0,), (0, 1, 0))])
    def test_repeated_extremum_rejected(self, extrema_a, extrema_b):
        a = line_shape("a", [0.0, 4.0])
        b = line_shape("b", [0.0, 4.0])
        oa, ob = GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)
        with pytest.raises(InvalidValueError, match="vertex 0"):
            stable_curvature_match(a.points, b.points, extrema_a, extrema_b, 10.0, oa, ob)

    def test_no_blocking_pair_on_random_instances(self):
        # preference keys restated independently: proposers rank targets by
        # (distance on b between projected source and target, target index),
        # receivers rank proposers by (distance on a between proposer and
        # projected target, proposer index)
        rng = np.random.default_rng(13)
        for _ in range(15):
            na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            xa = np.sort(rng.uniform(0, 10, na))
            xb = np.sort(rng.uniform(0, 10, nb))
            a = line_shape("a", xa)
            b = line_shape("b", xb)
            oa, ob = GeodesicOracle(a, k=na - 1), GeodesicOracle(b, k=nb - 1)
            out = stable_curvature_match(
                a.points, b.points, tuple(range(na)), tuple(range(nb)), 100.0, oa, ob
            )
            proj_b = [int(np.argmin(np.abs(xb - x))) for x in xa]
            proj_a = [int(np.argmin(np.abs(xa - x))) for x in xb]
            fwd = np.array([[abs(xb[proj_b[s]] - xb[t]) for t in range(nb)] for s in range(na)])
            rev_c = np.array([[abs(xa[s] - xa[proj_a[t]]) for t in range(nb)] for s in range(na)])
            matched = dict(match_pairs(out))
            partner_of_t = {t: s for s, t in matched.items()}
            for s in range(na):
                for t in range(nb):
                    if matched.get(s) == t:
                        continue
                    if s in matched:
                        s_prefers = (fwd[s, t], t) < (fwd[s, matched[s]], matched[s])
                    else:
                        s_prefers = True
                    if t in partner_of_t:
                        cur = partner_of_t[t]
                        t_prefers = (rev_c[s, t], s) < (rev_c[cur, t], cur)
                    else:
                        t_prefers = True
                    assert not (s_prefers and t_prefers), (xa, xb, s, t, matched)


class TestJointFpsRefine:
    def _setup(self):
        a = line_shape("a", [0.0, 1.0, 2.0, 3.0, 4.0])
        b = line_shape("b", [0.0, 1.0, 2.0, 3.0, 4.0])
        return a, b, GeodesicOracle(a, k=1), GeodesicOracle(b, k=1)

    def test_picks_farthest_candidate_first(self):
        a, b, oa, ob = self._setup()
        seeds = [Match(0, 0, "seed")]
        candidates = [Match(1, 1, "c"), Match(4, 4, "c"), Match(2, 2, "c")]
        out = joint_fps_refine(seeds, candidates, 2, oa, ob)
        assert match_pairs(out) == [(0, 0), (4, 4)]

    def test_energy_ties_break_on_source_index(self):
        a, b, oa, ob = self._setup()
        seeds = [Match(2, 2, "seed")]
        candidates = [Match(4, 4, "c"), Match(0, 0, "c")]
        out = joint_fps_refine(seeds, candidates, 2, oa, ob)
        assert match_pairs(out) == [(2, 2), (0, 0)]

    def test_budget_below_seeds_rejected(self):
        a, b, oa, ob = self._setup()
        seeds = [Match(0, 0, "seed"), Match(1, 1, "seed")]
        with pytest.raises(ValueError):
            joint_fps_refine(seeds, [], 1, oa, ob)

    def test_vertex_reuse_skipped(self):
        a, b, oa, ob = self._setup()
        seeds = [Match(0, 0, "seed")]
        candidates = [Match(4, 0, "c"), Match(3, 3, "c")]
        out = joint_fps_refine(seeds, candidates, 3, oa, ob)
        # (4, 0) reuses target 0 and must be skipped
        assert match_pairs(out) == [(0, 0), (3, 3)]

    @pytest.mark.parametrize("second", [Match(0, 1, "seed"), Match(1, 0, "seed")])
    def test_seeds_sharing_a_vertex_rejected(self, second):
        a, b, oa, ob = self._setup()
        with pytest.raises(InvalidValueError, match="vertex 0"):
            joint_fps_refine([Match(0, 0, "seed"), second], [], 3, oa, ob)

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_candidate_loop_reference(self, seed, data):
        # the array selection against the per-candidate loop it replaced, on
        # random clouds whose candidates repeat vertices and whole pairs
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        pa = rng.normal(size=(n, 3))
        try:
            oa = GeodesicOracle(Shape(id="a", points=pa), k=3)
            ob = GeodesicOracle(Shape(id="b", points=pa + 0.1 * rng.normal(size=(n, 3))), k=3)
        except DisconnectedGraphError:
            reject()  # the k=3 graph of a random cloud can fall apart, and the oracle refuses it
        vertex = st.integers(0, n - 1)
        seeds = [Match(s, t, "seed") for s, t in zip(
            data.draw(st.lists(vertex, max_size=3, unique=True)),
            data.draw(st.lists(vertex, min_size=3, max_size=3, unique=True)))]
        candidates = data.draw(st.lists(st.builds(Match, vertex, vertex, st.just("c")),
                                        max_size=12))
        candidates += candidates[:2]
        budget = data.draw(st.integers(len(seeds), len(seeds) + 12))
        assert joint_fps_refine(seeds, candidates, budget, oa, ob) == _refine_loop(
            seeds, candidates, budget, oa, ob)


def _refine_loop(seeds, candidates, max_matches, oracle_a, oracle_b):
    """joint_fps_refine's selection as a loop over candidates, kept as the
    reference for the array form."""
    chosen = list(seeds)
    used_a = {m.source for m in chosen}
    used_b = {m.target for m in chosen}
    pool = [m for m in candidates if m.source not in used_a and m.target not in used_b]
    mind_a = np.full(oracle_a.n, np.inf)
    mind_b = np.full(oracle_b.n, np.inf)
    for m in chosen:
        np.minimum(mind_a, oracle_a.distances_from(m.source), out=mind_a)
        np.minimum(mind_b, oracle_b.distances_from(m.target), out=mind_b)
    while pool and len(chosen) < max_matches:
        best = min(pool, key=lambda m: (-(float(mind_a[m.source]) + float(mind_b[m.target])),
                                        m.source, m.target))
        chosen.append(best)
        used_a.add(best.source)
        used_b.add(best.target)
        np.minimum(mind_a, oracle_a.distances_from(best.source), out=mind_a)
        np.minimum(mind_b, oracle_b.distances_from(best.target), out=mind_b)
        pool = [m for m in pool if m.source not in used_a and m.target not in used_b]
    return chosen


class TestInterpolateDense:
    def test_exact_on_matched_landmarks(self):
        a = line_shape("a", [0.0, 1.0, 2.0, 3.0])
        b = line_shape("b", [0.0, 1.0, 2.0, 3.0])
        oa = GeodesicOracle(a, k=1)
        matches = [Match(0, 0, "m"), Match(3, 3, "m")]
        dense = interpolate_dense(matches, a, b, oa)
        assert dense.indices[0] == 0 and dense.indices[3] == 3

    def test_interior_snaps_to_nearest_vertex(self):
        a = line_shape("a", [0.0, 1.0, 2.0, 3.0])
        b = line_shape("b", [0.0, 1.0, 2.0, 3.0])
        oa = GeodesicOracle(a, k=1)
        matches = [Match(0, 0, "m"), Match(3, 3, "m")]
        dense = interpolate_dense(matches, a, b, oa)
        assert list(dense.indices) in ([0, 1, 2, 3], [0, 1, 1, 3], [0, 2, 2, 3])

    @staticmethod
    def _reference(matches, shape_a, shape_b, oracle_a):
        # one vertex at a time: its 4 nearest matches by (distance, match
        # order), weights 1/d, the blended target position snapped to a vertex
        tree_b = cKDTree(shape_b.points)
        pairs = match_pairs(matches)
        exact = dict(pairs)
        rows = oracle_a.distance_rows([s for s, _ in pairs])
        out = []
        for v in range(shape_a.n):
            if v in exact:
                out.append(exact[v])
                continue
            d = rows[:, v]
            order = np.lexsort((np.arange(len(pairs)), d))[:4]
            w = 1.0 / d[order]
            pos = (w[:, None] * shape_b.points[[pairs[a][1] for a in order]]).sum(0) / w.sum()
            out.append(int(tree_b.query(pos)[1]))
        return out

    @pytest.mark.parametrize("count", [1, 4, 15])
    def test_matches_per_vertex_reference(self, count):
        coll = synth_collection(2, 200, 0.08, seed=count)
        a, b = coll.shapes
        oa = GeodesicOracle(a)
        rng = np.random.default_rng(count)
        srcs = rng.choice(a.n, count, replace=False)
        tgts = rng.choice(b.n, count, replace=False)
        matches = [Match(int(s), int(t), "m") for s, t in zip(srcs, tgts)]
        dense = interpolate_dense(matches, a, b, oa)
        assert dense.indices.tolist() == self._reference(matches, a, b, oa)

    def test_every_vertex_matched(self):
        a = line_shape("a", [0.0, 1.0, 2.0])
        b = line_shape("b", [0.0, 1.0, 2.0])
        matches = [Match(0, 2, "m"), Match(1, 0, "m"), Match(2, 1, "m")]
        dense = interpolate_dense(matches, a, b, GeodesicOracle(a, k=1))
        assert dense.indices.tolist() == [2, 0, 1]

    def test_empty_matches_rejected(self):
        a = line_shape("a", [0.0, 1.0])
        b = line_shape("b", [0.0, 1.0])
        oa = GeodesicOracle(a, k=1)
        with pytest.raises(ValueError):
            interpolate_dense([], a, b, oa)


class TestBaselineAlign:
    def test_recovers_rigid_motion(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(50, 3))
        th = 0.4
        R = np.array(
            [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]]
        )
        t = np.array([0.3, -0.2, 0.7])
        B = A @ R.T + t
        res = baseline_pairwise_align(Shape(id="a", points=A), Shape(id="b", points=B))
        assert res.distance < 1e-8
        assert np.allclose(res.rotation, R, atol=1e-8)
        assert np.allclose(res.translation, t, atol=1e-8)
        assert np.allclose(res.rotation @ res.rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(res.rotation) == pytest.approx(1.0)

    def test_collinear_input_rejected(self):
        xs = np.arange(10, dtype=float)
        A = np.c_[xs, np.zeros(10), np.zeros(10)]
        with pytest.raises(DegenerateGeometryError):
            baseline_pairwise_align(Shape(id="a", points=A), Shape(id="b", points=A))

    def test_map_assigns_nearest(self):
        A = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0], [0.5, 0.5, 1.0]])
        res = baseline_pairwise_align(Shape(id="a", points=A), Shape(id="b", points=A))
        assert list(res.map.indices) == [0, 1, 2, 3]
