import json
import os
import re
import subprocess
import sys
import tempfile
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import cdist

import corrsync.collection as collection_mod
from corrsync.collection import (
    CorrespondenceMap,
    GeodesicOracle,
    Shape,
    ShapeCollection,
    identity_map,
    load_collection,
    save_collection,
)
from corrsync.baselines import compose_along
from corrsync.benchmark import synth_collection
from corrsync.collection import _build_neighbor_graph
from corrsync.flow import gibbs_weights
from corrsync.soft import all_pairs_soft, frechet_mean, mle, propagate_soft
from corrsync.errors import (
    DisconnectedGraphError,
    DuplicateShapeError,
    IndexRangeError,
    InverseViolationError,
    ManifestError,
    MetricAsymmetryError,
    MissingMapError,
    SoftRowError,
)

from conftest import build_l4, push_row, two_point_shape


# malformed contents of a map file: (text, error class, what its message names)
BAD_MAP_FILES = [
    ("0,x\n1,1\n", ManifestError, "could not convert"),
    ("0,1\n1,1,0.5\n", ManifestError, "number of columns"),
    ("0,1.5\n1,1\n", ManifestError, "non-integer index in row 0"),
    ("0,0\n1,nan\n", ManifestError, "non-integer index in row 1"),
    ("0,1,2,3\n1,1,2,3\n", ManifestError, "2 or 3 columns"),
    ("# nothing here\n", ManifestError, "empty map file"),
    ("0,1\ninf,1\n", ManifestError, "non-integer index in row 1"),
    ("0,1\n2,1\n", IndexRangeError, r"index \(2,1\) out of range"),
    ("0,1\n1,2\n", IndexRangeError, r"index \(1,2\) out of range"),
    ("0,1,1.0\n1,-1,1.0\n", IndexRangeError, r"index \(1,-1\) out of range"),
]


class TestShape:
    def test_requires_two_points(self):
        with pytest.raises(ManifestError):
            Shape(id="one", points=np.array([[0.0, 0.0, 0.0]]))

    def test_landmark_range_checked(self):
        with pytest.raises(IndexRangeError):
            Shape(
                id="s",
                points=np.zeros((3, 3)),
                landmark_indices=(0, 5),
            )

    def test_ground_truth_range_checked(self):
        with pytest.raises(IndexRangeError):
            Shape(id="s", points=np.zeros((3, 3)), ground_truth={"tip": 9})


    @pytest.mark.parametrize(
        "bad", ["", "../escaped", "a/b", "a\\b", "..", "a__b", "_a", "b_"]
    )
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(ManifestError, match=re.escape(repr(bad))):
            Shape(id=bad, points=np.zeros((2, 3)))

    def test_non_string_id_rejected(self):
        with pytest.raises(ManifestError, match="invalid shape id 3"):
            Shape(id=3, points=np.zeros((2, 3)))


class TestCorrespondenceMap:
    def test_discrete_roundtrip(self):
        m = CorrespondenceMap("a", "b", "discrete", indices=np.array([2, 0, 1]), target_size=3)
        assert m.n_source == 3
        assert m.is_bijection()
        assert push_row(m, {1: 1.0}) == {0: 1.0}

    @pytest.mark.parametrize(
        "indices, target_size, want",
        [([1, 1, 0], 3, False), ([0, 1], 3, False), ([1, 0], 2, True), ([], 0, True)],
    )
    def test_is_bijection(self, indices, target_size, want):
        m = CorrespondenceMap(
            "a", "b", "discrete", indices=np.array(indices, dtype=np.int64), target_size=target_size
        )
        assert m.is_bijection() is want

    def test_discrete_range_check(self):
        with pytest.raises(IndexRangeError):
            CorrespondenceMap("a", "b", "discrete", indices=np.array([0, 3]), target_size=3)

    def test_soft_row_sums_validated(self):
        bad = sparse.csr_matrix(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(SoftRowError):
            CorrespondenceMap("a", "b", "soft", matrix=bad)

    def test_soft_negative_mass_rejected(self):
        bad = sparse.csr_matrix(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(SoftRowError):
            CorrespondenceMap("a", "b", "soft", matrix=bad)

    def test_soft_push_row(self):
        m = CorrespondenceMap(
            "a", "b", "soft", matrix=sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        )
        assert push_row(m, {0: 0.5, 1: 0.5}) == pytest.approx({0: 0.25, 1: 0.75})


def _chain_collection(*maps: CorrespondenceMap) -> ShapeCollection:
    """Shapes a, b, c, ... on a line, storing only the given maps a -> b -> c -> ..."""
    ids = [maps[0].source_id] + [m.target_id for m in maps]
    sizes = [maps[0].n_source] + [m.n_target for m in maps]
    shapes = [
        Shape(id=sid, points=np.c_[np.arange(n, dtype=float), np.zeros(n), np.zeros(n)])
        for sid, n in zip(ids, sizes)
    ]
    pos = np.arange(len(ids), dtype=float)
    D = np.abs(pos[:, None] - pos[None, :])
    return ShapeCollection(
        shapes=shapes, D=D, maps={(m.source_id, m.target_id): m for m in maps}
    )


class TestComposeMaps:
    def test_discrete_fixture(self):
        f = CorrespondenceMap("a", "b", "discrete", indices=np.array([2, 0, 1]), target_size=3)
        g = CorrespondenceMap("b", "c", "discrete", indices=np.array([1, 2, 0]), target_size=3)
        assert list(g.push(f.push(np.arange(3)))) == [0, 1, 2]
        comp = compose_along(_chain_collection(f, g), ["a", "b", "c"])
        assert comp.source_id == "a" and comp.target_id == "c"
        assert comp.kind == "discrete" and list(comp.indices) == [0, 1, 2]

    def test_soft_square_fixture(self):
        mat = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        m = CorrespondenceMap("a", "b", "soft", matrix=mat)
        m2 = CorrespondenceMap("b", "c", "soft", matrix=mat.copy())
        want = np.array([[0.25, 0.75], [0.0, 1.0]])
        assert m2.push(m.push(np.arange(2))).toarray() == pytest.approx(want)
        comp = compose_along(_chain_collection(m, m2), ["a", "b", "c"])
        assert comp.kind == "soft" and comp.matrix.toarray() == pytest.approx(want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associative_on_permutations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        def pmap(src, tgt):
            return CorrespondenceMap(
                src, tgt, "discrete", indices=rng.permutation(n), target_size=n
            )
        f, g, h = pmap("a", "b"), pmap("b", "c"), pmap("c", "d")
        coll = _chain_collection(f, g, h)
        left = h.push(compose_along(coll, ["a", "b", "c"]).indices)
        right = compose_along(coll, ["b", "c", "d"]).push(f.indices)
        assert np.array_equal(left, right)
        assert np.array_equal(left, compose_along(coll, ["a", "b", "c", "d"]).indices)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_soft_composition_keeps_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        def soft(src, tgt):
            raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            raw[np.arange(n), rng.integers(0, n, n)] += 0.2
            raw /= raw.sum(axis=1, keepdims=True)
            return CorrespondenceMap(src, tgt, "soft", matrix=sparse.csr_matrix(raw))
        comp = compose_along(_chain_collection(soft("a", "b"), soft("b", "c")), ["a", "b", "c"])
        sums = np.asarray(comp.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-9)


class TestGeodesicOracle:
    def test_chain_distances(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.5, 0, 0]])
        o = GeodesicOracle(Shape(id="chain", points=pts), k=1)
        assert o.distances_from(0)[3] == pytest.approx(3.5)
        assert o.distances_from(0)[2] == pytest.approx(2.0)

    def test_knn_tie_breaks_to_lowest_index(self):
        # vertex 1 sees 0 and 2 at distance 1; k=1 must pick index 0
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        o = GeodesicOracle(Shape(id="line", points=pts), k=1)
        assert 0 in o.neighbor_lists[1]

    def test_first_use_import_is_safe_across_threads(self):
        # eight threads build k-NN oracles at once in a process that has not
        # imported scipy.sparse yet
        code = """
import sys, threading
import numpy as np
import corrsync.collection as cc
assert "scipy.sparse" not in sys.modules
pts = np.c_[np.arange(30.0), np.zeros(30), np.zeros(30)]
out = []
def build():
    oracle = cc.GeodesicOracle(cc.Shape(id="line", points=pts))
    out.append(oracle.distances_from(0).tolist())
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=build) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(len(out), all(row == out[0] for row in out), out[0][-1],
      cc.csgraph is sys.modules["scipy.sparse.csgraph"])
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["8", "True", "29.0", "True"]

    def test_disconnected_graph_reported(self):
        pts = np.vstack([np.zeros((3, 3)) + [0, 0, 0], np.zeros((3, 3)) + [100.0, 0, 0]])
        pts += np.arange(6)[:, None] * [0.01, 0, 0]
        with pytest.raises(DisconnectedGraphError):
            GeodesicOracle(Shape(id="split", points=pts), k=2)

    def test_diameter_double_sweep_on_path_graph(self):
        pts = np.c_[np.arange(5, dtype=float), np.zeros(5), np.zeros(5)]
        o = GeodesicOracle(Shape(id="line", points=pts), k=1)
        assert o.diameter() == pytest.approx(4.0)


def _cloud_oracle(seed, n=60, k=6):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return GeodesicOracle(Shape(id="cloud", points=pts), k=k)


@pytest.fixture
def dijkstra_calls(monkeypatch):
    """Every csgraph.dijkstra call made through corrsync.collection, as the
    list of source vertices it was asked for."""
    real = collection_mod.csgraph
    calls = []

    def dijkstra(*args, **kwargs):
        calls.append(np.atleast_1d(kwargs["indices"]).tolist())
        return real.dijkstra(*args, **kwargs)

    view = types.SimpleNamespace(
        connected_components=real.connected_components, dijkstra=dijkstra
    )
    monkeypatch.setattr(collection_mod, "csgraph", view)
    return calls


class TestDistanceRows:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 59), min_size=0, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_single_source_rows(self, seed, vertices):
        oracle = _cloud_oracle(seed)
        rows = oracle.distance_rows(vertices)
        assert rows.shape == (len(vertices), oracle.n)
        want = [
            sparse.csgraph.dijkstra(oracle.graph, directed=False, indices=v) for v in vertices
        ]
        assert np.array_equal(rows, np.array(want).reshape(rows.shape))
        fresh = _cloud_oracle(seed)
        stacked = [fresh.distances_from(v) for v in vertices]
        assert np.array_equal(rows, np.array(stacked).reshape(rows.shape))

    def test_missing_rows_in_one_call(self, dijkstra_calls):
        oracle = _cloud_oracle(0)
        oracle.distance_rows([7, 3, 11, 5])
        assert dijkstra_calls == [[3, 5, 7, 11]]

    def test_cached_rows_not_recomputed(self, dijkstra_calls):
        oracle = _cloud_oracle(0)
        first = oracle.distance_rows([4, 9])
        again = oracle.distance_rows([9, 2, 4])
        assert dijkstra_calls == [[4, 9], [2]]
        assert np.array_equal(again[[0, 2]], first[[1, 0]])
        oracle.distance_rows([2, 4])
        oracle.distances_from(9)
        assert dijkstra_calls == [[4, 9], [2]]

    def test_repeated_vertices(self, dijkstra_calls):
        oracle = _cloud_oracle(0)
        rows = oracle.distance_rows([5, 5, 2, 5])
        assert dijkstra_calls == [[2, 5]]
        assert np.array_equal(rows[[0, 1, 3]], np.broadcast_to(rows[0], (3, oracle.n)))
        assert np.array_equal(rows[2], oracle.distances_from(2))

    @pytest.mark.parametrize("bad", [-1, 60, 10**6])
    def test_out_of_range_checked_before_any_row(self, dijkstra_calls, bad):
        oracle = _cloud_oracle(0)
        with pytest.raises(IndexRangeError, match=f"vertex {bad} out of range"):
            oracle.distance_rows([1, bad, 2])
        with pytest.raises(IndexRangeError):
            oracle.distances_from(bad)
        assert dijkstra_calls == []

    def test_concurrent_fetches_agree(self):
        oracle = _cloud_oracle(1)
        reference = _cloud_oracle(1).distance_rows(np.arange(60))
        rng = np.random.default_rng(2)
        requests = [rng.integers(0, 60, size=25) for _ in range(32)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(oracle.distance_rows, r) for r in requests]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for r, rows in zip(requests, results):
            assert np.array_equal(rows, reference[r])
        assert sorted(oracle._rows) == sorted(set(np.concatenate(requests).tolist()))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_directed_rows_on_the_stored_symmetric_graph(self, seed):
        # distance_rows runs Dijkstra with directed=True: exact because the
        # graph stores each edge in both directions with one length
        shape = synth_collection(2, 500, 0.08, seed=seed, map_source="truth").shapes[1]
        oracle = GeodesicOracle(shape)
        graph = oracle.graph
        assert (graph != graph.T).nnz == 0
        vertices = np.arange(0, shape.n, 7)
        undirected = sparse.csgraph.dijkstra(graph, directed=False, indices=vertices)
        assert np.array_equal(oracle.distance_rows(vertices), undirected)

    def test_empty(self, dijkstra_calls):
        oracle = _cloud_oracle(0)
        assert oracle.distance_rows([]).shape == (0, oracle.n)
        assert dijkstra_calls == []


def _brute_force_graph(pts, k):
    """The k-NN graph by definition: full distance matrix, then each row's
    k_eff nearest other vertices by (distance, index), symmetrized."""
    n = len(pts)
    k_eff = min(k, n - 1)
    dmat = cdist(pts, pts)
    pairs = set()
    for v in range(n):
        others = np.delete(np.arange(n), v)
        for u in others[np.lexsort((others, dmat[v, others]))][:k_eff]:
            pairs |= {(v, int(u)), (int(u), v)}
    return sorted(pairs)


def _graph_pairs(graph):
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    return list(zip(rows.tolist(), graph.indices.tolist()))


def _argpartition_graph(pts, k):
    """The k-NN graph as built before the KD-tree builder, kept as a reference
    for tie-free clouds (under exact ties its argpartition can miss the
    lowest-index neighbour)."""
    n = pts.shape[0]
    rows, cols = [], []
    k_eff = min(k, n - 1)
    dmat = cdist(pts, pts)
    slack = min(n - 1, k_eff + 8)
    for v in range(n):
        cand = np.argpartition(dmat[v], slack)[: slack + 1]
        cand = cand[cand != v]
        order = np.lexsort((cand, dmat[v][cand]))
        for u in cand[order][:k_eff]:
            rows.append(v)
            cols.append(int(u))
    pairs = sorted({(a, b) for a, b in zip(rows, cols)} | {(b, a) for a, b in zip(rows, cols)})
    rows_arr = np.array([p[0] for p in pairs], dtype=np.int64)
    cols_arr = np.array([p[1] for p in pairs], dtype=np.int64)
    lengths = np.linalg.norm(pts[rows_arr] - pts[cols_arr], axis=1)
    lengths = np.maximum(lengths, 1e-300)
    return sparse.csr_matrix((lengths, (rows_arr, cols_arr)), shape=(n, n))


@st.composite
def _clouds(draw):
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # small integer lattice: many exact distance ties and coincident points
        side = draw(st.integers(1, 4))
        return rng.integers(0, side, size=(n, 3)).astype(float)
    return rng.normal(size=(n, 3)) * 10.0 ** draw(st.integers(-3, 3))


class TestNeighborGraph:
    @given(_clouds(), st.integers(1, 12), st.sampled_from([0, 1, 4]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_definition(self, pts, k, slack):
        with mock.patch.object(collection_mod, "_KNN_SLACK", slack):
            graph = _build_neighbor_graph(Shape(id="c", points=pts), k)
        assert _graph_pairs(graph) == _brute_force_graph(pts, k)
        rows = np.repeat(np.arange(len(pts)), np.diff(graph.indptr))
        lengths = np.linalg.norm(pts[rows] - pts[graph.indices], axis=1)
        assert np.array_equal(graph.data, np.maximum(lengths, 1e-300))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_argpartition_builder_without_ties(self, seed, n, k):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        graph = _build_neighbor_graph(Shape(id="c", points=pts), k)
        ref = _argpartition_graph(pts, k)
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(graph, attr), getattr(ref, attr)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestShapeCollection:
    def test_duplicate_ids_rejected(self):
        shapes = [two_point_shape("s"), two_point_shape("s")]
        with pytest.raises(ManifestError):
            ShapeCollection(shapes=shapes, D=np.array([[0.0, 1.0], [1.0, 0.0]]), maps={})

    def test_metric_asymmetry_rejected(self):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = np.array([[0.0, 1.0], [1.5, 0.0]])
        with pytest.raises(MetricAsymmetryError):
            ShapeCollection(shapes=shapes, D=D, maps={})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_rejected(self, bad):
        shapes = [two_point_shape(k) for k in "abc"]
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        D[1, 2] = D[2, 1] = bad
        with pytest.raises(MetricAsymmetryError, match=r"non-finite .* at \(1, 2\)"):
            ShapeCollection(shapes=shapes, D=D, maps={})

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_beta_must_be_finite_and_positive(self, beta):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            ShapeCollection(shapes=shapes, D=np.array([[0.0, 1.0], [1.0, 0.0]]), maps={}, beta=beta)

    def test_zero_offdiagonal_needs_flag(self):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = np.zeros((2, 2))
        with pytest.raises(DuplicateShapeError):
            ShapeCollection(shapes=shapes, D=D, maps={})
        coll = ShapeCollection(shapes=shapes, D=D, maps={}, allow_duplicates=True)
        assert gibbs_weights(coll.D, coll.beta)[0, 1] == 1.0

    def test_identity_for_same_shape_missing_otherwise(self, l4_identity):
        same = l4_identity.map("s0", "s0")
        assert list(same.indices) == [0, 1]
        coll = build_l4()
        coll.maps.pop(("s0", "s1"))
        with pytest.raises(MissingMapError):
            coll.map("s0", "s1")

    def test_declared_inverses_checked(self):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        fwd = CorrespondenceMap("a", "b", "discrete", indices=np.array([1, 0]), target_size=2)
        good_rev = CorrespondenceMap("b", "a", "discrete", indices=np.array([1, 0]), target_size=2)
        bad_rev = CorrespondenceMap("b", "a", "discrete", indices=np.array([0, 1]), target_size=2)
        ShapeCollection(shapes=shapes, D=D, maps={("a", "b"): fwd})
        ShapeCollection(shapes=shapes, D=D, maps={("a", "b"): fwd, ("b", "a"): good_rev})
        with pytest.raises(InverseViolationError):
            ShapeCollection(
                shapes=shapes, D=D, maps={("a", "b"): fwd, ("b", "a"): bad_rev}
            )

    def test_weight_matrix(self, l4_identity):
        W = gibbs_weights(l4_identity.D, l4_identity.beta)
        assert W[0, 3] == pytest.approx(np.exp(-9.0))
        assert W[0, 0] == 1.0


class TestManifestRoundTrip:
    def test_bit_exact(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "out")
        loaded = load_collection(manifest)
        assert loaded.ids == l4_swap.ids
        assert np.array_equal(loaded.D, l4_swap.D)
        for key, m in l4_swap.maps.items():
            assert np.array_equal(loaded.maps[key].indices, m.indices)
        for a, b in zip(loaded.shapes, l4_swap.shapes):
            assert np.array_equal(a.points, b.points)

    def test_save_is_deterministic(self, tmp_path, l4_swap):
        m1 = save_collection(l4_swap, tmp_path / "one")
        m2 = save_collection(l4_swap, tmp_path / "two")
        assert (tmp_path / "one" / "manifest.json").read_bytes() == (
            tmp_path / "two" / "manifest.json"
        ).read_bytes()
        assert (tmp_path / "one" / "distances.csv").read_bytes() == (
            tmp_path / "two" / "distances.csv"
        ).read_bytes()

    def test_annotations_survive(self, tmp_path):
        shapes = [
            Shape(
                id="a",
                points=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
                landmark_indices=(0, 2),
                ground_truth={"tip": 2},
                scalar_field=np.array([0.1, 0.5, 0.2]),
            ),
            Shape(id="b", points=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])),
        ]
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        maps = {
            ("a", "b"): CorrespondenceMap(
                "a", "b", "discrete", indices=np.array([0, 1, 2]), target_size=3
            )
        }
        coll = ShapeCollection(shapes=shapes, D=D, maps=maps)
        loaded = load_collection(save_collection(coll, tmp_path / "ann"))
        a = loaded.shape("a")
        assert a.landmark_indices == (0, 2)
        assert a.ground_truth == {"tip": 2}
        assert np.array_equal(a.scalar_field, np.array([0.1, 0.5, 0.2]))

    def test_soft_map_roundtrip(self, tmp_path):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        soft = CorrespondenceMap(
            "a", "b", "soft", matrix=sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        )
        coll = ShapeCollection(shapes=shapes, D=D, maps={("a", "b"): soft})
        loaded = load_collection(save_collection(coll, tmp_path / "soft"))
        got = loaded.maps[("a", "b")]
        assert got.kind == "soft"
        assert got.matrix.toarray() == pytest.approx(np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_duplicate_discrete_map_row_rejected(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "dup")
        path = tmp_path / "dup" / "maps" / "s1__s0.csv"
        path.write_text(path.read_text() + "0,1\n")
        coll = load_collection(manifest)
        with pytest.raises(ManifestError, match=r"s1__s0\.csv.*source index 0"):
            coll.map("s0", "s1")

    def test_missing_discrete_map_row_rejected(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "gap")
        path = tmp_path / "gap" / "maps" / "s1__s0.csv"
        path.write_text("1,1\n")
        coll = load_collection(manifest)
        with pytest.raises(ManifestError, match=r"no row for source index 0"):
            coll.map("s0", "s1")

    @pytest.mark.parametrize("text, error, named", BAD_MAP_FILES)
    def test_bad_map_file_names_file(self, tmp_path, l4_swap, text, error, named):
        manifest = save_collection(l4_swap, tmp_path / "bad")
        (tmp_path / "bad" / "maps" / "s1__s0.csv").write_text(text)
        coll = load_collection(manifest)
        with pytest.raises(error, match=r"s1__s0\.csv") as exc:
            coll.map("s0", "s1")
        assert re.search(named, str(exc.value))

    @pytest.mark.parametrize("text, error, named", BAD_MAP_FILES)
    def test_reading_every_map_names_bad_file(self, tmp_path, l4_swap, text, error, named):
        manifest = save_collection(l4_swap, tmp_path / "bad")
        (tmp_path / "bad" / "maps" / "s1__s0.csv").write_text(text)
        coll = load_collection(manifest)
        with pytest.raises(error, match=r"s1__s0\.csv") as exc:
            dict(coll.maps)
        assert re.search(named, str(exc.value))

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda doc: doc.update(beta="abc"), "manifest: invalid 'beta': 'abc'"),
            (lambda doc: doc.update(shapes={}), "manifest: invalid 'shapes'"),
            (lambda doc: doc["shapes"].append(3), "shape entry 4"),
            (lambda doc: doc["shapes"][0].pop("id"), "shape entry 0"),
            (lambda doc: doc.update(maps_dir=[]), "manifest: invalid 'maps_dir'"),
            (lambda doc: doc.update(distances_file=1), "manifest: invalid 'distances_file'"),
        ],
        ids=["beta", "shapes-not-a-list", "entry-not-an-object", "entry-without-id",
             "maps-dir", "distances-file"],
    )
    def test_bad_manifest_field_named(self, tmp_path, l4_swap, edit, named):
        manifest = save_collection(l4_swap, tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        edit(doc)
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=re.escape(named)):
            load_collection(manifest)

    @pytest.mark.parametrize("name", ["s0.xyz", "distances.csv"])
    def test_unreadable_table_names_file(self, tmp_path, l4_swap, name):
        manifest = save_collection(l4_swap, tmp_path / "t")
        (tmp_path / "t" / name).write_text("0,x\n")
        with pytest.raises(ManifestError, match=re.escape(name)):
            load_collection(manifest)

    def test_map_file_comments_and_blank_lines_skipped(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "c")
        (tmp_path / "c" / "maps" / "s1__s0.csv").write_text("# header\n\n1,1\n 0 , 0 # trailing\n")
        assert list(load_collection(manifest).maps[("s0", "s1")].indices) == [0, 1]

    @given(
        st.lists(
            st.text(alphabet="ab_.-0", min_size=1, max_size=4), min_size=2, max_size=3, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_any_valid_ids_round_trip(self, ids):
        try:
            shapes = [Shape(id=sid, points=np.arange(18.0).reshape(6, 3)) for sid in ids]
        except ManifestError:
            return
        n = len(ids)
        # constant maps, a different target per ordered pair, so two pairs
        # sharing one file name would show
        maps = {}
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if a != b:
                    maps[(a, b)] = CorrespondenceMap(
                        a, b, "discrete", indices=np.full(6, (i * n + j) % 6), target_size=6
                    )
        coll = ShapeCollection(shapes=shapes, D=1.0 - np.eye(n), maps=maps)
        with tempfile.TemporaryDirectory() as out:
            loaded = load_collection(save_collection(coll, out))
            assert sorted(os.listdir(out)) == sorted(
                ["distances.csv", "manifest.json", "maps"] + [f"{sid}.xyz" for sid in ids]
            )
            # map files are read on first access, so before the directory goes
            assert loaded.ids == ids
            assert loaded.maps.keys() == maps.keys()
            for key, m in maps.items():
                assert np.array_equal(loaded.maps[key].indices, m.indices)

    def test_identity_helper(self):
        m = identity_map("a", 4)
        assert list(m.indices) == [0, 1, 2, 3]
        assert m.source_id == "a" and m.target_id == "a"


class TestMapFiles:
    def test_files_read_on_first_access_only(self, tmp_path, l4_swap, map_reads):
        coll = load_collection(save_collection(l4_swap, tmp_path / "c"))
        assert isinstance(coll.maps, collection_mod.MapFiles)
        assert map_reads == []
        assert len(coll.maps) == 12 and ("s0", "s1") in coll.maps
        assert map_reads == []
        first = coll.map("s0", "s1")
        assert coll.map("s0", "s1") is first
        assert map_reads == [("s0", "s1")]
        with pytest.raises(MissingMapError):
            coll.map("s0", "nowhere")

    def test_unread_bad_file_fails_only_when_read(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "c")
        (tmp_path / "c" / "maps" / "s1__s0.csv").write_text("0,x\n1,1\n")
        coll = load_collection(manifest)
        assert list(coll.map("s0", "s3").indices) == [0, 1]
        with pytest.raises(ManifestError, match=r"s1__s0\.csv"):
            save_collection(coll, tmp_path / "copy")
        # a failed read is not kept: the next access reads the file again
        with pytest.raises(ManifestError, match=r"s1__s0\.csv"):
            coll.map("s0", "s1")

    @pytest.mark.parametrize("first, second", [(("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))])
    def test_inverse_checked_when_second_direction_read(self, tmp_path, first, second):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        swap = CorrespondenceMap("a", "b", "discrete", indices=np.array([1, 0]), target_size=2)
        back = CorrespondenceMap("b", "a", "discrete", indices=np.array([1, 0]), target_size=2)
        coll = ShapeCollection(
            shapes=shapes, D=np.array([[0.0, 1.0], [1.0, 0.0]]),
            maps={("a", "b"): swap, ("b", "a"): back},
        )
        manifest = save_collection(coll, tmp_path / "c")
        # b -> a becomes the identity: both bijections, not mutual inverses
        (tmp_path / "c" / "maps" / "a__b.csv").write_text("0,0\n1,1\n")
        loaded = load_collection(manifest)
        loaded.map(*first)
        for _ in range(2):
            with pytest.raises(InverseViolationError):
                loaded.map(*second)
        with pytest.raises(InverseViolationError):
            dict(loaded.maps)
        loaded.map(*first)

    def test_threaded_pairs_read_each_file_once(self, tmp_path):
        manifest = save_collection(
            synth_collection(5, 40, 0.05, seed=2, map_source="truth"), tmp_path / "c"
        )
        serial = all_pairs_soft(load_collection(manifest))
        real = collection_mod._read_map

        def slow(*args):
            time.sleep(0.002)  # widens the window in which two threads could read one file
            return real(*args)

        coll = load_collection(manifest)

        def run(pair):
            soft = propagate_soft(coll, *pair)
            return soft, mle(soft), frechet_mean(soft, coll.oracle(pair[1]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(collection_mod, "_read_map", side_effect=slow) as read:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    threaded = dict(zip(serial.soft, pool.map(run, serial.soft)))
        finally:
            sys.setswitchinterval(interval)
        keys = sorted((c.args[1], c.args[2]) for c in read.call_args_list)
        assert keys == sorted(coll.maps)
        assert {p: r[1] for p, r in threaded.items()} == serial.mle
        assert {p: r[2] for p, r in threaded.items()} == serial.frechet
        for pair, soft in serial.soft.items():
            other = threaded[pair][0]
            for name in ("queries", "indptr", "indices", "data"):
                assert np.array_equal(getattr(other, name), getattr(soft, name))

    def test_stray_files_ignored(self, tmp_path, l4_swap, map_reads):
        manifest = save_collection(l4_swap, tmp_path / "c")
        maps_dir = tmp_path / "c" / "maps"
        for name in ("s9__s0.csv", "s0__s0.csv", "notes.csv", "s1__s0.txt", "s1__s0.csv.bak"):
            (maps_dir / name).write_text("not a map\n")
        coll = load_collection(manifest)
        assert sorted(coll.maps) == sorted(l4_swap.maps)
        for key, m in dict(coll.maps).items():
            assert np.array_equal(m.indices, l4_swap.maps[key].indices)
        assert len(map_reads) == 12


# text np.loadtxt reads as rows or skips: a data row, possibly padded and
# followed by a comment, a comment line, a blank or a whitespace-only line
_SPACE = st.text(alphabet=" \t\f\v\x1c\x85\xa0\u2028", max_size=3)
_LINE = st.one_of(
    st.tuples(_SPACE, st.just("1.5 -2 3e1"), _SPACE, st.sampled_from(["", "# 4 5 6", "#"])),
    st.tuples(_SPACE, st.just("#"), st.text(alphabet="0 .#x\t", max_size=6)),
    _SPACE.map(lambda s: (s,)),
).map("".join)


class TestShapeFiles:
    @given(
        st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_count_matches_loadtxt(self, lines, final_newline):
        text = "".join(line + end for line, end in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.xyz")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # np.loadtxt on no rows
                want = np.loadtxt(path, ndmin=2).shape[0]
            assert collection_mod._count_rows(path) == want

    def test_files_parsed_on_first_access_only(self, tmp_path, shape_reads):
        shapes = [
            Shape("a", points=np.arange(9.0).reshape(3, 3), scalar_field=np.array([0.5, 1, 2])),
            Shape("b", points=np.ones((3, 3))),
        ]
        coll = ShapeCollection(shapes=shapes, D=1.0 - np.eye(2), maps={})
        loaded = load_collection(save_collection(coll, tmp_path / "c"))
        a, b = loaded.shapes
        assert (a.n, b.n) == (3, 3) and b.scalar_field is None
        assert shape_reads == []
        assert a.points is a.points
        assert np.array_equal(a.points, shapes[0].points)
        assert shape_reads == ["a.xyz"]
        assert np.array_equal(a.scalar_field, shapes[0].scalar_field)
        assert shape_reads == ["a.xyz", "a.field"]

    @pytest.mark.parametrize(
        "name, text, named",
        [
            ("s1.xyz", "0 0 0\n1 x 1\n", "could not convert"),
            ("s1.xyz", "0 0\n1 1\n", r"points must have shape \(2, 3\), got \(2, 2\)"),
        ],
        ids=["text", "two-columns"],
    )
    def test_malformed_points_fail_only_when_read(self, tmp_path, l4_swap, name, text, named):
        manifest = save_collection(l4_swap, tmp_path / "c")
        (tmp_path / "c" / name).write_text(text)
        coll = load_collection(manifest)
        assert coll.shape("s1").n == 2
        assert coll.shape("s0").points.shape == (2, 3)
        # a failed parse is not kept: the next read parses the file again
        for _ in range(2):
            with pytest.raises(ManifestError, match=re.escape(name)) as exc:
                coll.shape("s1").points
            assert re.search(named, str(exc.value))

    def test_points_changed_after_load_fail_when_read(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "c")
        coll = load_collection(manifest)
        (tmp_path / "c" / "s2.xyz").write_text("0 0 0\n1 0 0\n2 0 0\n")
        named = r"s2\.xyz: shape 's2': points must have shape \(2, 3\), got \(3, 3\)"
        with pytest.raises(ManifestError, match=named):
            coll.shape("s2").points

    def test_field_length_checked_when_read(self, tmp_path):
        shape = Shape("a", points=np.zeros((3, 3)) + np.arange(3)[:, None],
                      scalar_field=np.array([1.0, 2.0, 3.0]))
        coll = ShapeCollection(shapes=[shape, two_point_shape("b")], D=1.0 - np.eye(2), maps={})
        manifest = save_collection(coll, tmp_path / "c")
        (tmp_path / "c" / "a.field").write_text("1\n2\n")
        loaded = load_collection(manifest)
        named = r"a\.field: shape 'a': scalar_field must have shape \(3,\), got \(2,\)"
        with pytest.raises(ManifestError, match=named):
            loaded.shape("a").scalar_field

    @pytest.mark.parametrize("text", ["0 0 0\n", "# header\n\n  \n0 0 0 # one row\n", ""])
    def test_fewer_than_two_rows_rejected_at_load(self, tmp_path, l4_swap, text):
        manifest = save_collection(l4_swap, tmp_path / "c")
        (tmp_path / "c" / "s3.xyz").write_text(text)
        with pytest.raises(ManifestError, match=r"s3\.xyz: shape 's3': needs at least 2 points"):
            load_collection(manifest)

    @pytest.mark.parametrize(
        "key, value, named",
        [("landmarks", [0, 2], "landmark index 2 out of range"),
         ("ground_truth", {"tip": -1}, "ground truth 'tip' index -1 out of range")],
    )
    def test_annotations_range_checked_at_load(self, tmp_path, l4_swap, shape_reads, key,
                                               value, named):
        manifest = save_collection(l4_swap, tmp_path / "c")
        doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
        doc["shapes"][1][key] = value
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(IndexRangeError, match=re.escape(f"shape 's1': {named}")):
            load_collection(manifest)
        assert shape_reads == []

    def test_threaded_first_access_parses_once(self, tmp_path, l4_swap):
        shape = load_collection(save_collection(l4_swap, tmp_path / "c")).shape("s1")
        real = collection_mod.ShapeFile.read

        def slow(self, ndmin):
            time.sleep(0.002)  # widens the window in which two threads could parse the file
            return real(self, ndmin)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(
                collection_mod.ShapeFile, "read", autospec=True, side_effect=slow
            ) as read:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(lambda: shape.points) for _ in range(16)]
                    got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert read.call_count == 1
        assert all(points is got[0] for points in got)
        assert np.array_equal(got[0], l4_swap.shape("s1").points)
