import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse
from scipy.spatial.distance import cdist

import corrsync.collection as collection_mod
from corrsync.collection import (
    CorrespondenceMap,
    GeodesicOracle,
    Shape,
    ShapeCollection,
    atomic_write,
    identity_map,
    load_collection,
    save_collection,
)
from corrsync.baselines import compose_along
from corrsync.benchmark import corrupt_maps, geodesic_errors, synth_collection
from corrsync.collection import _build_neighbor_graph
from corrsync.flow import gibbs_weights
from corrsync.matching import (
    Match,
    check_ball_disjoint,
    interpolate_dense,
    joint_fps_refine,
    stable_curvature_match,
)
from corrsync.soft import all_pairs_soft, frechet_mean, mle, propagate_soft
from corrsync.errors import (
    CorrsyncError,
    DisconnectedGraphError,
    DuplicateShapeError,
    IndexRangeError,
    InverseViolationError,
    InvalidValueError,
    ManifestError,
    MetricAsymmetryError,
    MissingMapError,
    SoftRowError,
    check_integer,
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
        "field, named",
        [("points", r"shape 's': points row 1 is not finite: \[ 0\. nan  0\.\]"),
         ("scalar_field", "shape 's': scalar_field row 1 is not finite: -inf")],
    )
    def test_non_finite_values_rejected(self, field, named):
        values = {"points": np.zeros((3, 3)), "scalar_field": np.zeros(3)}
        values[field][1] = [0.0, np.nan, 0.0] if field == "points" else -np.inf
        with pytest.raises(ManifestError, match=named):
            Shape(id="s", **values)

    @pytest.mark.parametrize(
        "bad", ["", "../escaped", "a/b", "a\\b", "..", "a__b", "_a", "b_"]
    )
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(ManifestError, match=re.escape(repr(bad))):
            Shape(id=bad, points=np.zeros((2, 3)))

    def test_non_string_id_rejected(self):
        with pytest.raises(ManifestError, match="invalid shape id 3"):
            Shape(id=3, points=np.zeros((2, 3)))


# five points on a line, shared by the two shapes of the vertex-rule collection
_FIVE = np.c_[np.arange(5.0), np.zeros(5), np.zeros(5)]


@pytest.fixture(scope="module")
def line_pair():
    shapes = [Shape(id=f"s{k}", points=_FIVE) for k in range(2)]
    maps = {("s0", "s1"): identity_map("s0", 5, "s1"), ("s1", "s0"): identity_map("s1", 5, "s0")}
    return ShapeCollection(shapes=shapes, D=np.array([[0.0, 1.0], [1.0, 0.0]]), maps=maps)


# every library entry point that takes a vertex of shape 's0': the label its
# error gives the vertex, and a call that puts v where that vertex goes
_VERTEX_ENTRY_POINTS = {
    "landmarks": ("landmark index", lambda c, v: Shape(
        id="s0", points=_FIVE, landmark_indices=[0, v])),
    "ground_truth": ("ground truth 'tip' index", lambda c, v: Shape(
        id="s0", points=_FIVE, ground_truth={"base": 0, "tip": v})),
    "distance_rows": ("vertex", lambda c, v: c.oracle("s0").distance_rows([0, v])),
    "distances-source": ("vertex", lambda c, v: c.oracle("s0").distances([0, v], [1, 2])),
    "distances-target": ("vertex", lambda c, v: c.oracle("s0").distances([1, 2], [0, v])),
    "propagate_soft": ("source vertex", lambda c, v: propagate_soft(
        c, "s0", "s1", source_points=[0, v])),
    "geodesic_errors": ("predicted vertex", lambda c, v: geodesic_errors(
        {0: 1, 1: v}, [(0, 0), (1, 1)], c.oracle("s0"))),
    "check_ball_disjoint": ("landmark", lambda c, v: check_ball_disjoint(
        [0, v], 0.1, c.oracle("s0"))),
    "stable_curvature_match": ("extremum", lambda c, v: stable_curvature_match(
        _FIVE, _FIVE, [0, v], [0, 4], 1.0, c.oracle("s0"), c.oracle("s1"))),
    "joint_fps_refine-candidate-source": ("candidate source vertex", lambda c, v: joint_fps_refine(
        [], [Match(1, 1, "partial"), Match(v, 3, "partial")], 3, c.oracle("s0"), c.oracle("s1"))),
    "joint_fps_refine-seed-target": ("seed target vertex", lambda c, v: joint_fps_refine(
        [Match(0, v, "curvature")], [], 3, c.oracle("s1"), c.oracle("s0"))),
    "interpolate_dense-source": ("match source vertex", lambda c, v: interpolate_dense(
        [Match(1, 0, "partial"), Match(v, 2, "partial")], c.shape("s0"), c.shape("s1"),
        c.oracle("s0"))),
    "interpolate_dense-target": ("match target vertex", lambda c, v: interpolate_dense(
        [Match(0, 1, "partial"), Match(3, v, "partial")], c.shape("s1"), c.shape("s0"),
        c.oracle("s1"))),
}


def _parent_vertex_rule(shape, vertices, what):
    """Shape.check_vertices as it was when it returned Python ints, kept as
    the reference for the numpy rule."""
    if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu":
        idx = vertices.ravel().tolist()
    else:
        named = f"shape {shape.id!r}: {what}"
        idx = [v if type(v) is int else check_integer(v, named) for v in vertices]
    if idx and not (min(idx) >= 0 and max(idx) < shape.n):
        bad = next(v for v in idx if not 0 <= v < shape.n)
        raise IndexRangeError(f"shape {shape.id!r}: {what} {bad} out of range")
    return idx


# sizes on both sides of the int8 and uint8 ranges
_VERTEX_RULE_SHAPES = {n: Shape(id="s", points=np.c_[np.arange(float(n)), np.zeros((n, 2))])
                       for n in (2, 5, 127, 128, 255, 300)}


class TestVertexRule:
    """A vertex is a Python or numpy integer in [0, n), checked by
    Shape.check_vertices wherever the library takes one."""

    @pytest.mark.parametrize("entry", list(_VERTEX_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad, error, tail",
        [(1.5, InvalidValueError, "is not an integer"),
         (True, InvalidValueError, "is not an integer"),
         (np.float64(2.0), InvalidValueError, "is not an integer"),
         (np.array([1.0]), InvalidValueError, "is not an integer"),
         (-1, IndexRangeError, "out of range"),
         (5, IndexRangeError, "out of range"),
         (2**70, IndexRangeError, "out of range")],
        ids=["float", "bool", "numpy-float", "array", "negative", "n", "beyond-int64"],
    )
    def test_bad_vertex_rejected_naming_shape_and_value(self, line_pair, entry, bad, error,
                                                         tail):
        what, call = _VERTEX_ENTRY_POINTS[entry]
        with pytest.raises(error, match=re.escape(f"shape 's0': {what} {bad!r} {tail}")):
            call(line_pair, bad)

    @pytest.mark.parametrize("entry", list(_VERTEX_ENTRY_POINTS))
    @pytest.mark.parametrize("good", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
    def test_numpy_integers_accepted(self, line_pair, entry, good):
        _VERTEX_ENTRY_POINTS[entry][1](line_pair, good)

    def test_vertices_come_back_as_python_ints(self):
        shape = Shape(id="s", points=_FIVE, landmark_indices=np.array([4, 1], dtype=np.uint16),
                      ground_truth={"tip": np.int32(3)})
        assert shape.landmark_indices == (4, 1)
        assert shape.ground_truth == {"tip": 3}
        assert {type(v) for v in (*shape.landmark_indices, shape.ground_truth["tip"])} == {int}
        # inside the library a checked vertex set is one flat int64 array
        for vertices, want in [(np.array([[0, 4], [2, 2]], dtype=np.uint8), [0, 4, 2, 2]),
                               (range(5), [0, 1, 2, 3, 4]), ([np.int16(3), 1], [3, 1]),
                               (np.array(4), [4]), (np.zeros(0, dtype=np.int64), [])]:
            checked = shape.check_vertices(vertices)
            assert checked.dtype == np.int64 and checked.ndim == 1
            assert checked.tolist() == want
        matches = stable_curvature_match(_FIVE, _FIVE, np.array([1, 3]), np.array([3, 1]), 0.5,
                                         GeodesicOracle(shape), GeodesicOracle(shape))
        assert matches == [Match(1, 1, "curvature"), Match(3, 3, "curvature")]
        assert {type(v) for m in matches for v in (m.source, m.target)} == {int}

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_check_vertices_matches_parent_list_rule(self, data):
        # the numpy rule against the list rule it replaced: the same
        # acceptance, exception, message and values, on arrays of every
        # integer dtype and shape and on lists of ints, bools and floats
        n = data.draw(st.sampled_from(sorted(_VERTEX_RULE_SHAPES)))
        shape = _VERTEX_RULE_SHAPES[n]
        dtype = np.dtype(data.draw(st.sampled_from(
            ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"])))
        info = np.iinfo(dtype)
        elements = st.one_of(st.integers(max(info.min, -3), min(info.max, n + 3)),
                             st.integers(info.min, info.max),
                             st.integers(max(info.min, 2**63), info.max) if info.max >= 2**63
                             else st.nothing())
        vertices = data.draw(st.one_of(
            hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                       elements=elements),
            st.lists(st.one_of(st.integers(-3, n + 3), st.integers(-2**70, 2**70),
                               st.booleans(), st.floats()), max_size=5),
        ))

        def outcome(rule):
            try:
                return rule(shape, vertices, "landmark")
            except CorrsyncError as exc:
                return type(exc), str(exc)

        want, got = outcome(_parent_vertex_rule), outcome(Shape.check_vertices)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == np.int64 and got.ndim == 1 and got.tolist() == want

    @pytest.mark.parametrize(
        "vertices, named",
        [(np.array([1.9]), "np.float64(1.9)"), (np.array([1, 0], dtype=bool), "np.True_")],
    )
    def test_non_integer_arrays_rejected(self, vertices, named):
        oracle = GeodesicOracle(Shape(id="s", points=_FIVE))
        with pytest.raises(InvalidValueError, match=re.escape(f"'s': vertex {named} is not")):
            oracle.distance_rows(vertices)

    @pytest.mark.parametrize("bad", [np.array(1.5), np.array(True), 3],
                             ids=["0-d-float", "0-d-bool", "int"])
    def test_scalars_rejected_naming_the_value(self, bad):
        oracle = GeodesicOracle(Shape(id="s", points=_FIVE))
        message = re.escape(f"shape 's': vertex set {bad!r} is not an array or an iterable")
        for read in (oracle.distance_rows, lambda v: oracle.distances(v, [0]),
                     lambda v: oracle.distances([0], v)):
            with pytest.raises(InvalidValueError, match=message):
                read(bad)

    def test_iterables_and_arrays_read(self):
        oracle = GeodesicOracle(Shape(id="s", points=_FIVE))
        want = oracle.distance_rows(np.array([3, 1]))
        for make in (lambda: [3, 1], lambda: range(3, 0, -2), lambda: (v for v in (3, 1)),
                     lambda: np.array([3, 1])):
            assert np.array_equal(oracle.distance_rows(make()), want)
            assert np.array_equal(oracle.distances(make(), [0, 4]), want[[0, 1], [0, 4]])
        assert oracle.distances(np.array(3), np.array(4)) == want[0, 4]

    def test_extremum_is_not_wrapped(self, line_pair):
        # numpy would read -1 as the last vertex and match it
        with pytest.raises(IndexRangeError, match="extremum -1 out of range"):
            stable_curvature_match(_FIVE, _FIVE, [-1], [4], 1.0, line_pair.oracle("s0"),
                                   line_pair.oracle("s1"))


class TestCorrespondenceMap:
    @pytest.mark.parametrize(
        "indices, dtype",
        [([0.5, 1.7, 2.2], "float64"), ([True, False], "bool"), (np.array([0.0, 1.0]), "float64"),
         (np.array([1, 0], dtype=object), "object")],
    )
    def test_non_integer_indices_rejected(self, indices, dtype):
        with pytest.raises(ManifestError, match=f"indices must be integers, got {dtype}"):
            CorrespondenceMap("a", "b", "discrete", indices=indices, target_size=3)

    def test_integer_indices_stored_as_int64(self):
        m = CorrespondenceMap("a", "b", "discrete", indices=np.array([2, 0], dtype=np.uint8),
                              target_size=3)
        assert m.indices.dtype == np.int64 and m.indices.tolist() == [2, 0]

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
        assert 0 in o.graph[1].indices

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

    @pytest.mark.parametrize("bad", [-1, 60, 10**6, 2**64, -2**70])
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
        # every requested row is in the store once: the requested vertices,
        # and only they, hold the slots 0 .. filled - 1
        requested = sorted(set(np.concatenate(requests).tolist()))
        assert np.flatnonzero(oracle._slot >= 0).tolist() == requested
        assert sorted(oracle._slot[requested].tolist()) == list(range(oracle._filled))

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
        assert oracle.distances([], []).shape == (0,)
        assert dijkstra_calls == []

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.lists(st.integers(0, 149), max_size=90), min_size=1, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_row_store_fetch_sequences(self, seed, fetches):
        # fetches of up to 90 vertices out of 150 grow the store across calls
        # and fill rows in more than one Dijkstra block
        oracle = _cloud_oracle(seed, n=150)
        want = np.array([
            sparse.csgraph.dijkstra(oracle.graph, directed=False, indices=v) for v in range(150)
        ])
        real = collection_mod.csgraph
        calls = []

        def dijkstra(*args, **kwargs):
            calls.append(kwargs["indices"].tolist())
            return real.dijkstra(*args, **kwargs)

        view = types.SimpleNamespace(dijkstra=dijkstra)
        with mock.patch.object(collection_mod, "csgraph", view):
            for vertices in fetches:
                assert np.array_equal(oracle.distance_rows(vertices), want[vertices])
                s = np.array(vertices[:5], dtype=np.int64)[:, None]
                t = np.array(vertices[-5:], dtype=np.int64)[None, :]
                assert np.array_equal(oracle.distances(s, t), want[s, t])
        requested = sorted({v for vertices in fetches for v in vertices})
        computed = [v for call in calls for v in call]
        assert sorted(computed) == requested
        assert all(0 < len(call) <= collection_mod._ROW_BLOCK for call in calls)
        assert oracle._filled == len(requested) <= len(oracle._store) <= oracle.n

    def test_rows_handed_out_are_read_only(self):
        oracle = _cloud_oracle(0)
        rows, slots = oracle.row_slots([3, 4])
        with pytest.raises(ValueError, match="read-only"):
            rows[slots[0], 0] = 1.0
        copy = oracle.distance_rows([3])
        copy[0, 3] = 7.0
        assert oracle.distances_from(3)[3] == 0.0

    def test_frechet_holds_one_copy_of_its_rows(self):
        # every vertex of a 2,000-point pair queried: a per-row cache beside
        # a stacked copy and the Dijkstra block peaks at about 3x the rows.
        # One block covers the fill's transient; the second bounds the
        # per-support-entry index arrays and the cost tensors
        n = 2000
        c = corrupt_maps(synth_collection(8, n, 0.08, 0, map_source="truth"), 0.25, 0)
        soft = propagate_soft(c, "s00", "s05", source_points=list(range(n)))
        oracle = c.oracle("s05")
        sizes = np.diff(soft.indptr)
        fetched = np.unique(soft.indices[np.repeat(sizes > 1, sizes)]).size
        rows_bytes, block_bytes = fetched * n * 8, collection_mod._ROW_BLOCK * n * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frechet_mean(soft, oracle)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert fetched > 1000
        assert peak < rows_bytes + 2 * block_bytes


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


def _admit_per_map(maps, sizes):
    """The admission rule as it was, the reference for the one-gather rule:
    both bijection tests on every pair that has both directions, then the
    composition of the two, map by map in table order."""
    admitted = {}
    for key, m in maps.items():
        collection_mod._check_map(key, m, sizes)
        rev = admitted.get(key[::-1])
        if rev is not None and rev.is_bijection() and m.is_bijection():
            if not np.array_equal(m.indices[rev.indices], np.arange(rev.n_source)):
                raise InverseViolationError(
                    f"maps {rev.source_id!r}<->{rev.target_id!r} are bijections "
                    "but not mutual inverses"
                )
        admitted[key] = m


def _random_map(rng, src, tgt, sizes, indices):
    """The discrete map src -> tgt with indices, or with some chance a soft
    map, a wrongly sized map, or one labeled with another pair."""
    n_src, n_tgt = sizes.get(src, 3), sizes.get(tgt, 3)
    roll = rng.random()
    if roll < 0.1:
        dense = rng.random((n_src, n_tgt)) + 1e-3
        matrix = sparse.csr_matrix(dense / dense.sum(axis=1, keepdims=True))
        return CorrespondenceMap(src, tgt, "soft", matrix=matrix)
    if roll < 0.14:
        return CorrespondenceMap(src, tgt, "discrete", indices=rng.integers(0, n_tgt, n_src + 1),
                                 target_size=n_tgt)
    if roll < 0.18:
        return CorrespondenceMap(src, tgt, "discrete", indices=indices, target_size=n_tgt + 1)
    if roll < 0.22:
        return CorrespondenceMap(tgt, src, "discrete", indices=indices, target_size=n_tgt)
    return CorrespondenceMap(src, tgt, "discrete", indices=indices, target_size=n_tgt)


def _random_table(rng):
    """2-5 shapes of 2-6 points (often one size for all) and a map table in
    random order: per pair mutual inverses, two bijections or two arbitrary
    discrete maps, each map possibly replaced by _random_map's faults, and
    now and then a key naming an unknown shape."""
    k = int(rng.integers(2, 6))
    counts = rng.integers(2, 7, k) if rng.random() < 0.5 else np.full(k, rng.integers(2, 7))
    shapes = [Shape(id=f"s{i}", points=rng.random((int(c), 3))) for i, c in enumerate(counts)]
    sizes = {s.id: s.n for s in shapes}
    maps = {}
    for i, a in enumerate(sizes):
        for b in list(sizes)[i + 1:]:
            kind = rng.integers(3) if sizes[a] == sizes[b] else 2
            if kind == 0:
                fwd = rng.permutation(sizes[b])
                rev = np.argsort(fwd)
            elif kind == 1:
                fwd, rev = rng.permutation(sizes[b]), rng.permutation(sizes[a])
            else:
                fwd, rev = rng.integers(0, sizes[b], sizes[a]), rng.integers(0, sizes[a], sizes[b])
            for key, idx in (((a, b), fwd), ((b, a), rev)):
                if rng.random() < 0.9:
                    maps[key] = _random_map(rng, *key, sizes, idx)
    if rng.random() < 0.1:
        maps[("s0", "zz")] = _random_map(rng, "s0", "zz", sizes, np.zeros(sizes["s0"], int))
    keys = list(maps)
    return shapes, {keys[i]: maps[keys[i]] for i in rng.permutation(len(keys))}, sizes


def _outcome(call):
    try:
        call()
    except CorrsyncError as exc:
        return type(exc), str(exc)
    return None


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
        # InvalidValueError: a CorrsyncError and a ValueError
        with pytest.raises(InvalidValueError, match="beta must be a finite number > 0"):
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

    def test_inverse_checked_before_a_later_size_error(self):
        # each map is admitted in table order: the inverse test of b -> a runs
        # before a -> c is sized
        shapes = [two_point_shape("a"), two_point_shape("b"), two_point_shape("c")]
        maps = {
            ("a", "b"): CorrespondenceMap("a", "b", "discrete", indices=np.array([1, 0]),
                                          target_size=2),
            ("b", "a"): CorrespondenceMap("b", "a", "discrete", indices=np.array([0, 1]),
                                          target_size=2),
            ("a", "c"): CorrespondenceMap("a", "c", "discrete", indices=np.array([0, 2]),
                                          target_size=3),
        }
        with pytest.raises(InverseViolationError):
            ShapeCollection(shapes=shapes, D=1.0 - np.eye(3), maps=maps)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_admission_matches_per_map_rule(self, seed):
        # the one-gather rule admits a table, or raises the error of the rule
        # that ran both bijection tests on every pair, in table order
        shapes, maps, sizes = _random_table(np.random.default_rng(seed))
        D = 1.0 - np.eye(len(shapes))
        got = _outcome(lambda: ShapeCollection(shapes=shapes, D=D, maps=maps))
        assert got == _outcome(lambda: _admit_per_map(maps, sizes))

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

    def test_soft_map_csv_matches_per_entry_reference(self):
        rng = np.random.default_rng(4)
        dense = rng.random((9, 6)) * (rng.random((9, 6)) < 0.5)
        dense[:, 2] += 1e-3  # every row holds mass
        m = CorrespondenceMap(
            "a", "b", "soft", matrix=sparse.csr_matrix(dense / dense.sum(axis=1, keepdims=True))
        )
        mat = m.matrix
        want = "".join(
            f"{s},{int(mat.indices[pos])},{float(mat.data[pos])!r}\n"
            for s in range(mat.shape[0])
            for pos in range(mat.indptr[s], mat.indptr[s + 1])
        )
        assert collection_mod.map_csv(m) == want

    def test_float_files_match_per_value_reference(self, tmp_path):
        coll = synth_collection(3, 40, 0.05, seed=2)
        out = tmp_path / "c"
        save_collection(coll, out)
        for s in coll.shapes:
            want = "".join(" ".join(repr(float(c)) for c in p) + "\n" for p in s.points)
            assert (out / f"{s.id}.xyz").read_text() == want
            want = "".join(repr(float(v)) + "\n" for v in s.scalar_field)
            assert (out / f"{s.id}.field").read_text() == want
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in coll.D)
        assert (out / "distances.csv").read_text() == want

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_discrete_map_csv_matches_percent_format_reference(self, seed, n, n_target):
        idx = np.random.default_rng(seed).integers(0, n_target, n)
        m = CorrespondenceMap("a", "b", "discrete", indices=idx, target_size=n_target)
        want = ("%d,%d\n" * n) % tuple(np.column_stack((np.arange(n), idx)).ravel().tolist())
        assert collection_mod.map_csv(m) == want

    @given(st.integers(1, 5), st.integers(1, 4), st.sampled_from([" ", ","]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_float_lines_match_per_value_repr_reference(self, rows, cols, sep, data):
        # -0.0, subnormals and the extremes beside every other float, each
        # written as its repr, so it reads back bit for bit
        special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                                   1.7976931348623157e308, np.inf, np.nan])
        values = data.draw(st.lists(st.one_of(special, st.floats()),
                                    min_size=rows * cols, max_size=rows * cols))
        a = np.array(values, dtype=float).reshape(rows, cols)
        want = "".join(sep.join(repr(float(v)) for v in row) + "\n" for row in a)
        assert collection_mod._float_lines(a, sep) == want
        column = a.reshape(-1, 1)
        assert collection_mod._float_lines(column, "") == "".join(f"{v!r}\n" for v in values)

    def test_save_is_all_or_none(self, tmp_path, l4_swap):
        # a directory where the last map file goes: no file of the collection is written
        last = max(f"{tgt}__{src}.csv" for src, tgt in l4_swap.maps)
        (tmp_path / "c" / "maps" / last).mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match=re.escape(last)):
            save_collection(l4_swap, tmp_path / "c")
        assert sorted(p.name for p in (tmp_path / "c").rglob("*")) == ["maps", last]

    def test_outputs_naming_one_file_rejected(self, tmp_path):
        (tmp_path / "alias").symlink_to(tmp_path)
        with pytest.raises(InvalidValueError, match="two outputs name one file: .*alias/x"):
            atomic_write([(str(tmp_path / "x"), "a\n"), (str(tmp_path / "alias" / "x"), "b\n")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alias"]
        # a rename replaces a symlink itself, so a link and its target are two files
        (tmp_path / "link").symlink_to(tmp_path / "real")
        atomic_write([(str(tmp_path / "link"), "a\n"), (str(tmp_path / "real"), "b\n")])
        assert not (tmp_path / "link").is_symlink()
        assert (tmp_path / "link").read_text() == "a\n" and (tmp_path / "real").read_text() == "b\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_take_mode_from_umask(self, tmp_path, l4_swap, umask, mode):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        os.link(out, tmp_path / "old.csv")
        previous = os.umask(umask)
        try:
            save_collection(l4_swap, tmp_path / "c")
            atomic_write([(str(out), "new\n")])
        finally:
            os.umask(previous)
        written = [out, *(p for p in (tmp_path / "c").rglob("*") if p.is_file())]
        assert {oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == {oct(mode)}
        # a new file renamed over the old one: a link to the old file keeps it
        assert out.read_text() == "new\n"
        assert (tmp_path / "old.csv").read_text() == "old\n"
        assert not [p for p in tmp_path.rglob(".tmp-*")]

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
            (lambda doc: doc.update(beta=True), "manifest: invalid 'beta': True"),
            (lambda doc: doc["shapes"][0].update(landmarks="10"),
             "shape 's0': invalid 'landmarks': '10'"),
            (lambda doc: doc["shapes"][0].update(landmarks={"1": 2}),
             "shape 's0': invalid 'landmarks': {'1': 2}"),
        ],
        ids=["beta", "shapes-not-a-list", "entry-not-an-object", "entry-without-id",
             "maps-dir", "distances-file", "beta-bool", "landmarks-string", "landmarks-object"],
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

    @pytest.mark.parametrize("first, second", [(("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))])
    def test_inverse_message_matches_in_memory_table(self, tmp_path, first, second):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = 1.0 - np.eye(2)
        swap = {key: CorrespondenceMap(*key, "discrete", indices=np.array([1, 0]), target_size=2)
                for key in (first, second)}
        manifest = save_collection(ShapeCollection(shapes=shapes, D=D, maps=swap), tmp_path / "c")
        # the second direction becomes the identity in memory and on disk
        bad = dict(swap)
        bad[second] = identity_map(second[0], 2, target_id=second[1])
        with pytest.raises(InverseViolationError) as in_memory:
            ShapeCollection(shapes=shapes, D=D, maps=bad)
        (tmp_path / "c" / "maps" / f"{second[1]}__{second[0]}.csv").write_text("0,0\n1,1\n")
        loaded = load_collection(manifest)
        loaded.map(*first)
        with pytest.raises(InverseViolationError) as from_files:
            loaded.map(*second)
        assert str(from_files.value) == str(in_memory.value)
        assert f"maps {first[0]!r}<->{first[1]!r}" in str(in_memory.value)

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
            ("s1.xyz", "0 0 0\nnan nan nan\n", r"shape 's1': points row 1 is not finite"),
        ],
        ids=["text", "two-columns", "nan"],
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

    @pytest.mark.parametrize(
        "text, named",
        [("1\n2\n", r"scalar_field must have shape \(3,\), got \(2,\)"),
         ("1\n2\ninf\n", "scalar_field row 2 is not finite: inf")],
        ids=["length", "inf"],
    )
    def test_field_length_checked_when_read(self, tmp_path, text, named):
        shape = Shape("a", points=np.zeros((3, 3)) + np.arange(3)[:, None],
                      scalar_field=np.array([1.0, 2.0, 3.0]))
        coll = ShapeCollection(shapes=[shape, two_point_shape("b")], D=1.0 - np.eye(2), maps={})
        manifest = save_collection(coll, tmp_path / "c")
        (tmp_path / "c" / "a.field").write_text(text)
        loaded = load_collection(manifest)
        named = r"a\.field: shape 'a': " + named
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


class TestReadOnce:
    def test_failed_make_keeps_nothing(self):
        cache = collection_mod._ReadOnce()

        def fail():
            raise ManifestError("unreadable")

        for _ in range(2):
            with pytest.raises(ManifestError, match="unreadable"):
                cache.get("k", fail)
            assert cache.made == {}
        assert cache.get("k", lambda: 3) == 3
        assert cache.get("k", fail) == 3

    def test_failed_oracle_build_is_not_kept(self, l4_identity):
        real = collection_mod.intra_metric
        with mock.patch.object(
            collection_mod, "intra_metric", side_effect=[DisconnectedGraphError("split"), real]
        ):
            with pytest.raises(DisconnectedGraphError, match="split"):
                l4_identity.oracle("s0")
        oracle = l4_identity.oracle("s0")
        assert l4_identity.oracle("s0") is oracle and oracle.n == 2

    def test_threaded_oracle_built_once(self):
        coll = synth_collection(2, 200, 0.05, seed=4, map_source="truth")
        real = collection_mod.intra_metric

        def slow(*args, **kwargs):
            time.sleep(0.002)  # widens the window in which two threads could build the oracle
            return real(*args, **kwargs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(collection_mod, "intra_metric", side_effect=slow) as build:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(coll.oracle, "s01") for _ in range(8)]
                    got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert build.call_count == 1
        assert all(oracle is got[0] for oracle in got)
