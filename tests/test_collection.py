import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from corrsync.collection import (
    CorrespondenceMap,
    GeodesicOracle,
    Shape,
    ShapeCollection,
    compose_maps,
    edge_weight,
    identity_map,
    load_collection,
    save_collection,
)
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

from conftest import build_l4, two_point_shape


class TestEdgeWeight:
    def test_values(self):
        assert edge_weight(0.0) == 1.0
        assert edge_weight(2.0) == pytest.approx(np.exp(-4.0))
        assert edge_weight(2.0, beta=0.5) == pytest.approx(np.exp(-2.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            edge_weight(-1.0)
        with pytest.raises(ValueError):
            edge_weight(1.0, beta=0.0)


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


class TestCorrespondenceMap:
    def test_discrete_roundtrip(self):
        m = CorrespondenceMap("a", "b", "discrete", indices=np.array([2, 0, 1]), target_size=3)
        assert m.n_source == 3
        assert m.is_bijection()
        assert m.push_row({1: 1.0}) == {0: 1.0}

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
        assert m.push_row({0: 0.5, 1: 0.5}) == pytest.approx({0: 0.25, 1: 0.75})


class TestComposeMaps:
    def test_discrete_fixture(self):
        f = CorrespondenceMap("a", "b", "discrete", indices=np.array([2, 0, 1]), target_size=3)
        g = CorrespondenceMap("b", "c", "discrete", indices=np.array([1, 2, 0]), target_size=3)
        comp = compose_maps(g, f)
        assert comp.source_id == "a" and comp.target_id == "c"
        assert list(comp.indices) == [0, 1, 2]

    def test_soft_square_fixture(self):
        mat = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        m = CorrespondenceMap("a", "b", "soft", matrix=mat)
        m2 = CorrespondenceMap("b", "c", "soft", matrix=mat.copy())
        comp = compose_maps(m2, m)
        dense = comp.matrix.toarray()
        assert dense == pytest.approx(np.array([[0.25, 0.75], [0.0, 1.0]]))

    def test_label_mismatch_rejected(self):
        f = CorrespondenceMap("a", "b", "discrete", indices=np.array([0, 1]), target_size=2)
        g = CorrespondenceMap("x", "c", "discrete", indices=np.array([0, 1]), target_size=2)
        with pytest.raises(MissingMapError):
            compose_maps(g, f)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associative_on_permutations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        def pmap(src, tgt):
            return CorrespondenceMap(
                src, tgt, "discrete", indices=rng.permutation(n), target_size=n
            )
        f = pmap("a", "b")
        g = pmap("b", "c")
        h = pmap("c", "d")
        left = compose_maps(h, compose_maps(g, f))
        right = compose_maps(compose_maps(h, g), f)
        assert np.array_equal(left.indices, right.indices)

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
        comp = compose_maps(soft("b", "c"), soft("a", "b"))
        sums = np.asarray(comp.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-9)


class TestGeodesicOracle:
    def test_chain_distances(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.5, 0, 0]])
        o = GeodesicOracle(Shape(id="chain", points=pts), k=1)
        assert o.distance(0, 3) == pytest.approx(3.5)
        assert o.distance(0, 2) == pytest.approx(2.0)

    def test_knn_tie_breaks_to_lowest_index(self):
        # vertex 1 sees 0 and 2 at distance 1; k=1 must pick index 0
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        o = GeodesicOracle(Shape(id="line", points=pts), k=1)
        assert 0 in o.neighbor_lists[1]

    def test_disconnected_graph_reported(self):
        pts = np.vstack([np.zeros((3, 3)) + [0, 0, 0], np.zeros((3, 3)) + [100.0, 0, 0]])
        pts += np.arange(6)[:, None] * [0.01, 0, 0]
        with pytest.raises(DisconnectedGraphError):
            GeodesicOracle(Shape(id="split", points=pts), k=2)

    def test_ball_inclusive(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        o = GeodesicOracle(Shape(id="line", points=pts), k=1)
        assert set(o.ball(0, 1.0)) == {0, 1}

    def test_diameter_double_sweep_on_path_graph(self):
        pts = np.c_[np.arange(5, dtype=float), np.zeros(5), np.zeros(5)]
        o = GeodesicOracle(Shape(id="line", points=pts), k=1)
        assert o.diameter() == pytest.approx(4.0)


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

    def test_zero_offdiagonal_needs_flag(self):
        shapes = [two_point_shape("a"), two_point_shape("b")]
        D = np.zeros((2, 2))
        with pytest.raises(DuplicateShapeError):
            ShapeCollection(shapes=shapes, D=D, maps={})
        coll = ShapeCollection(shapes=shapes, D=D, maps={}, allow_duplicates=True)
        assert coll.W[0, 1] == 1.0

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
        assert l4_identity.W[0, 3] == pytest.approx(np.exp(-9.0))
        assert l4_identity.W[0, 0] == 1.0


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
        with pytest.raises(ManifestError, match=r"s1__s0\.csv.*source index 0"):
            load_collection(manifest)

    def test_missing_discrete_map_row_rejected(self, tmp_path, l4_swap):
        manifest = save_collection(l4_swap, tmp_path / "gap")
        path = tmp_path / "gap" / "maps" / "s1__s0.csv"
        path.write_text("1,1\n")
        with pytest.raises(ManifestError, match=r"no row for source index 0"):
            load_collection(manifest)

    def test_identity_helper(self):
        m = identity_map("a", 4)
        assert list(m.indices) == [0, 1, 2, 3]
        assert m.source_id == "a" and m.target_id == "a"
