import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import sparse
from scipy.sparse import csgraph

import corrsync.soft as soft_mod
from corrsync.benchmark import corrupt_maps, synth_collection
from corrsync.collection import CorrespondenceMap, GeodesicOracle, Shape, ShapeCollection
from corrsync.errors import (
    CorrsyncError,
    EmptyPathSetError,
    IndexRangeError,
    InvalidValueError,
    MissingMapError,
    PathBudgetError,
)
from corrsync.flow import chain_dag, directed_flow_matrix, enumerate_paths, gibbs_weights
from corrsync.soft import (
    all_pairs_soft,
    ball_mass,
    frechet_mean,
    mle,
    propagate_soft,
    tv_distance,
)

from conftest import (
    build_l4,
    line_distances,
    permutation_collection,
    push_row,
    random_euclidean_distances,
    soft_from_rows,
    two_point_shape,
)


def per_chain_rows(collection, source_id, target_id, lam, source_points, max_paths=10**6):
    """Reference rows: every queried vertex pushed through every chain separately
    with push_row, accumulated per target in chain order, each chain weighted by
    its Gibbs weight over the retained chains' total."""
    i = collection.index(source_id)
    j = collection.index(target_id)
    flow = directed_flow_matrix(collection.D, i, j, beta=collection.beta)
    records = list(enumerate_paths(flow, lam=lam, max_paths=max_paths))
    weight_total = sum(rec.weight for rec in records)
    ids = collection.ids
    edge_maps = {
        rec.vertices: [collection.map(ids[a], ids[b]) for a, b in zip(rec.vertices, rec.vertices[1:])]
        for rec in records
    }
    rows: dict[int, dict[int, float]] = {}
    for p in source_points:
        p = int(p)
        acc: dict[int, float] = {}
        for rec in records:
            prob = rec.weight / weight_total
            row: dict[int, float] = {p: 1.0}
            for m in edge_maps[rec.vertices]:
                row = push_row(m, row)
            for t, mass in row.items():
                acc[t] = acc.get(t, 0.0) + prob * mass
        total = sum(mass for _, mass in sorted(acc.items()))
        rows[p] = {t: mass / total for t, mass in sorted(acc.items())}
    return rows


def random_collection(rng, soft_share=0.0):
    """3-6 shapes of 2-6 points at random 3-D positions, with random_maps."""
    n = int(rng.integers(3, 7))
    sizes = rng.integers(2, 7, size=n)
    shapes = [
        Shape(id=f"s{k}", points=rng.normal(size=(int(sizes[k]), 3))) for k in range(n)
    ]
    D = random_euclidean_distances(rng, n) * rng.uniform(0.2, 1.5)
    return ShapeCollection(shapes=shapes, D=D, maps=random_maps(rng, sizes, soft_share))


def random_maps(rng, sizes, soft_share=0.0):
    """Maps between every two of shapes s0, s1, ... of the given point counts.

    Maps are random vertex lookups; a share of them (at least one when the
    share is positive) is replaced by random row-stochastic soft maps with 1-3
    positive entries per row. Where both
    directions of a pair are bijections the reverse is made the inverse.
    """
    n = len(sizes)
    lookups = {
        (a, b): rng.integers(0, sizes[b], size=sizes[a])
        for a in range(n) for b in range(n) if a != b
    }
    for (a, b), fwd in lookups.items():
        rev = lookups[(b, a)]
        if a < b and len(set(fwd)) == len(fwd) == len(set(rev)) == len(rev):
            lookups[(b, a)] = np.argsort(fwd)
    soft = rng.random(len(lookups)) < soft_share
    soft[0] |= soft_share > 0
    maps = {}
    for ((a, b), idx), is_soft in zip(lookups.items(), soft):
        src, tgt = f"s{a}", f"s{b}"
        if is_soft:
            dense = np.zeros((sizes[a], sizes[b]))
            for r in range(sizes[a]):
                cols = rng.choice(sizes[b], size=min(sizes[b], int(rng.integers(1, 4))), replace=False)
                dense[r, cols] = rng.uniform(0.1, 1.0, size=cols.size)
            dense /= dense.sum(axis=1, keepdims=True)
            maps[(src, tgt)] = CorrespondenceMap(src, tgt, "soft", matrix=sparse.csr_matrix(dense))
        else:
            maps[(src, tgt)] = CorrespondenceMap(
                src, tgt, "discrete", indices=idx, target_size=int(sizes[b])
            )
    return maps


def line_collection(rng, n_shapes, n_points):
    """n_shapes shapes of n_points points at increasing random positions on a
    line, with discrete random_maps. Every shape between two others lies on
    a chain between them, so s0 -> s{n_shapes - 1} has 2 ** (n_shapes - 2)
    chains, and its trie is n_shapes - 1 deep."""
    shapes = [Shape(id=f"s{k}", points=rng.normal(size=(n_points, 3))) for k in range(n_shapes)]
    D = line_distances(np.cumsum(rng.uniform(0.05, 0.15, size=n_shapes)))
    return ShapeCollection(shapes=shapes, D=D, maps=random_maps(rng, [n_points] * n_shapes))


def random_queries(rng, n_points):
    """0-12 query vertices drawn with replacement, so repeats occur."""
    return [int(v) for v in rng.integers(0, n_points, size=int(rng.integers(0, 13)))]


def chain_marking_l4() -> ShapeCollection:
    """L4 distances on four 4-point shapes, with maps that send s0's vertex 0 to
    a different s3 vertex along each s0 -> s3 chain: 0 along (0, 3), 1 along
    (0, 1, 3), 2 along (0, 2, 3) and 3 along (0, 1, 2, 3)."""
    shapes = [
        Shape(id=f"s{k}", points=np.c_[np.arange(4.0), np.zeros(4), np.zeros(4)])
        for k in range(4)
    ]
    lookups = {(0, 1): [1] * 4, (0, 2): [2] * 4, (1, 2): [0, 3, 0, 0], (1, 3): [0, 1, 2, 3],
               (2, 3): [0, 1, 2, 3]}
    maps = {
        (f"s{a}", f"s{b}"): CorrespondenceMap(
            f"s{a}", f"s{b}", "discrete", indices=np.array(lookups.get((a, b), [0] * 4)),
            target_size=4,
        )
        for a in range(4) for b in range(4) if a != b
    }
    return ShapeCollection(shapes=shapes, D=line_distances([0.0, 1.0, 2.0, 3.0]), maps=maps)


class TestPathDistribution:
    def test_l4_probabilities(self):
        # each chain lands vertex 0 on its own target vertex, so the row holds
        # the chain probabilities: Gibbs weights over their total
        soft = propagate_soft(chain_marking_l4(), "s0", "s3", lam=0.0, source_points=[0])
        Z = np.exp(-9) + 2 * np.exp(-5) + np.exp(-3)
        row = soft.rows[0]
        assert soft.path_count == 4
        assert row[0] == pytest.approx(np.exp(-9) / Z)
        assert row[1] == pytest.approx(np.exp(-5) / Z)
        assert row[2] == pytest.approx(np.exp(-5) / Z)
        assert row[3] == pytest.approx(np.exp(-3) / Z)
        assert sum(row.values()) == pytest.approx(1.0)

    def test_strict_empty_raises(self, l4_identity):
        with pytest.raises(EmptyPathSetError, match="survives threshold 0.9999 in strict mode"):
            propagate_soft(l4_identity, "s0", "s3", lam=0.9999, max_paths=100, strict=True)

    def test_zero_distance_pair_names_the_empty_flow_graph(self):
        # without strict the direct edge survives any threshold, so an empty
        # chain set means the graph has no edge: the pair is at distance 0
        l4 = build_l4()
        coll = ShapeCollection(shapes=l4.shapes, D=line_distances([0.0, 0.0, 2.0, 3.0]),
                               maps=l4.maps, allow_duplicates=True)
        with pytest.raises(EmptyPathSetError) as exc:
            propagate_soft(coll, "s0", "s1", lam=0.5)
        assert str(exc.value) == (
            "shapes 's0' and 's1' are at distance 0, so the flow graph from 0 to 1 has no "
            "edge, not even the direct one"
        )
        with pytest.raises(EmptyPathSetError, match="survives threshold 0.5 in strict mode"):
            propagate_soft(coll, "s0", "s1", lam=0.5, strict=True)


class TestPropagateSoft:
    def test_l4_swap_masses(self, l4_swap):
        soft = propagate_soft(l4_swap, "s0", "s3", lam=0.0, source_points=[0], max_paths=100)
        Z = np.exp(-9) + 2 * np.exp(-5) + np.exp(-3)
        row = soft.rows[0]
        assert row[0] == pytest.approx((np.exp(-9) + np.exp(-5) + np.exp(-3)) / Z, abs=1e-4)
        assert row[1] == pytest.approx(np.exp(-5) / Z, abs=1e-4)
        assert row[0] == pytest.approx(0.8937, abs=1e-4)
        assert row[1] == pytest.approx(0.1063, abs=1e-4)

    def test_identity_collection_gives_delta_rows(self, l4_identity):
        soft = propagate_soft(l4_identity, "s0", "s3", lam=0.0, max_paths=100)
        for v, row in soft.rows.items():
            assert row == pytest.approx({v: 1.0})

    def test_rows_normalized(self, l4_swap):
        soft = propagate_soft(l4_swap, "s0", "s3", lam=0.0, max_paths=100)
        for row in soft.rows.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_landmarks_limit_rows(self):
        coll = build_l4()
        coll.shapes[0].landmark_indices = (1,)
        soft = propagate_soft(coll, "s0", "s3", lam=0.0, max_paths=100)
        assert sorted(soft.rows) == [1]

    def test_missing_map_names_edge(self, l4_swap):
        l4_swap.maps.pop(("s1", "s3"))
        l4_swap.maps.pop(("s3", "s1"))
        with pytest.raises(MissingMapError, match="s1"):
            propagate_soft(l4_swap, "s0", "s3", lam=0.0, max_paths=100)

    def test_two_missing_maps_name_the_first_met_in_chain_order(self):
        # chain (0, 1, 2, 3) comes first and needs s2 -> s3; s0 -> s3 comes
        # first in edge order but only the last chain, (0, 3), needs it
        coll = build_l4()
        coll.maps.pop(("s0", "s3"))
        coll.maps.pop(("s2", "s3"))
        with pytest.raises(MissingMapError, match=r"'s2' -> 's3' on admissible edge \(2, 3\)"):
            propagate_soft(coll, "s0", "s3", lam=0.0, max_paths=100)

    @pytest.mark.parametrize("bad", [2, 99999, -1, 2**64, -2**70])
    def test_out_of_range_query_names_vertex_and_shape(self, l4_swap, bad):
        with pytest.raises(IndexRangeError, match=rf"shape 's0': source vertex {bad} out of range"):
            propagate_soft(l4_swap, "s0", "s3", lam=0.0, source_points=[0, bad], max_paths=100)

    def test_all_weights_underflowing_is_an_error(self):
        coll = build_l4()
        coll = ShapeCollection(shapes=coll.shapes, D=coll.D * 40, maps=coll.maps)
        with pytest.raises(EmptyPathSetError, match="underflows"):
            propagate_soft(coll, "s0", "s3", lam=0.0, max_paths=100)

    def test_target_reached_by_an_underflowing_chain_keeps_mass_zero(self):
        # chain (0, 1, 2) weighs exp(-600 * 1.62), which underflows to 0.0,
        # and alone sends vertex 0 to vertex 1 through the swapped s1 -> s2;
        # the direct chain weighs exp(-600) > 0. Reaching a cell, not a
        # positive mass, puts a target in the row
        shapes = [two_point_shape(f"s{k}") for k in range(3)]
        maps = {
            (f"s{a}", f"s{b}"): CorrespondenceMap(
                f"s{a}", f"s{b}", "discrete", target_size=2,
                indices=np.array([1, 0] if {a, b} == {1, 2} else [0, 1]),
            )
            for a in range(3) for b in range(3) if a != b
        }
        D = [[0.0, 0.9, 1.0], [0.9, 0.0, 0.9], [1.0, 0.9, 0.0]]
        coll = ShapeCollection(shapes=shapes, D=D, maps=maps, beta=600.0)
        soft = propagate_soft(coll, "s0", "s2", lam=0.0, source_points=[0])
        assert soft.path_count == 2
        targets, masses = soft.row(0)
        assert targets.tolist() == [0, 1]
        assert masses.tolist() == [1.0, 0.0]


def spy_walks(mp):
    """Through the MonkeyPatch mp, the list that the names of the chain walks
    propagate_soft runs are appended to, one per block."""
    ran = []
    for name in ("_node_walk", "_depth_walk"):
        def spy(*args, _walk=getattr(soft_mod, name), _name=name, **kwargs):
            ran.append(_name)
            return _walk(*args, **kwargs)
        mp.setattr(soft_mod, name, spy)
    return ran


@pytest.fixture
def walks(monkeypatch):
    """The names of the chain walks that propagate_soft runs, one per block."""
    return spy_walks(monkeypatch)


@contextlib.contextmanager
def dag_chains(chains):
    """propagate_soft with _DAG_CHAINS set to chains; yields spy_walks' list.
    A context, not a fixture, so that hypothesis tests can use it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(soft_mod, "_DAG_CHAINS", chains)
        yield spy_walks(mp)


def same_soft(a, b) -> bool:
    """Whether two soft correspondences hold the same rows, bit for bit."""
    fields = ("queries", "indptr", "indices", "data")
    return a.path_count == b.path_count and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in fields
    )


# s0 -> s7 of line_collection(rng, 8, 12): 64 chains, 127 trie nodes 7 deep,
# over 28 edge maps of 12 entries. With all 12 vertices queried the node walk
# would gather 127 * 12 entries, more than the 336 of the table, so the depth
# walk runs; with one query it would gather 127, and the node walk runs.
WALK_QUERIES = [("_depth_walk", 12), ("_node_walk", 1)]


def large_trie_peak(lam):
    """s0 -> s16 of line_collection(rng(0), 17, 16) at lam, every vertex
    queried: the second run's soft correspondence and tracemalloc peak."""
    coll = line_collection(np.random.default_rng(0), 17, 16)
    propagate_soft(coll, "s0", "s16", lam=lam, source_points=range(16))
    tracemalloc.start()
    try:
        soft = propagate_soft(coll, "s0", "s16", lam=lam, source_points=range(16))
        return soft, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchedPush:
    """propagate_soft builds a query block's chain images from the chain trie,
    by a push per trie node or by a gather per depth through one table of the
    edge maps; either way its rows must match pushing every query through
    every chain separately."""

    LAMS = [0.0, 1e-3, 0.05, 0.3]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAMS))
    @settings(max_examples=40, deadline=None)
    def test_discrete_rows_identical_to_per_chain_push(self, seed, lam):
        rng = np.random.default_rng(seed)
        coll = random_collection(rng)
        for a in coll.ids:
            for b in coll.ids:
                if a == b:
                    continue
                pts = random_queries(rng, coll.shape(a).n)
                got = propagate_soft(coll, a, b, lam=lam, source_points=pts).rows
                want = per_chain_rows(coll, a, b, lam, pts)
                assert got == want
                assert list(got) == list(want)
                for v in want:
                    assert list(got[v].items()) == list(want[v].items())

    @given(st.integers(0, 2**32 - 1), st.sampled_from(LAMS))
    @settings(max_examples=25, deadline=None)
    def test_soft_rows_match_per_chain_push(self, seed, lam):
        rng = np.random.default_rng(seed)
        coll = random_collection(rng, soft_share=0.4)
        assert any(m.kind == "soft" for m in coll.maps.values())
        for a in coll.ids:
            for b in coll.ids:
                if a == b:
                    continue
                pts = random_queries(rng, coll.shape(a).n)
                got = propagate_soft(coll, a, b, lam=lam, source_points=pts).rows
                want = per_chain_rows(coll, a, b, lam, pts)
                assert list(got) == list(want)
                for v in want:
                    assert list(got[v]) == list(want[v])
                    assert np.allclose(
                        list(got[v].values()), list(want[v].values()), rtol=0, atol=1e-12
                    )

    def test_long_rows_identical_to_per_chain_push(self):
        # 32 chains through half-corrupted permutations give rows of up to 14
        # targets, past the 8-wide blocks in which np.sum adds pairwise
        rng = np.random.default_rng(0)
        coll = corrupt_maps(permutation_collection([rng.permutation(40) for _ in range(7)]), 0.5, 1)
        got = propagate_soft(coll, "p0", "p6", lam=0.0).rows
        want = per_chain_rows(coll, "p0", "p6", 0.0, range(40))
        assert max(map(len, want.values())) > 8
        assert list(got) == list(want)
        for v in want:
            assert list(got[v].items()) == list(want[v].items())

    @pytest.mark.parametrize("soft_share", [0.0, 0.4])
    def test_block_and_chunk_sizes_change_nothing(self, monkeypatch, soft_share):
        # blocks of two to six queries, each chain image flushed at once
        monkeypatch.setattr("corrsync.soft._ACC_CELLS", 12)
        monkeypatch.setattr("corrsync.soft._CHUNK_CELLS", 3)
        for seed in range(15):
            rng = np.random.default_rng(seed)
            coll = random_collection(rng, soft_share)
            for a, b in [(coll.ids[0], coll.ids[-1]), (coll.ids[-1], coll.ids[1])]:
                pts = random_queries(rng, coll.shape(a).n)
                got = propagate_soft(coll, a, b, lam=0.0, source_points=pts).rows
                want = per_chain_rows(coll, a, b, 0.0, pts)
                assert list(got) == list(want)
                for v in want:
                    assert list(got[v]) == list(want[v])
                    assert np.allclose(
                        list(got[v].values()), list(want[v].values()), rtol=0, atol=1e-12
                    )
                    if soft_share == 0.0:
                        assert list(got[v].items()) == list(want[v].items())

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("walk, n_queries", WALK_QUERIES)
    def test_chunks_carry_the_stack_over(self, monkeypatch, walks, walk, n_queries, per_chunk):
        # chunks of one to three chains end inside shared prefixes up to six
        # edges long, so each chunk starts from stack images an earlier one
        # computed
        monkeypatch.setattr("corrsync.soft._CHUNK_CELLS", per_chunk * n_queries)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            coll = line_collection(rng, 8, 12)
            pts = rng.permutation(12)[:n_queries].tolist()
            got = propagate_soft(coll, "s0", "s7", lam=0.0, source_points=pts)
            want = per_chain_rows(coll, "s0", "s7", 0.0, pts)
            assert got.path_count == 64
            assert list(got.rows) == list(want)
            for v in want:
                assert list(got.rows[v].items()) == list(want[v].items())
        assert walks == [walk] * 3

    @pytest.mark.parametrize("walk, n_queries", WALK_QUERIES)
    def test_missing_maps_name_the_first_chain_edge(self, walks, walk, n_queries):
        # the first chain, (0, 1, ..., 7), needs the deep edge (6, 7) before
        # the later chains through (0, 2) need that shallow one
        coll = line_collection(np.random.default_rng(0), 8, 12)
        pts = list(range(n_queries))
        propagate_soft(coll, "s0", "s7", lam=0.0, source_points=pts)
        assert walks == [walk]
        del coll.maps["s6", "s7"], coll.maps["s0", "s2"]
        with pytest.raises(MissingMapError, match=r"'s6' -> 's7' on admissible edge \(6, 7\)"):
            propagate_soft(coll, "s0", "s7", lam=0.0, source_points=pts)

    def test_large_trie_memory_stays_bounded(self, walks):
        # 32,768 chains, 65,535 trie nodes, 16 queries: an image array for
        # every node would take 8.4 MB alone. At lam 0 they take the DAG
        # pass, which holds one state per vertex
        soft, peak = large_trie_peak(0.0)
        assert soft.path_count == 2**15
        assert walks == []
        assert peak <= 6_000_000

    def test_large_trie_memory_stays_bounded_uncertified(self, walks):
        # a lam just above the lightest chain, the direct one, which the
        # rescue keeps, breaks the certificate: the depth walk runs, and it
        # keeps one chunk's images at a time
        coll = line_collection(np.random.default_rng(0), 17, 16)
        floor = chain_dag(directed_flow_matrix(coll.D, 0, 16)).floor
        soft, peak = large_trie_peak(np.nextafter(floor, 1.0))
        assert soft.path_count == 2**15
        assert walks == ["_depth_walk"] * 2
        assert peak <= 6_000_000

    def test_soft_direct_map_reaches_rows(self, l4_swap):
        # s0 -> s3 stored as a soft map: the direct chain carries its split mass
        split = sparse.csr_matrix(np.array([[0.25, 0.75], [1.0, 0.0]]))
        l4_swap.maps[("s0", "s3")] = CorrespondenceMap("s0", "s3", "soft", matrix=split)
        soft = propagate_soft(l4_swap, "s0", "s3", lam=0.0, source_points=[0], max_paths=100)
        Z = np.exp(-9) + 2 * np.exp(-5) + np.exp(-3)
        want = per_chain_rows(l4_swap, "s0", "s3", 0.0, [0], max_paths=100)
        assert soft.rows[0] == pytest.approx(want[0], abs=1e-12)
        assert soft.rows[0][1] == pytest.approx((0.75 * np.exp(-9) + np.exp(-5)) / Z)


class TestDagRoute:
    """Past _DAG_CHAINS chains, a chain set whose lightest chain weighs at
    least lam is pushed by one forward pass over its DAG; its rows must match
    pushing every query through every chain separately, and any other chain
    set must take the walks with unchanged bits."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.4]), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_dag_rows_match_per_chain_push(self, seed, soft_share, lam_share):
        # lam at most the lightest chain's weight prunes nothing
        rng = np.random.default_rng(seed)
        coll = random_collection(rng, soft_share)
        for a in coll.ids:
            for b in coll.ids:
                if a == b:
                    continue
                pts = random_queries(rng, coll.shape(a).n)
                flow = directed_flow_matrix(coll.D, coll.index(a), coll.index(b), beta=coll.beta)
                dag = chain_dag(flow)
                lam = dag.floor * lam_share
                with dag_chains(1) as ran:
                    got = propagate_soft(coll, a, b, lam=lam, source_points=pts)
                want = per_chain_rows(coll, a, b, lam, pts)
                # a lone chain fits the budget of 1, and the walks push it
                if dag.count > 1:
                    assert ran == []
                assert got.path_count == dag.count
                assert list(got.rows) == list(want)
                for v in want:
                    assert list(got.rows[v]) == list(want[v])
                    assert np.allclose(
                        list(got.rows[v].values()), list(want[v].values()), rtol=0, atol=1e-12
                    )

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.4]), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_uncertified_lam_takes_the_walks_with_the_same_bits(self, seed, soft_share, share):
        # a lam above the lightest chain's weight prunes a chain, or keeps
        # the direct one only by the rescue rule
        rng = np.random.default_rng(seed)
        coll = random_collection(rng, soft_share)
        for a in coll.ids:
            for b in coll.ids:
                if a == b:
                    continue
                pts = random_queries(rng, coll.shape(a).n)
                flow = directed_flow_matrix(coll.D, coll.index(a), coll.index(b), beta=coll.beta)
                floor = chain_dag(flow).floor
                lam = min(1.0, max(np.nextafter(floor, 1.0), floor + share * (1.0 - floor)))
                want = propagate_soft(coll, a, b, lam=lam, source_points=pts)
                with dag_chains(1) as ran:
                    got = propagate_soft(coll, a, b, lam=lam, source_points=pts)
                # one block of at most 12 queries, none for an empty query set
                assert len(ran) == (1 if pts else 0)
                assert same_soft(got, want)

    @pytest.mark.parametrize("soft_share", [0.0, 0.4])
    def test_block_size_changes_no_bit(self, monkeypatch, soft_share):
        # blocks of two to six queries: a query's keys meet no other query's
        for seed in range(15):
            rng = np.random.default_rng(seed)
            coll = random_collection(rng, soft_share)
            for a, b in [(coll.ids[0], coll.ids[-1]), (coll.ids[-1], coll.ids[1])]:
                pts = random_queries(rng, coll.shape(a).n)
                with dag_chains(1):
                    want = propagate_soft(coll, a, b, lam=0.0, source_points=pts)
                    monkeypatch.setattr("corrsync.soft._ACC_CELLS", 12)
                    got = propagate_soft(coll, a, b, lam=0.0, source_points=pts)
                    monkeypatch.undo()
                assert same_soft(got, want)

    @pytest.mark.parametrize("chains", [1, 100])
    def test_budget_overflow_raises_as_the_walks_do(self, monkeypatch, chains):
        # 64 chains: past a _DAG_CHAINS of 1 the exact count raises at once,
        # with no second enumeration; at 100 the first enumeration raises
        coll = line_collection(np.random.default_rng(0), 8, 12)
        with pytest.raises(PathBudgetError) as want:
            propagate_soft(coll, "s0", "s7", lam=0.0, max_paths=63)
        budgets = []

        def counted(flow, lam, max_paths, strict, truncate=False, _real=soft_mod.enumerate_paths):
            budgets.append((max_paths, truncate))
            return _real(flow, lam=lam, max_paths=max_paths, strict=strict, truncate=truncate)

        monkeypatch.setattr(soft_mod, "enumerate_paths", counted)
        with dag_chains(chains), pytest.raises(PathBudgetError) as got:
            propagate_soft(coll, "s0", "s7", lam=0.0, max_paths=63)
        assert str(got.value) == str(want.value)
        assert budgets == [(1, True) if chains == 1 else (63, False)]
        with dag_chains(chains):
            assert propagate_soft(coll, "s0", "s7", lam=0.0, max_paths=64).path_count == 64

    @pytest.mark.parametrize("bad", ["10", None, float("inf"), 2.5])
    def test_budget_is_checked_before_it_is_compared(self, bad):
        # min(inf, _DAG_CHAINS) would be a valid budget, and min("10", ...) a TypeError
        with pytest.raises(InvalidValueError, match="max_paths"):
            propagate_soft(build_l4(), "s0", "s3", max_paths=bad)

    def test_missing_map_names_the_first_chain_edge(self):
        # the DAG's edges are looked up in another order; the walks name the
        # first chain's (6, 7), not the shallower (0, 2)
        coll = line_collection(np.random.default_rng(0), 8, 12)
        del coll.maps["s6", "s7"], coll.maps["s0", "s2"]
        with dag_chains(1), pytest.raises(MissingMapError) as got:
            propagate_soft(coll, "s0", "s7", lam=0.0, source_points=[0])
        assert str(got.value) == "no stored map 's6' -> 's7' on admissible edge (6, 7)"

    def test_all_weights_underflowing_is_the_same_error(self):
        coll = build_l4()
        coll = ShapeCollection(shapes=coll.shapes, D=coll.D * 40, maps=coll.maps)
        with pytest.raises(EmptyPathSetError) as want:
            propagate_soft(coll, "s0", "s3", lam=0.0, max_paths=100)
        with dag_chains(1) as ran, pytest.raises(EmptyPathSetError) as got:
            propagate_soft(coll, "s0", "s3", lam=0.0, max_paths=100)
        assert ran == [] and str(got.value) == str(want.value)

    def test_target_reached_by_an_underflowing_chain_keeps_mass_zero(self):
        # TestPropagateSoft's case past a budget of 1: the state that chain
        # (0, 1, 2) pushes into s2's vertex 1 has mass exp(-486) * exp(-486),
        # which underflows to 0.0, and the key stays
        shapes = [two_point_shape(f"s{k}") for k in range(3)]
        maps = {
            (f"s{a}", f"s{b}"): CorrespondenceMap(
                f"s{a}", f"s{b}", "discrete", target_size=2,
                indices=np.array([1, 0] if {a, b} == {1, 2} else [0, 1]),
            )
            for a in range(3) for b in range(3) if a != b
        }
        D = [[0.0, 0.9, 1.0], [0.9, 0.0, 0.9], [1.0, 0.9, 0.0]]
        coll = ShapeCollection(shapes=shapes, D=D, maps=maps, beta=600.0)
        with dag_chains(1) as ran:
            soft = propagate_soft(coll, "s0", "s2", lam=0.0, source_points=[0])
        assert ran == [] and soft.path_count == 2
        targets, masses = soft.row(0)
        assert targets.tolist() == [0, 1]
        assert masses.tolist() == [1.0, 0.0]


class TestCsrRows:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(TestBatchedPush.LAMS), st.floats(0.1, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_layout_invariants(self, seed, lam, soft_share):
        rng = np.random.default_rng(seed)
        coll = random_collection(rng, soft_share)
        for a in coll.ids:
            for b in coll.ids:
                if a == b:
                    continue
                pts = random_queries(rng, coll.shape(a).n)
                sc = propagate_soft(coll, a, b, lam=lam, source_points=pts)
                assert sc.queries.tolist() == list(dict.fromkeys(pts))
                assert sc.indptr.size == sc.queries.size + 1 and sc.indptr[0] == 0
                assert (np.diff(sc.indptr) >= 0).all()
                assert sc.indptr[-1] == sc.indices.size == sc.data.size
                for k in range(sc.queries.size):
                    span = slice(sc.indptr[k], sc.indptr[k + 1])
                    targets, masses = sc.indices[span], sc.data[span]
                    assert targets.size > 0
                    assert (np.diff(targets) > 0).all()
                    assert 0 <= targets[0] and targets[-1] < coll.shape(b).n
                    assert np.isfinite(masses).all() and (masses > 0).all()
                    assert abs(masses.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("v", [1.7, 1.0, np.float64(1.0), True, np.bool_(True)],
                             ids=["float", "integral-float", "np-float", "bool", "np-bool"])
    def test_row_rejects_a_non_integer_vertex(self, v):
        # int() would truncate 1.7 to the queried vertex 1 and read True as 1
        with pytest.raises(InvalidValueError, match="not an integer"):
            soft_from_rows({1: {0: 1.0}, 2: {1: 1.0}}).row(v)

    def test_row_takes_numpy_integers(self):
        soft = soft_from_rows({1: {0: 1.0}, 2: {1: 1.0}})
        for v in (np.int64(2), np.uint8(2), np.array([1, 2])[1]):
            assert soft.row(v)[0].tolist() == [1]
        with pytest.raises(KeyError, match="vertex 3 was not in the propagated query set"):
            soft.row(np.int32(3))


def all_rows(coll, lam):
    """Every ordered pair's rows with every vertex queried, or the CorrsyncError
    the pair raised."""
    out = {}
    for a in coll.ids:
        for b in coll.ids:
            if a != b:
                try:
                    out[(a, b)] = propagate_soft(
                        coll, a, b, lam=lam, source_points=range(coll.shape(a).n)
                    ).rows
                except CorrsyncError as exc:
                    out[(a, b)] = type(exc)
    return out


def with_distances(coll, D, beta):
    return ShapeCollection(shapes=coll.shapes, D=D, maps=coll.maps, beta=beta)


class TestReadmeInvariants:
    """Numeric contracts of the README on random collections of 3-6 shapes."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(-8, 8),
        st.floats(0.05, 20.0),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_units_of_d_only_matter_through_beta(self, seed, log2_c, beta, lam, soft_share):
        # (c D, beta / c^2, lambda) describes the same collection as (D, beta, lambda)
        coll = random_collection(np.random.default_rng(seed), soft_share)
        c = 2.0**log2_c
        want = all_rows(with_distances(coll, coll.D, beta), lam)
        got = all_rows(with_distances(coll, c * coll.D, beta / c**2), lam)
        assert got.keys() == want.keys()
        for pair, rows in want.items():
            if isinstance(rows, type):
                assert got[pair] is rows
                continue
            assert list(got[pair]) == list(rows)
            for v, row in rows.items():
                assert list(got[pair][v]) == list(row)
                assert np.allclose(list(got[pair][v].values()), list(row.values()), rtol=0, atol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.data(),
        st.floats(1e-6, 1e6),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_positive_d_gives_normalized_rows_or_an_error(
        self, seed, data, beta, lam, soft_share
    ):
        coll = random_collection(np.random.default_rng(seed), soft_share)
        n = coll.n
        upper = data.draw(
            st.lists(
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            )
        )
        D = np.zeros((n, n))
        D[np.triu_indices(n, 1)] = upper
        D += D.T
        with warnings.catch_warnings():
            # an overflowing D^2 is a zero weight, not a warning on stderr
            warnings.simplefilter("error")
            result = all_rows(with_distances(coll, D, beta), lam)
        for pair, rows in result.items():
            if isinstance(rows, type):
                continue
            assert list(rows) == list(range(coll.shape(pair[0]).n))
            for row in rows.values():
                masses = np.array(list(row.values()))
                assert np.isfinite(masses).all() and (masses >= 0).all()
                assert abs(masses.sum() - 1.0) <= 1e-9


class TestFlowWeights:
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 20.0), st.sampled_from([1.0, 1e200]))
    @settings(max_examples=30, deadline=None)
    def test_flow_weights_are_the_collection_weights(self, seed, beta, scale):
        # at scale 1e200 every off-diagonal D * D overflows to a weight of 0
        coll = random_collection(np.random.default_rng(seed))
        coll = with_distances(coll, scale * coll.D, beta)
        W = gibbs_weights(coll.D, coll.beta)
        if scale > 1.0:
            assert not W[~np.eye(coll.n, dtype=bool)].any()
        for i in range(coll.n):
            for j in range(coll.n):
                if i != j:
                    flow = directed_flow_matrix(coll.D, i, j, beta=coll.beta)
                    assert flow.WF.tobytes() == np.where(flow.F, W, 0.0).tobytes()


class TestHardMaps:
    def test_mle_majority(self, l4_swap):
        soft = propagate_soft(l4_swap, "s0", "s3", lam=0.0, source_points=[0], max_paths=100)
        assert mle(soft) == {0: 0}

    def test_mle_tie_breaks_low(self):
        sc = soft_from_rows({0: {1: 0.5, 0: 0.5}})
        assert mle(sc) == {0: 0}

    def test_mle_first_maximum_and_empty_row(self):
        sc = soft_from_rows({0: {0: 0.5, 2: 0.5}, 1: {}, 2: {3: 0.2, 5: 0.8}, 3: {4: 1.0}})
        assert mle(sc) == reference_mle(sc) == {0: 0, 1: -1, 2: 5, 3: 4}
        assert list(mle(sc)) == [0, 1, 2, 3]

    def test_frechet_prefers_heavier_point(self):
        sc = soft_from_rows({0: {0: 0.6, 1: 0.4}})
        oracle = GeodesicOracle(two_point_shape("b"), k=1)
        assert frechet_mean(sc, oracle) == {0: 0}
        flipped = soft_from_rows({0: {0: 0.4, 1: 0.6}})
        assert frechet_mean(flipped, oracle) == {0: 1}

    def test_frechet_tie_breaks_low(self):
        sc = soft_from_rows({0: {0: 0.5, 1: 0.5}})
        oracle = GeodesicOracle(two_point_shape("b"), k=1)
        assert frechet_mean(sc, oracle) == {0: 0}

    def test_frechet_restricted_to_support(self):
        # mass splits over the two ends of a 3-point line; the middle vertex
        # would minimize the energy but lies outside the support
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        oracle = GeodesicOracle(Shape(id="b", points=pts), k=1)
        sc = soft_from_rows({0: {0: 0.5, 2: 0.5}})
        assert frechet_mean(sc, oracle) == {0: 0}


def reference_mle(soft):
    """The per-row scan: ascending targets, the first mass strictly above the
    best so far, starting from -1."""
    out = {}
    for v, row in soft.rows.items():
        best_t, best_m = -1, -1.0
        for t in sorted(row):
            if row[t] > best_m:
                best_t, best_m = t, row[t]
        out[v] = best_t
    return out


def reference_costs(row, oracle):
    """Per support vertex in ascending order, the Frechet cost by definition:
    mass[q] * d(x, q) ** 2 added left to right over the ascending support."""
    support = sorted(row)
    costs = []
    for x in support:
        dx = csgraph.dijkstra(oracle.graph, directed=False, indices=x)
        cost = 0.0
        for q in support:
            cost += row[q] * float(dx[q]) ** 2
        costs.append(cost)
    return costs


def reference_frechet(soft, oracle):
    """The per-row scan: the first support vertex with the lowest cost."""
    out = {}
    for v, row in soft.rows.items():
        best_t, best_cost = -1, float("inf")
        for x, cost in zip(sorted(row), reference_costs(row, oracle)):
            if cost < best_cost:
                best_t, best_cost = x, cost
        out[v] = best_t
    return out


# a unit-spaced line (integer distances, many exact cost ties) and a random cloud
LINE = GeodesicOracle(
    Shape(id="line", points=np.c_[np.arange(24.0), np.zeros(24), np.zeros(24)]), k=1
)
CLOUD = GeodesicOracle(
    Shape(id="cloud", points=np.random.default_rng(5).normal(size=(40, 3))), k=6
)


@st.composite
def soft_rows(draw):
    """Rows over LINE or CLOUD: supports of 1 to 20 vertices, masses either
    random or drawn from a few repeated values."""
    oracle = draw(st.sampled_from([LINE, CLOUD]))
    mass = (
        st.sampled_from([0.25, 0.5, 1.0 / 3.0])
        if draw(st.booleans())
        else st.floats(1e-6, 1.0)
    )
    keys = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    rows = {}
    for v in keys:
        support = draw(
            st.lists(st.integers(0, oracle.n - 1), min_size=1,
                     max_size=20, unique=True)
        )
        rows[v] = {q: draw(mass) for q in support}
    return soft_from_rows(rows, target=oracle.shape.id), oracle


class TestMleScan:
    @given(soft_rows())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_scan(self, case):
        # the repeated masses of soft_rows make ties common
        sc, _ = case
        assert mle(sc) == reference_mle(sc)


class TestFrechetMean:
    @given(soft_rows())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_scan(self, case):
        sc, oracle = case
        got = frechet_mean(sc, oracle)
        assert got == reference_frechet(sc, oracle)
        assert list(got) == list(sc.rows)

    @given(soft_rows())
    @settings(max_examples=120, deadline=None)
    def test_costs_bit_identical_to_left_to_right_sum(self, case):
        # sizes 9-20 cross numpy's 8-wide pairwise-summation blocks
        sc, oracle = case
        for row in sc.rows.values():
            support = np.array([sorted(row)])
            mass = np.array([[row[q] for q in sorted(row)]])
            dist = oracle.distance_rows(support[0])
            got = soft_mod._frechet_costs(dist, np.arange(support.size)[None, :], support, mass)
            assert got[0].tolist() == reference_costs(row, oracle)

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_block_size_does_not_change_costs(self, monkeypatch, cells):
        rng = np.random.default_rng(3)
        support = np.sort(rng.choice(CLOUD.n, size=(5, 12), replace=True), axis=1)
        mass = rng.random((5, 12))
        dist = CLOUD.distance_rows(np.arange(CLOUD.n))
        want = soft_mod._frechet_costs(dist, support, support, mass)
        monkeypatch.setattr(soft_mod, "_FRECHET_CELLS", cells)
        assert np.array_equal(soft_mod._frechet_costs(dist, support, support, mass), want)

    def test_exact_ties_take_lowest_index(self):
        # on the line, vertices 3 and 5 around 4 are symmetric; 4 is absent
        sc = soft_from_rows(
            {0: {5: 0.5, 3: 0.5}, 1: {7: 0.25, 1: 0.25, 3: 0.25, 5: 0.25}}, target="line"
        )
        assert frechet_mean(sc, LINE) == {0: 3, 1: 3}

    def test_single_vertex_rows_need_no_distance_row(self, monkeypatch):
        oracle = GeodesicOracle(Shape(id="b", points=CLOUD.shape.points), k=6)
        monkeypatch.setattr(oracle, "distance_rows", None)
        sc = soft_from_rows({4: {9: 1.0}, 2: {0: 1.0}, 7: {}})
        assert frechet_mean(sc, oracle) == {4: 9, 2: 0, 7: -1}
        assert list(frechet_mean(sc, oracle)) == [4, 2, 7]

    @pytest.mark.parametrize("bad", [-1, 40, 1000])
    @pytest.mark.parametrize("other", [{}, {3: 0.5, 6: 0.5}])
    def test_out_of_range_vertex_rejected(self, bad, other):
        sc = soft_from_rows({0: other, 1: {bad: 1.0}}, target="cloud")
        with pytest.raises(IndexRangeError, match=f"vertex {bad} out of range"):
            frechet_mean(sc, CLOUD)
        many = soft_from_rows({1: {2: 0.5, bad: 0.5}}, target="cloud")
        with pytest.raises(IndexRangeError):
            frechet_mean(many, CLOUD)

    @pytest.mark.parametrize("bad", [-1, 40])
    def test_support_is_checked_once_before_any_row(self, monkeypatch, bad):
        # a bad entry in the last, single-vertex row raises before the
        # multi-vertex rows' distance rows are computed
        oracle = GeodesicOracle(Shape(id="c", points=CLOUD.shape.points), k=6)
        checks = []

        def counted(shape, vertices, what="vertex", _real=Shape.check_vertices):
            checks.append(what)
            return _real(shape, vertices, what)

        monkeypatch.setattr(Shape, "check_vertices", counted)
        sc = soft_from_rows({0: {3: 0.5, 6: 0.5}, 1: {bad: 1.0}}, target="c")
        with pytest.raises(IndexRangeError, match=f"vertex {bad} out of range"):
            frechet_mean(sc, oracle)
        assert oracle._filled == 0
        good = soft_from_rows({0: {3: 0.5, 6: 0.5}, 1: {2: 1.0}}, target="c")
        checks.clear()
        assert frechet_mean(good, oracle) == {0: 3, 1: 2}
        assert checks == ["vertex"] and oracle._filled == 2

    def test_squares_are_python_float_squares(self):
        # about 0.08% of d * d differ from float(d) ** 2 in the last bit;
        # 150 rows of 20 vertices on a 150-point cloud hit some of them
        oracle = GeodesicOracle(
            Shape(id="c", points=np.random.default_rng(8).normal(size=(150, 3))), k=6
        )
        rng = np.random.default_rng(9)
        support = (np.arange(150)[:, None] + np.arange(20)) % 150
        support.sort(axis=1)
        mass = rng.random(support.shape)
        got = soft_mod._frechet_costs(oracle.distance_rows(np.arange(150)), support, support, mass)
        for i in range(150):
            row = dict(zip(support[i].tolist(), mass[i].tolist()))
            assert got[i].tolist() == reference_costs(row, oracle)

    @pytest.mark.parametrize(
        "row",
        [
            {3: float("nan")}, {3: float("inf")}, {3: -1.0}, {3: float("nan"), 6: 0.5},
            {3: float("inf"), 6: 0.5}, {3: -1.0, 6: 0.5},
            # all costs overflow to inf: no vertex beats the initial inf
            {0: 1e308, 5: 1e308},
            # vertex 5 costs inf - inf = nan, which must not win over vertex 0
            {0: 1e308, 1: -1e308, 5: 1.0},
        ],
    )
    def test_non_finite_costs_as_reference(self, row):
        sc = soft_from_rows({0: row}, target="line")
        assert frechet_mean(sc, LINE) == reference_frechet(sc, LINE)

    def test_all_pairs_match_reference(self):
        coll = synth_collection(5, 60, 0.10, 0, map_source="truth")
        coll = corrupt_maps(coll, 0.25, 0)
        queries = {s.id: list(range(s.n)) for s in coll.shapes}
        serial = all_pairs_soft(coll, lam=0.978, queries=queries)
        for pair, soft in serial.soft.items():
            oracle = coll.oracle(pair[1])
            assert serial.frechet[pair] == reference_frechet(soft, oracle)


def csr_row(row):
    return soft_from_rows({0: row}).row(0)


class TestRowHelpers:
    def test_ball_mass_inclusive(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        oracle = GeodesicOracle(Shape(id="b", points=pts), k=1)
        row = soft_from_rows({0: {0: 0.2, 1: 0.3, 2: 0.5}}).row(0)
        assert ball_mass(row, 0, 1.0, oracle) == pytest.approx(0.5)
        assert ball_mass(row, 1, 1.0, oracle) == pytest.approx(1.0)

    def test_tv_distance(self):
        assert tv_distance(csr_row({0: 1.0}), csr_row({0: 1.0})) == 0.0
        assert tv_distance(csr_row({0: 1.0}), csr_row({1: 1.0})) == 1.0
        assert tv_distance(csr_row({0: 0.5, 1: 0.5}), csr_row({0: 1.0})) == pytest.approx(0.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tv_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = rng.random(n)
        b = rng.random(n)
        row_a = csr_row(dict(enumerate(a / a.sum())))
        row_b = csr_row(dict(enumerate(b / b.sum())))
        t = tv_distance(row_a, row_b)
        assert 0.0 <= t <= 1.0 + 1e-12
        assert tv_distance(row_a, row_a) == 0.0


class TestAllPairs:
    def test_matches_single_pair_calls(self, l4_swap):
        res = all_pairs_soft(l4_swap, lam=0.0)
        single = propagate_soft(l4_swap, "s0", "s3", lam=0.0, max_paths=1000)
        assert res.soft[("s0", "s3")].rows == single.rows
        assert set(res.mle) == {(a, b) for a in l4_swap.ids for b in l4_swap.ids if a != b}

    def test_query_sets_restrict_rows(self, l4_swap):
        res = all_pairs_soft(l4_swap, lam=0.0, queries={"s0": [1]})
        assert sorted(res.soft[("s0", "s3")].rows) == [1]
        # shapes without an entry fall back to all vertices
        assert sorted(res.soft[("s1", "s3")].rows) == [0, 1]
