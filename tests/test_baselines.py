import itertools
import math
import re
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from corrsync.baselines import (
    compose_along,
    direct_propagate,
    kruskal_mst,
    min_connecting_epsilon,
    mst_propagate,
    shortest_path_propagate,
)
from corrsync.collection import CorrespondenceMap, Shape, ShapeCollection
from corrsync.errors import DisconnectedGraphError
from corrsync.soft import propagate_soft

from conftest import (
    build_l4,
    line_distances,
    permutation_collection,
    random_euclidean_distances,
    tree_path,
)


def _soft_l4(seed, n=6) -> ShapeCollection:
    """build_l4's line of four shapes, with n points each and random soft n x n maps."""
    rng = np.random.default_rng(seed)
    l4 = build_l4()
    pts = np.c_[np.arange(n, dtype=float), np.zeros(n), np.zeros(n)]
    maps = {}
    for a, b in l4.maps:
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        raw[np.arange(n), rng.integers(0, n, n)] += 0.1
        raw /= raw.sum(axis=1, keepdims=True)
        maps[(a, b)] = CorrespondenceMap(a, b, "soft", matrix=sparse.csr_matrix(raw))
    shapes = [Shape(id=s.id, points=pts) for s in l4.shapes]
    return ShapeCollection(shapes=shapes, D=l4.D, maps=maps)


class TestKruskal:
    def test_chain(self):
        D = line_distances([0.0, 1.0, 2.0, 3.0])
        assert kruskal_mst(D) == ((0, 1), (1, 2), (2, 3))

    def test_tie_breaks_lexicographically(self):
        # all three pairwise distances equal: edges (0,1) and (0,2) win
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert kruskal_mst(D) == ((0, 1), (0, 2))

    def test_tree_path(self):
        coll = permutation_collection([np.arange(2)] * 4, line_distances([0.0, 1.0, 2.0, 3.0]))
        assert mst_propagate(coll, "p0", "p3")[1] == ("p0", "p1", "p2", "p3")
        assert mst_propagate(coll, "p3", "p1")[1] == ("p3", "p2", "p1")
        assert mst_propagate(coll, "p2", "p2")[1] == ("p2",)

    def test_spans_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            D = random_euclidean_distances(rng, n)
            edges = kruskal_mst(D)
            assert len(edges) == n - 1
            assert all(tree_path(edges, 0, v)[-1] == v for v in range(n))


class TestRouteSearch:
    """Both composed routes against brute force: shortest is the least
    (energy, vertex tuple) over every simple path whose edges are all <= epsilon,
    mst the one path in Kruskal's tree."""

    @given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_routes_match_brute_force(self, n, levels, seed, pick):
        rng = np.random.default_rng(seed)
        # multiples of 1/4: their squares and every sum of those are exact, so
        # an energy tie is exact whatever the order of summation; few levels
        # make many ties
        upper = np.triu(rng.integers(1, levels + 1, (n, n)) / 4, 1)
        D = upper + upper.T
        coll = permutation_collection([np.arange(2)] * n, D)
        # None, inf, 0 (no edge at all), or one of the distances, which may
        # cut the graph in parts
        choices = [None, math.inf, 0.0, *np.unique(upper[upper > 0]).tolist()]
        epsilon = choices[pick % len(choices)]
        connecting = min(e for e in choices[2:] if len(_brute_force_components(D, e)) == 1)
        used = connecting if epsilon is None else epsilon
        edges = kruskal_mst(D)
        for i in range(n):
            for j in range(n):
                a, b = coll.ids[i], coll.ids[j]
                assert mst_propagate(coll, a, b)[1] == tuple(
                    coll.ids[v] for v in tree_path(edges, i, j))
                want = _brute_force_route(D, i, j, used)
                if want is None:
                    message = (f"no route {i} -> {j} with edges <= {used}; "
                               f"components: {_brute_force_components(D, used)}")
                    with pytest.raises(DisconnectedGraphError, match=re.escape(message)):
                        shortest_path_propagate(coll, a, b, epsilon=epsilon)
                else:
                    route = shortest_path_propagate(coll, a, b, epsilon=epsilon)[1]
                    assert route == tuple(coll.ids[v] for v in want)


def _brute_force_route(D, i, j, epsilon):
    """The least (energy summed left to right, vertex tuple) over every simple
    i -> j path with all its edges <= epsilon, or None when there is none."""
    if i == j:
        return (i,)
    others = [v for v in range(len(D)) if v not in (i, j)]
    best = None
    for k in range(len(others) + 1):
        for middle in itertools.permutations(others, k):
            path = (i, *middle, j)
            if any(D[a, b] > epsilon for a, b in pairwise(path)):
                continue
            energy = 0.0
            for a, b in pairwise(path):
                energy += float(D[a, b]) ** 2
            if best is None or (energy, path) < best:
                best = (energy, path)
    return None if best is None else best[1]


def _brute_force_components(D, epsilon):
    """The components of the graph of the edges <= epsilon, each sorted, by BFS."""
    unseen, comps = set(range(len(D))), []
    while unseen:
        frontier = [min(unseen)]
        comp = set(frontier)
        while frontier:
            v = frontier.pop()
            for u in range(len(D)):
                if u not in comp and D[v, u] <= epsilon:
                    comp.add(u)
                    frontier.append(u)
        unseen -= comp
        comps.append(sorted(comp))
    return sorted(comps)


class TestMinConnectingEpsilon:
    def test_equals_longest_mst_edge(self):
        D = line_distances([0.0, 1.0, 2.0, 5.0])
        assert min_connecting_epsilon(D) == pytest.approx(3.0)

    def test_threshold_graph_connects_exactly_at_epsilon(self):
        rng = np.random.default_rng(4)
        D = random_euclidean_distances(rng, 9)
        eps = min_connecting_epsilon(D)
        # strictly below epsilon the graph splits
        shaved = eps * (1 - 1e-9)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        def n_comp(thresh):
            A = (D <= thresh) & ~np.eye(len(D), dtype=bool)
            return connected_components(csr_matrix(A), directed=False)[0]

        assert n_comp(eps) == 1
        assert n_comp(shaved) > 1


class TestPropagationRoutes:
    def test_direct_is_stored_map(self, l4_swap):
        m = direct_propagate(l4_swap, "s0", "s3")
        assert list(m.indices) == [0, 1]
        m2 = direct_propagate(l4_swap, "s1", "s3")
        assert list(m2.indices) == [1, 0]

    def test_direct_same_shape_identity(self, l4_identity):
        m = direct_propagate(l4_identity, "s2", "s2")
        assert list(m.indices) == [0, 1]

    def test_mst_route_on_chain(self, l4_swap):
        m, route = mst_propagate(l4_swap, "s0", "s3")
        assert route == ("s0", "s1", "s2", "s3")
        # chain maps are all identity; the swap sits on the skipped direct edge
        assert list(m.indices) == [0, 1]

    def test_shortest_route_prefers_low_energy(self, l4_swap):
        # squared-distance costs: 0-1-2-3 costs 3, direct costs 9
        m, route = shortest_path_propagate(l4_swap, "s0", "s3")
        assert route == ("s0", "s1", "s2", "s3")
        assert list(m.indices) == [0, 1]

    def test_shortest_tie_breaks_on_path_tuple(self):
        # two exactly tied routes 0-1-3 and 0-2-3; the lexicographically
        # smaller vertex sequence must win
        D = np.array(
            [
                [0.0, 1.0, 1.0, 2.0],
                [1.0, 0.0, 1.5, 1.0],
                [1.0, 1.5, 0.0, 1.0],
                [2.0, 1.0, 1.0, 0.0],
            ]
        )
        coll = build_l4()
        coll = type(coll)(shapes=coll.shapes, D=D, maps=coll.maps)
        m, route = shortest_path_propagate(coll, "s0", "s3")
        assert route == ("s0", "s1", "s3")

    def test_epsilon_prunes_to_disconnection(self, l4_identity):
        with pytest.raises(DisconnectedGraphError):
            shortest_path_propagate(l4_identity, "s0", "s3", epsilon=0.5)

    def test_epsilon_keeps_boundary_edges(self, l4_identity):
        m, route = shortest_path_propagate(l4_identity, "s0", "s3", epsilon=1.0)
        assert route == ("s0", "s1", "s2", "s3")

    def test_compose_along_identity_route(self, l4_identity):
        m = compose_along(l4_identity, ("s0", "s2", "s3"))
        assert list(m.indices) == [0, 1]

    def test_compose_along_matches_manual_composition(self, l4_swap):
        m = compose_along(l4_swap, ["s0", "s1", "s3"])
        # identity into s1, then the swapping map into s3
        assert list(m.indices) == [1, 0]
        direct = compose_along(l4_swap, ["s0", "s3"])
        assert list(direct.indices) == [0, 1]

    @pytest.mark.parametrize("soft_maps", [False, True], ids=["discrete", "soft"])
    def test_single_chain_rows_equal_the_route_composite(self, soft_maps):
        # at lambda exp(-4) only the chain s0-s1-s2-s3 (energy 3) is kept:
        # every other chain has energy 5 or more, and strict drops the direct one
        coll = _soft_l4(seed=7) if soft_maps else build_l4(swapped_pair=(1, 2))
        n = coll.shape("s0").n
        soft = propagate_soft(
            coll, "s0", "s3", lam=np.exp(-4), strict=True, source_points=range(n)
        )
        assert soft.path_count == 1
        rows = np.zeros((n, n))
        rows[np.repeat(soft.queries, np.diff(soft.indptr)), soft.indices] = soft.data
        route = compose_along(coll, ["s0", "s1", "s2", "s3"])
        if soft_maps:
            assert np.abs(rows - route.matrix.toarray()).max() <= 1e-12
        else:
            assert np.array_equal(rows, np.eye(n)[route.indices])

    def test_compose_along_single_shape(self, l4_identity):
        m = compose_along(l4_identity, ("s1",))
        assert list(m.indices) == [0, 1]
        assert m.source_id == "s1" and m.target_id == "s1"
