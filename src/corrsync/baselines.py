"""Reference propagation strategies that route through a single composition path.

All three return a full composite map plus the shape-id route used:
direct uses the stored pairwise map; mst and shortest_path compose along the
route that one search finds, the least-energy route over a boolean edge mask
(ties to the smallest vertex tuple). mst's mask is the minimum spanning
tree's edges, shortest_path's the edges no longer than epsilon.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .collection import CorrespondenceMap, ShapeCollection, _clean_soft
from .errors import DisconnectedGraphError, check_real

# the methods a benchmark compares: the three single routes of this module,
# then the two hard extractions of corrsync.soft's propagated rows
METHODS = ("direct", "mst", "shortest", "frechet", "mle")


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_mst(D: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Minimum spanning tree as its sorted (a, b) edges, a < b; equal-length
    edges resolve by lowest (a, b) pair."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    edges = sorted((float(D[a, b]), a, b) for a in range(n) for b in range(a + 1, n))
    uf = _UnionFind(n)
    chosen: list[tuple[int, int]] = []
    for d, a, b in edges:
        if uf.union(a, b):
            chosen.append((a, b))
            if len(chosen) == n - 1:
                break
    return tuple(sorted(chosen))


def spanning_tree(collection: ShapeCollection) -> tuple[tuple[int, int], ...]:
    """kruskal_mst of the collection's D, computed once per collection."""
    return collection.derived("kruskal_mst", lambda: kruskal_mst(collection.D))


def compose_along(collection: ShapeCollection, route) -> CorrespondenceMap:
    """Compose stored maps along a route of shape ids.

    Every source vertex is pushed along the route as propagate_soft pushes a
    query block along a chain. A soft result is pruned and renormalized once.
    """
    source, target = route[0], route[-1]
    image = np.arange(collection.shape(source).n)
    for a, b in zip(route, route[1:]):
        image = collection.map(a, b).push(image)
    if isinstance(image, np.ndarray):
        return CorrespondenceMap(
            source, target, "discrete", indices=image, target_size=collection.shape(target).n
        )
    return CorrespondenceMap(source, target, "soft", matrix=_clean_soft(image))


def direct_propagate(collection: ShapeCollection, source_id: str, target_id: str) -> CorrespondenceMap:
    """The stored pairwise map itself; identity when source and target coincide."""
    return collection.map(source_id, target_id)


def mst_propagate(
    collection: ShapeCollection, source_id: str, target_id: str
) -> tuple[CorrespondenceMap, tuple[str, ...]]:
    """Compose along the minimum-spanning-tree path between the two shapes:
    the route search over the tree's edges, which join each pair by one path."""
    tree = np.zeros((collection.n, collection.n), dtype=bool)
    for a, b in spanning_tree(collection):
        tree[a, b] = tree[b, a] = True
    i, j = collection.index(source_id), collection.index(target_id)
    path = _lexicographic_dijkstra(collection.D, i, j, tree)
    route = tuple(collection.ids[v] for v in path)
    return compose_along(collection, route), route


def min_connecting_epsilon(D: np.ndarray, tree=None) -> float:
    """Smallest pruning threshold that keeps the graph connected.

    Equals the longest MST edge: below it the two sides of that edge separate,
    at it the whole graph is joined. A single shape is joined at 0. tree is
    kruskal_mst(D), when the caller has it.
    """
    D = np.asarray(D, dtype=float)
    return max((float(D[a, b]) for a, b in (kruskal_mst(D) if tree is None else tree)), default=0.0)


def check_epsilon(epsilon) -> None:
    """A pruning threshold must be None, inf, or a finite number >= 0;
    anything else raises InvalidValueError naming epsilon."""
    if epsilon is not None and not (isinstance(epsilon, float) and epsilon == math.inf):
        check_real(epsilon, "epsilon", 0)


def shortest_path_propagate(
    collection: ShapeCollection,
    source_id: str,
    target_id: str,
    epsilon: float | None = None,
) -> tuple[CorrespondenceMap, tuple[str, ...]]:
    """Compose along the minimum sum-of-squared-distance route after pruning.

    The route search runs over the edges no longer than epsilon; epsilon
    defaults to the smallest value keeping the graph connected, and a given
    one must be a finite number >= 0 or inf, which keeps every edge. Among
    equal-cost routes the lexicographically smallest vertex sequence wins.
    """
    D = collection.D
    check_epsilon(epsilon)
    if epsilon is None:
        epsilon = min_connecting_epsilon(D, spanning_tree(collection))
    i, j = collection.index(source_id), collection.index(target_id)
    allowed = D <= epsilon
    path = _lexicographic_dijkstra(D, i, j, allowed)
    if path is None:
        raise DisconnectedGraphError(
            f"no route {i} -> {j} with edges <= {epsilon}; "
            f"components: {_components(allowed)}"
        )
    route = tuple(collection.ids[v] for v in path)
    return compose_along(collection, route), route


def _lexicographic_dijkstra(
    D: np.ndarray, i: int, j: int, allowed: np.ndarray
) -> tuple[int, ...] | None:
    """The least-energy route from i to j, energy being the sum of squared
    edge lengths, that steps only along the edges the boolean mask allowed
    permits; ties go to the smallest vertex tuple. None when j is unreachable."""
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (i,))]
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        v = path[-1]
        if v in settled:
            continue
        settled.add(v)
        if v == j:
            return path
        for u in np.flatnonzero(allowed[v]).tolist():
            if u not in settled:
                heapq.heappush(heap, (cost + float(D[v, u]) ** 2, path + (u,)))
    return None


def _components(allowed: np.ndarray) -> list[list[int]]:
    """The connected components of the edge mask allowed, each sorted."""
    uf = _UnionFind(len(allowed))
    for a, b in np.argwhere(allowed).tolist():
        uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for v in range(len(allowed)):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())
