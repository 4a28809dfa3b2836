"""Reference propagation strategies that route through a single composition path.

All three return a full composite map plus the shape-id route used:
direct uses the stored pairwise map, mst composes along the minimum spanning
tree path, shortest_path composes along the minimum-energy route of a
distance-pruned graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .collection import CorrespondenceMap, ShapeCollection, _clean_soft
from .errors import DisconnectedGraphError, check_real

# the methods a benchmark compares: the three single routes of this module,
# then the two hard extractions of corrsync.soft's propagated rows
METHODS = ("direct", "mst", "shortest", "frechet", "mle")


@dataclass(frozen=True)
class TreeStructure:
    """Spanning tree as a sorted edge list plus adjacency lists."""

    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    def path(self, i: int, j: int) -> tuple[int, ...]:
        """Unique tree path from i to j (inclusive)."""
        n = len(self.adjacency)
        parent = [-2] * n
        parent[i] = -1
        stack = [i]
        while stack:
            v = stack.pop()
            if v == j:
                break
            for u in self.adjacency[v]:
                if parent[u] == -2:
                    parent[u] = v
                    stack.append(u)
        if parent[j] == -2:
            raise DisconnectedGraphError(f"tree does not connect {i} and {j}")
        out = [j]
        while out[-1] != i:
            out.append(parent[out[-1]])
        out.reverse()
        return tuple(out)


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


def kruskal_mst(D: np.ndarray) -> TreeStructure:
    """Minimum spanning tree; equal-length edges resolve by lowest (i, j) pair."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    edges = sorted(
        ((float(D[a, b]), a, b) for a in range(n) for b in range(a + 1, n)),
        key=lambda e: (e[0], e[1], e[2]),
    )
    uf = _UnionFind(n)
    chosen: list[tuple[int, int]] = []
    for d, a, b in edges:
        if uf.union(a, b):
            chosen.append((a, b))
            if len(chosen) == n - 1:
                break
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in chosen:
        adj[a].append(b)
        adj[b].append(a)
    return TreeStructure(
        edges=tuple(sorted(chosen)),
        adjacency=tuple(tuple(sorted(v)) for v in adj),
    )


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
    """Compose along the minimum-spanning-tree path between the two shapes."""
    tree = kruskal_mst(collection.D)
    path = tree.path(collection.index(source_id), collection.index(target_id))
    route = tuple(collection.ids[v] for v in path)
    return compose_along(collection, route), route


def min_connecting_epsilon(D: np.ndarray) -> float:
    """Smallest pruning threshold that keeps the graph connected.

    Equals the longest MST edge: below it the two sides of that edge separate,
    at it the whole graph is joined.
    """
    D = np.asarray(D, dtype=float)
    tree = kruskal_mst(D)
    return max(float(D[a, b]) for a, b in tree.edges)


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

    Edges longer than epsilon are dropped first; epsilon defaults to the
    smallest value keeping the graph connected, and a given one must be a
    finite number >= 0 or inf, which keeps every edge. Among equal-cost
    routes the lexicographically smallest vertex sequence wins.
    """
    D = collection.D
    check_epsilon(epsilon)
    if epsilon is None:
        epsilon = min_connecting_epsilon(D)
    i = collection.index(source_id)
    j = collection.index(target_id)
    path = _lexicographic_dijkstra(D, i, j, epsilon)
    route = tuple(collection.ids[v] for v in path)
    return compose_along(collection, route), route


def _lexicographic_dijkstra(D: np.ndarray, i: int, j: int, epsilon: float) -> tuple[int, ...]:
    n = D.shape[0]
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
        for u in range(n):
            if u in settled or u == v or D[v, u] > epsilon:
                continue
            heapq.heappush(heap, (cost + float(D[v, u]) ** 2, path + (u,)))
    comps = _threshold_components(D, epsilon)
    raise DisconnectedGraphError(
        f"no route {i} -> {j} with edges <= {epsilon}; components: {comps}"
    )


def _threshold_components(D: np.ndarray, epsilon: float) -> list[list[int]]:
    n = D.shape[0]
    uf = _UnionFind(n)
    for a in range(n):
        for b in range(a + 1, n):
            if D[a, b] <= epsilon:
                uf.union(a, b)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())
