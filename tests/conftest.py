import os
from collections import deque

import numpy as np
import pytest

import corrsync.collection as collection_mod
from corrsync.collection import CorrespondenceMap, Shape, ShapeCollection
from corrsync.soft import SoftCorrespondence


def line_distances(coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    return np.abs(coords[:, None] - coords[None, :])


def two_point_shape(shape_id: str) -> Shape:
    return Shape(id=shape_id, points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def build_l4(swapped_pair=None) -> ShapeCollection:
    """Four 2-point shapes at positions 0,1,2,3 on a line.

    All pairwise maps are identity except the ordered pair in ``swapped_pair``
    (and its reverse), which swap the two points.
    """
    coords = [0.0, 1.0, 2.0, 3.0]
    shapes = [two_point_shape(f"s{k}") for k in range(4)]
    ident = np.array([0, 1])
    swap = np.array([1, 0])
    swapped = set()
    if swapped_pair is not None:
        a, b = swapped_pair
        swapped = {(a, b), (b, a)}
    maps = {}
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            arr = swap if (a, b) in swapped else ident
            maps[(f"s{a}", f"s{b}")] = CorrespondenceMap(
                f"s{a}", f"s{b}", "discrete", indices=arr.copy(), target_size=2
            )
    return ShapeCollection(shapes=shapes, D=line_distances(coords), maps=maps)


def permutation_collection(perms, D=None) -> ShapeCollection:
    """Shapes are index sets; map a->b is perms[b] o perms[a]^{-1}."""
    n = len(perms[0])
    pts = np.c_[np.arange(n, dtype=float), np.zeros(n), np.zeros(n)]
    shapes = [Shape(id=f"p{k}", points=pts.copy()) for k in range(len(perms))]
    if D is None:
        idx = np.arange(len(perms), dtype=float)
        D = np.abs(idx[:, None] - idx[None, :])
    maps = {}
    for a, pa in enumerate(perms):
        inv_a = np.argsort(pa)
        for b, pb in enumerate(perms):
            if a == b:
                continue
            maps[(f"p{a}", f"p{b}")] = CorrespondenceMap(
                f"p{a}", f"p{b}", "discrete", indices=pb[inv_a], target_size=n
            )
    return ShapeCollection(shapes=shapes, D=np.asarray(D, dtype=float), maps=maps)


def push_row(m: CorrespondenceMap, row: dict[int, float]) -> dict[int, float]:
    """Push a sparse distribution over source vertices forward through a map,
    one source vertex at a time: the per-chain reference for propagate_soft."""
    out: dict[int, float] = {}
    if m.kind == "discrete":
        for v, mass in row.items():
            t = int(m.indices[v])
            out[t] = out.get(t, 0.0) + mass
        return out
    mat = m.matrix
    for v, mass in row.items():
        start, stop = mat.indptr[v], mat.indptr[v + 1]
        for t, p in zip(mat.indices[start:stop], mat.data[start:stop]):
            t = int(t)
            out[t] = out.get(t, 0.0) + mass * float(p)
    return out


def soft_from_rows(rows: dict[int, dict[int, float]], source="a", target="b") -> SoftCorrespondence:
    """A SoftCorrespondence holding the given rows, queried in key order, each
    row's targets ascending; the masses are stored as given, unchecked."""
    counts = [len(row) for row in rows.values()]
    targets = [t for row in rows.values() for t in sorted(row)]
    masses = [row[t] for row in rows.values() for t in sorted(row)]
    return SoftCorrespondence(
        source, target,
        queries=np.array(list(rows), dtype=np.int64),
        indptr=np.cumsum([0] + counts),
        indices=np.array(targets, dtype=np.int64),
        data=np.array(masses, dtype=float),
        path_count=1,
    )


def tree_path(edges, i, j) -> tuple[int, ...]:
    """The path from i to j in the tree with these (a, b) edges, found by BFS."""
    neighbors: dict[int, list[int]] = {}
    for a, b in edges:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    parent = {i: i}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for u in neighbors.get(v, []):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def random_euclidean_distances(rng, n, dim=3):
    pts = rng.normal(size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@pytest.fixture
def l4_identity():
    return build_l4()


@pytest.fixture
def l4_swap():
    return build_l4(swapped_pair=(1, 3))


@pytest.fixture
def t3_distances():
    # only the direct edge is admissible for pair (0, 2): the lone candidate
    # intermediate sits at distance 1 from the source but 1.9 from the target
    return np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.9], [1.0, 1.9, 0.0]])


@pytest.fixture
def map_reads(monkeypatch):
    """The (source, target) of every map file read, in read order."""
    calls = []
    real = collection_mod._read_map

    def counted(path, src, tgt, n_src, n_tgt):
        calls.append((src, tgt))
        return real(path, src, tgt, n_src, n_tgt)

    monkeypatch.setattr(collection_mod, "_read_map", counted)
    return calls


@pytest.fixture
def shape_reads(monkeypatch):
    """The file name of every shape points or scalar-field file parsed, in parse order."""
    calls = []
    real = collection_mod.ShapeFile.read

    def counted(self, ndmin):
        calls.append(os.path.basename(self.path))
        return real(self, ndmin)

    monkeypatch.setattr(collection_mod.ShapeFile, "read", counted)
    return calls
