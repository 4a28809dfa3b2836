"""Shape collections: point clouds, pairwise maps, the inter-shape distance matrix,
and per-shape geodesic queries.

A collection is loaded from a JSON manifest and treated as immutable afterwards.
Maps are stored per ordered pair and never inverted implicitly: the file
``<target>__<source>.csv`` holds the map from ``source`` to ``target``, and the
in-memory table is keyed ``(source_id, target_id)``.

A collection built in memory holds its arrays and maps as given and checks them
all when it is constructed. A loaded one parses a file when it is first used:
each Shape holds ``ShapeFile``s for its points and scalar field, and the maps
are a ``MapFiles`` table, so a command parses only the files it uses.
"""

from __future__ import annotations

import errno
import functools
import itertools
import json
import os
import threading
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DuplicateShapeError,
    IndexRangeError,
    InvalidValueError,
    InverseViolationError,
    ManifestError,
    MetricAsymmetryError,
    MissingMapError,
    SoftRowError,
    check_integer,
    check_real,
)

# neighbors per vertex in the k-NN graph of a geodesic oracle
KNN_DEFAULT = 8
SOFT_PRUNE = 1e-12
SOFT_ROW_TOL = 1e-9
SYMMETRY_TOL = 1e-12


def __getattr__(name: str):
    # scipy.sparse and csgraph are imported on first access (PEP 562), so work on
    # discrete maps never loads them; once imported they are plain module
    # attributes, and one that was set from outside stays as it is
    if name not in ("sparse", "csgraph"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import sparse
    from scipy.sparse import csgraph

    globals().setdefault("sparse", sparse)
    globals().setdefault("csgraph", csgraph)
    return globals()[name]


def _scipy(name: str):
    """The module attribute ``sparse`` or ``csgraph``, imported on first use."""
    scope = globals()
    return scope[name] if name in scope else __getattr__(name)


@dataclass(frozen=True)
class ShapeFile:
    """A loaded shape's points or scalar-field file. ``rows`` is a points
    file's data-row count, counted at load."""

    path: str
    rows: int | None = None

    def read(self, ndmin: int) -> np.ndarray:
        return _load_table(self.path, ndmin=ndmin)


class _ReadOnce:
    """Values made on first use, one per key, safe to share across threads.

    The first ``get`` of a key calls ``make()`` under this cache's own lock
    and keeps its value; a ``make`` that raises keeps nothing. Building an
    oracle reads its shape's points through the shape's cache, so no two
    caches share a lock.
    """

    def __init__(self):
        self.made: dict = {}
        self._lock = threading.Lock()

    def get(self, key, make):
        if key not in self.made:
            with self._lock:
                if key not in self.made:
                    self.made[key] = make()
        return self.made[key]


class _ReadOnFirstAccess:
    """A Shape array field that may hold a ShapeFile instead of an array.

    The field's first read parses the file, once, through the shape's
    read-once cache, and checks the array as one given directly is checked.
    A file that fails raises ManifestError naming it.
    """

    def __init__(self, ndmin: int, optional: bool = False):
        self.ndmin = ndmin
        self.optional = optional

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, shape, owner=None):
        if shape is None:
            # the dataclass default: None, or no default for a required field
            if self.optional:
                return None
            raise AttributeError(self.name)
        value = vars(shape)[self.name]
        if not isinstance(value, ShapeFile):
            return value
        return shape._parsed.get(self.name, lambda: shape._checked(self.name, value.read(self.ndmin)))

    def __set__(self, shape, value) -> None:
        vars(shape)[self.name] = value


@dataclass
class Shape:
    """One shape: an (n, 3) point cloud plus optional annotations.

    landmark_indices are distinguished vertices, ground_truth maps string labels
    to vertex indices, scalar_field holds one value per vertex. points and
    scalar_field may each be given a ShapeFile instead of an array: n is then
    the points file's counted rows, and each file is parsed when its field is
    first read.
    """

    id: str
    points: np.ndarray = _ReadOnFirstAccess(ndmin=2)
    landmark_indices: tuple[int, ...] | None = None
    ground_truth: dict[str, int] | None = None
    scalar_field: np.ndarray | None = _ReadOnFirstAccess(ndmin=1, optional=True)

    def __post_init__(self) -> None:
        # ids become file names (<id>.xyz, <target>__<source>.csv); an id
        # starting or ending with "_" would make that pair name ambiguous too
        if (
            not isinstance(self.id, str)
            or not self.id
            or self.id.strip("_") != self.id
            or any(bad in self.id for bad in ("/", "\\", "..", "__"))
        ):
            raise ManifestError(
                f"invalid shape id {self.id!r}: ids must be non-empty, contain no "
                "path separator, '..' or '__', and not start or end with '_'"
            )
        self._parsed = _ReadOnce()
        points = vars(self)["points"]
        if isinstance(points, ShapeFile):
            self._n = points.rows
        else:
            points = np.asarray(points, dtype=float)
            self._n = points.shape[0] if points.ndim else 0
            self.points = self._checked("points", points)
        if self.n < 2:
            raise ManifestError(f"{self._where('points')}: needs at least 2 points")
        if self.landmark_indices is not None:
            self.landmark_indices = tuple(self.check_vertices(self.landmark_indices, "landmark index").tolist())
        if self.ground_truth is not None:
            self.ground_truth = {
                label: int(self.check_vertices([idx], f"ground truth {label!r} index")[0])
                for label, idx in self.ground_truth.items()
            }
        field = vars(self)["scalar_field"]
        if field is not None and not isinstance(field, ShapeFile):
            self.scalar_field = self._checked("scalar_field", field)

    @property
    def n(self) -> int:
        return self._n

    def _where(self, name: str) -> str:
        held = vars(self)[name]
        if isinstance(held, ShapeFile):
            return f"file {held.path}: shape {self.id!r}"
        return f"shape {self.id!r}"

    def _checked(self, name: str, value) -> np.ndarray:
        """value as a float array, checked as field ``name`` of this shape:
        points (n, 3), a scalar field one value per point, all finite."""
        value = np.asarray(value, dtype=float)
        want = (self.n, 3) if name == "points" else (self.n,)
        if value.shape != want:
            raise ManifestError(
                f"{self._where(name)}: {name} must have shape {want}, got {value.shape}"
            )
        if not np.isfinite(value).all():
            r = int(np.argwhere(~np.isfinite(value))[0, 0])
            raise ManifestError(f"{self._where(name)}: {name} row {r} is not finite: {value[r]}")
        return value

    def check_vertices(self, vertices, what: str = "vertex") -> np.ndarray:
        """The vertices as one flat int64 array. A vertex is a Python or numpy
        integer in [0, n): a bool or a float, even an integral one, raises
        InvalidValueError, and an integer outside the shape IndexRangeError,
        naming the first such. An integer array is range-checked by its min
        and max; any other iterable item by item, as Python ints, so one
        beyond int64 is out of range rather than an overflow. Anything else,
        a scalar or a 0-d non-integer array, raises InvalidValueError."""
        if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu":
            idx = vertices.ravel()
            lo, hi = (idx.min(), idx.max()) if idx.size else (0, 0)
        else:
            named = f"shape {self.id!r}: {what}"
            try:
                items = iter(vertices)
            except TypeError:  # a scalar or a 0-d non-integer array
                raise InvalidValueError(
                    f"{named} set {vertices!r} is not an array or an iterable") from None
            idx = [v if type(v) is int else check_integer(v, named) for v in items]
            lo, hi = (min(idx), max(idx)) if idx else (0, 0)
        if lo < 0 or hi >= self.n:
            bad = next(v for v in idx if not 0 <= v < self.n)
            raise IndexRangeError(f"shape {self.id!r}: {what} {bad} out of range")
        return np.asarray(idx, dtype=np.int64)


@dataclass
class CorrespondenceMap:
    """Map from one shape's vertices to another's.

    Discrete: ``indices[v]`` is the image vertex. Soft: ``matrix`` is a sparse
    row-stochastic (n_source, n_target) matrix; each row is a distribution over
    image vertices.
    """

    source_id: str
    target_id: str
    kind: str
    indices: np.ndarray | None = None
    matrix: sparse.csr_matrix | None = None
    target_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            if self.indices is None or self.target_size is None:
                raise ManifestError("discrete map needs indices and target_size")
            indices = np.asarray(self.indices)
            if indices.dtype.kind not in "iu":
                raise ManifestError(f"discrete map indices must be integers, got {indices.dtype}")
            self.indices = indices.astype(np.int64, copy=False)
            if self.indices.ndim != 1:
                raise ManifestError("discrete map indices must be a vector")
            if self.indices.size and (
                self.indices.min() < 0 or self.indices.max() >= self.target_size
            ):
                raise IndexRangeError(
                    f"map {self.source_id!r}->{self.target_id!r}: "
                    f"target index out of range"
                )
        elif self.kind == "soft":
            if self.matrix is None:
                raise ManifestError("soft map needs a matrix")
            self.matrix = _scipy("sparse").csr_matrix(self.matrix)
            if (self.matrix.data < 0).any():
                raise SoftRowError(
                    f"map {self.source_id!r}->{self.target_id!r}: negative mass"
                )
            sums = np.asarray(self.matrix.sum(axis=1)).ravel()
            if not np.allclose(sums, 1.0, atol=SOFT_ROW_TOL, rtol=0):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise SoftRowError(
                    f"map {self.source_id!r}->{self.target_id!r}: row {bad} "
                    f"sums to {sums[bad]!r}"
                )
        else:
            raise ManifestError(f"unknown map kind {self.kind!r}")

    @property
    def n_source(self) -> int:
        if self.kind == "discrete":
            return int(self.indices.size)
        return self.matrix.shape[0]

    @property
    def n_target(self) -> int:
        if self.kind == "discrete":
            return int(self.target_size)
        return self.matrix.shape[1]

    def to_soft(self) -> sparse.csr_matrix:
        if self.kind == "soft":
            return self.matrix
        n, m = self.n_source, self.n_target
        data = np.ones(n)
        return _scipy("sparse").csr_matrix(
            (data, (np.arange(n), self.indices)), shape=(n, m)
        )

    def push(self, image):
        """Images of a block of source vertices one map further: a vertex array
        while every map so far was discrete, a sparse (rows x n_target) matrix
        after that."""
        if isinstance(image, np.ndarray):
            return self.indices[image] if self.kind == "discrete" else self.matrix[image]
        return image @ self.to_soft()

    def is_bijection(self) -> bool:
        if self.kind != "discrete" or self.n_source != self.n_target:
            return False
        return bool((np.bincount(self.indices, minlength=self.n_target) == 1).all())


def identity_map(shape_id: str, n: int, target_id: str | None = None) -> CorrespondenceMap:
    return CorrespondenceMap(
        source_id=shape_id,
        target_id=target_id if target_id is not None else shape_id,
        kind="discrete",
        indices=np.arange(n, dtype=np.int64),
        target_size=n,
    )


def _clean_soft(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """Drop per-row mass below the pruning floor and renormalize rows."""
    sparse = _scipy("sparse")
    mat = sparse.csr_matrix(mat)
    mat.data[mat.data < SOFT_PRUNE] = 0.0
    mat.eliminate_zeros()
    sums = np.asarray(mat.sum(axis=1)).ravel()
    if (sums <= 0).any():
        raise SoftRowError("soft row lost all mass during pruning")
    inv = sparse.diags(1.0 / sums)
    out = sparse.csr_matrix(inv @ mat)
    out.sort_indices()
    return out


# sources per csgraph.dijkstra call when missing rows are filled
_ROW_BLOCK = 64


class GeodesicOracle:
    """Geodesic distances within one shape via a symmetrized k-NN graph.

    Edges carry Euclidean length; queries are shortest-path distances. Every
    distance row computed is kept once, in one (capacity, n) float64 store
    with a vertex -> slot index. The store is filled and grown under a lock,
    so callers may share an oracle across threads.
    """

    def __init__(self, shape: Shape, k: int = KNN_DEFAULT):
        self.shape = shape
        self._store = np.empty((0, shape.n))
        self._slot = np.full(shape.n, -1, dtype=np.int64)
        self._filled = 0
        self._lock = threading.Lock()
        self._diameter: float | None = None
        self.graph = _build_neighbor_graph(shape, k)
        csgraph = _scipy("csgraph")
        n_comp, labels = csgraph.connected_components(self.graph, directed=False)
        if n_comp > 1:
            sizes = np.bincount(labels)
            detail = ", ".join(
                f"component {c}: {sizes[c]} vertices (e.g. {int(np.argmax(labels == c))})"
                for c in range(n_comp)
            )
            raise DisconnectedGraphError(
                f"shape {shape.id!r}: k={k} graph has {n_comp} components; {detail}"
            )

    @property
    def n(self) -> int:
        return self.shape.n

    def row_slots(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """(rows, slots): a read-only view of the row store, and the int64
        slot of each vertex's distance row, so rows[slots[i]] is the row of
        the i-th vertex.

        Every vertex is checked before any work. The missing rows are computed
        by Dijkstra in ascending vertex order, _ROW_BLOCK sources per call, each
        block written straight into its slots. The store grows geometrically
        up to n rows, under the lock, so the pair returned stays consistent:
        a later fill or growth never changes a row already in it.
        """
        return self._row_slots(self.shape.check_vertices(vertices))

    def _row_slots(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """row_slots of an int64 vertex array that check_vertices returned."""
        with self._lock:
            absent = self._slot[wanted] < 0
            missing = np.unique(wanted[absent]) if absent.any() else wanted[:0]
            need = self._filled + missing.size
            if need > len(self._store):
                grown = np.empty((min(self.n, max(need, 2 * len(self._store))), self.n))
                grown[: self._filled] = self._store[: self._filled]
                self._store = grown
            for b in range(0, missing.size, _ROW_BLOCK):
                block, start = missing[b : b + _ROW_BLOCK], self._filled
                # the graph stores each edge in both directions with one length
                self._store[start : start + block.size] = _scipy("csgraph").dijkstra(
                    self.graph, directed=True, indices=block
                )
                self._slot[block] = np.arange(start, start + block.size)
                self._filled += block.size
            rows = self._store.view()
            slots = self._slot[wanted]
        rows.flags.writeable = False
        return rows, slots

    def distances(self, sources, targets) -> np.ndarray:
        """d(s, t) for sources and targets broadcast against each other, each
        read in place from the distance row of s. Each is a vertex array or a
        flat sequence of vertices, checked as given: every vertex is checked,
        and the missing rows filled, before any entry is read."""
        t = self.shape.check_vertices(targets).reshape(getattr(targets, "shape", -1))
        rows, slots = self.row_slots(sources)
        return rows[slots.reshape(getattr(sources, "shape", -1)), t]

    def distance_rows(self, vertices) -> np.ndarray:
        """(len(vertices), n) array: a copy of the geodesic distance row of each vertex."""
        rows, slots = self.row_slots(vertices)
        return rows[slots]

    def distances_from(self, v: int) -> np.ndarray:
        return self.distance_rows([v])[0]

    def diameter(self) -> float:
        """Geodesic diameter by a deterministic double sweep from vertex 0."""
        if self._diameter is None:
            a = int(np.argmax(self.distances_from(0)))
            self._diameter = float(self.distances_from(a).max())
        return self._diameter


# KD-tree candidates per vertex beyond its k nearest; a vertex whose k-th
# neighbour ties the farthest candidate is queried again with twice as many
_KNN_SLACK = 2


def _build_neighbor_graph(shape: Shape, k: int) -> sparse.csr_matrix:
    k = check_integer(k, f"shape {shape.id!r}: k", 1)
    pts = shape.points
    n = pts.shape[0]
    k_eff = min(k, n - 1)
    rows = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    cols = _nearest_neighbors(pts, k_eff).ravel()
    # symmetric edge set, sorted by (row, col)
    keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    rows_arr, cols_arr = keys // n, keys % n
    lengths = np.linalg.norm(pts[rows_arr] - pts[cols_arr], axis=1)
    # sparse graph routines read 0 as "no edge"; keep coincident points connected
    lengths = np.maximum(lengths, 1e-300)
    return _scipy("sparse").csr_matrix((lengths, (rows_arr, cols_arr)), shape=(n, n))


def _nearest_neighbors(pts: np.ndarray, k: int) -> np.ndarray:
    """(n, k) array: each vertex's k nearest other vertices by (distance, index).

    Exact ties resolve to the lowest index, as a full sort of every row would.
    """
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    tree = cKDTree(pts)
    out = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)
    q = min(n, k + 1 + _KNN_SLACK)
    while todo.size:
        dist, idx = tree.query(pts[todo], k=q)
        farthest = dist[:, -1].copy()
        dist[idx == todo[:, None]] = np.inf
        order = np.lexsort((idx, dist), axis=1)[:, :k]
        picked = np.take_along_axis(idx, order, axis=1)
        kth = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
        # a vertex left out of the query may tie the k-th distance at a lower index
        wide = (kth >= farthest) & (q < n)
        out[todo[~wide]] = picked[~wide]
        todo = todo[wide]
        q = min(n, 2 * q)
    return out


def intra_metric(shape: Shape, k: int = KNN_DEFAULT) -> GeodesicOracle:
    """Build the geodesic oracle for a shape over its k-NN graph."""
    return GeodesicOracle(shape, k=k)


@dataclass
class ShapeCollection:
    """Shapes plus the symmetric inter-shape distance matrix D and pairwise maps.

    Treated as immutable after construction; derived structures (oracles,
    dijkstra rows) are cached under locks, so callers may share a collection
    across threads. ``maps`` is admitted here map by map, unless it is a
    MapFiles table made for these shapes, which admits each map on reading it.
    """

    shapes: list[Shape]
    D: np.ndarray
    maps: Mapping[tuple[str, str], CorrespondenceMap]
    beta: float = 1.0
    allow_duplicates: bool = False

    def __post_init__(self) -> None:
        self.D = np.asarray(self.D, dtype=float)
        n = len(self.shapes)
        ids = [s.id for s in self.shapes]
        if len(set(ids)) != n:
            raise ManifestError("duplicate shape ids")
        if self.D.shape != (n, n):
            raise ManifestError(f"distance matrix shape {self.D.shape} != ({n}, {n})")
        bad = np.argwhere(~np.isfinite(self.D))
        if bad.size:
            r, c = (int(x) for x in bad[0])
            raise MetricAsymmetryError(
                f"non-finite inter-shape distance {self.D[r, c]!r} at ({r}, {c})"
            )
        if (self.D < 0).any():
            raise MetricAsymmetryError("negative inter-shape distance")
        if np.abs(self.D - self.D.T).max(initial=0.0) > SYMMETRY_TOL:
            raise MetricAsymmetryError(
                f"distance matrix asymmetric beyond {SYMMETRY_TOL}"
            )
        if np.diagonal(self.D).any():
            raise MetricAsymmetryError("distance matrix diagonal must be exactly zero")
        off = self.D[~np.eye(n, dtype=bool)]
        if off.size and off.min() <= 0 and not self.allow_duplicates:
            raise DuplicateShapeError(
                "two shapes at distance zero; pass allow_duplicates/--allow-duplicates"
            )
        check_real(self.beta, "beta", 0, strict=True)
        self._index = {sid: i for i, sid in enumerate(ids)}
        self._derived = _ReadOnce()
        sizes = {s.id: s.n for s in self.shapes}
        if not (isinstance(self.maps, MapFiles) and self.maps.sizes == sizes):
            admitted: dict[tuple[str, str], CorrespondenceMap] = {}
            for key, m in self.maps.items():
                admitted[key] = _admit(key, m, sizes, admitted)

    @property
    def n(self) -> int:
        return len(self.shapes)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.shapes]

    def index(self, shape_id: str) -> int:
        try:
            return self._index[shape_id]
        except KeyError:
            raise ManifestError(f"unknown shape id {shape_id!r}") from None

    def shape(self, shape_id: str) -> Shape:
        return self.shapes[self.index(shape_id)]

    def map(self, source_id: str, target_id: str) -> CorrespondenceMap:
        if source_id == target_id:
            return identity_map(source_id, self.shape(source_id).n)
        try:
            return self.maps[(source_id, target_id)]
        except KeyError:
            raise MissingMapError(
                f"no stored map {source_id!r} -> {target_id!r}"
            ) from None

    def oracle(self, shape_id: str, k: int = KNN_DEFAULT) -> GeodesicOracle:
        # checked before the cache, where 8.0 and True would find the oracles of 8 and 1
        k = check_integer(k, f"shape {shape_id!r}: k", 1)
        return self.derived((shape_id, k), lambda: intra_metric(self.shape(shape_id), k=k))

    def derived(self, key, make):
        """make()'s value, made on the first call with this key and kept: the
        geodesic oracles, keyed (shape id, k), and what the baselines derive
        from D."""
        return self._derived.get(key, make)


def _check_map(key: tuple[str, str], m: CorrespondenceMap, sizes: dict[str, int]) -> None:
    """A table entry's key names two shapes of the collection, its map carries
    that key's labels, and the map is sized by the two shapes' point counts."""
    src, tgt = key
    if src not in sizes or tgt not in sizes:
        raise ManifestError(f"map for unknown pair ({src!r}, {tgt!r})")
    if (m.source_id, m.target_id) != (src, tgt):
        raise ManifestError(f"map table key ({src!r}, {tgt!r}) mislabeled")
    if m.n_source != sizes[src] or m.n_target != sizes[tgt]:
        raise IndexRangeError(
            f"map {src!r}->{tgt!r} sized {m.n_source}x{m.n_target}, "
            f"shapes have {sizes[src]} and {sizes[tgt]} points"
        )


def _admit(key: tuple[str, str], m: CorrespondenceMap, sizes: dict[str, int],
           admitted: Mapping) -> CorrespondenceMap:
    """m, checked as the map of ``key`` by _check_map and, if the reverse direction
    is in ``admitted`` and both are discrete bijections, as its mutual inverse."""
    _check_map(key, m, sizes)
    rev = admitted.get(key[::-1])
    # one gather per pair; only a pair not composing to the identity pays the bijection tests
    if (rev is not None and rev.kind == m.kind == "discrete"
            and m.indices[rev.indices].tobytes() != _identity_bytes(rev.n_source)
            and rev.is_bijection() and m.is_bijection()):
        raise InverseViolationError(
            f"maps {rev.source_id!r}<->{rev.target_id!r} are bijections "
            "but not mutual inverses"
        )
    return m


@functools.lru_cache(maxsize=None)
def _identity_bytes(n: int) -> bytes:
    """The bytes of the int64 vector arange(n), made once per size."""
    return np.arange(n, dtype=np.int64).tobytes()


class MapFiles(Mapping):
    """The map table of a loaded collection, keyed ``(source_id, target_id)``.

    Its keys are the pairs whose map file exists. A file is read when its map
    is first accessed, once, through a read-once cache, and the map is
    admitted as ShapeCollection admits each map of an in-memory table. A file
    that fails is not kept, so every access to it raises. ``values()`` and
    ``items()`` read every file.
    """

    def __init__(self, paths: dict[tuple[str, str], str], sizes: dict[str, int]):
        self._paths = paths
        self.sizes = sizes
        self._read = _ReadOnce()

    def __getitem__(self, key: tuple[str, str]) -> CorrespondenceMap:
        return self._read.get(key, lambda: self._admit_file(key))

    def _admit_file(self, key: tuple[str, str]) -> CorrespondenceMap:
        path = self._paths[key]
        src, tgt = key
        m = _read_map(path, src, tgt, self.sizes[src], self.sizes[tgt])
        return _admit(key, m, self.sizes, self._read.made)

    def __contains__(self, key) -> bool:
        return key in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


# ---------------------------------------------------------------------------
# manifest I/O


def _fmt(x: float) -> str:
    return repr(float(x))


def _indices(value) -> list[int]:
    """Vertex indices read from a manifest: a JSON list of integers."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [check_integer(i, "vertex") for i in value]


def _field(value, convert, where: str, name: str):
    """``convert(value)``; a value it cannot take raises ManifestError naming the field."""
    try:
        return convert(value)
    except (AttributeError, OverflowError, TypeError, ValueError):
        raise ManifestError(f"{where}: invalid {name!r}: {value!r}") from None


def _load_table(path: str, **kwargs) -> np.ndarray:
    try:
        return np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise ManifestError(f"file {path}: {exc}") from None


def _count_rows(path: str) -> int:
    """The number of rows np.loadtxt(path) reads, counted without parsing a
    number: a line, split at universal newlines, is a row when it has a
    non-whitespace character before any ``#``."""
    try:
        # np.loadtxt opens a file name in text mode with the default encoding
        with open(path) as fh:
            text = fh.read()
    except ValueError as exc:
        raise ManifestError(f"file {path}: {exc}") from None
    lines = text.split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return sum(map(bool, map(str.strip, lines)))


def load_collection(manifest_path: str, allow_duplicates: bool = False) -> ShapeCollection:
    """Load a collection from a manifest JSON file.

    The manifest references a points file per shape, a distances CSV, and a map
    directory; all paths are resolved relative to the manifest's directory. A
    field that is missing or cannot be read raises ManifestError naming it, and
    the shape it belongs to.

    Shape files are only counted here: a points file's data rows give the
    shape's point count, and fewer than 2 raise ManifestError naming the file.
    A points or scalar-field file is parsed and checked when its Shape field
    is first read, so a malformed file raises from that read, and one that is
    never read raises nothing.

    The map directory is only listed here: its ``<target>__<source>.csv``
    files for two distinct shape ids of the manifest become the keys of a
    MapFiles table, and every other file in it is ignored. Each map file is
    read and checked when its map is first accessed, in the same way.
    """
    manifest_path = os.path.abspath(manifest_path)
    if not os.path.exists(manifest_path):
        raise ManifestError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # JSON text is UTF-8, so undecodable bytes are invalid JSON too
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc

    def resolve(rel, where: str, name: str) -> str:
        path = _field(rel, lambda r: os.path.join(base, r), where, name)
        if not os.path.exists(path):
            raise ManifestError(f"referenced file not found: {path}")
        return path

    if not isinstance(doc, dict) or not {"shapes", "distances_file", "maps_dir"} <= doc.keys():
        raise ManifestError("manifest requires shapes, distances_file, maps_dir")
    if not isinstance(doc["shapes"], list):
        raise ManifestError(f"manifest: invalid 'shapes': {doc['shapes']!r}")
    beta = _field(doc.get("beta", 1.0), lambda b: check_real(b, "beta", 0, strict=True),
                  "manifest", "beta")

    shapes: list[Shape] = []
    for pos, entry in enumerate(doc["shapes"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ManifestError(f"shape entry {pos}: expected an object with an 'id'")
        where = f"shape {entry['id']!r}"
        if "points_file" not in entry:
            raise ManifestError(f"{where}: missing 'points_file'")
        points_path = resolve(entry["points_file"], where, "points_file")
        field_file = None
        if entry.get("scalar_field_file"):
            field_file = ShapeFile(resolve(entry["scalar_field_file"], where, "scalar_field_file"))
        landmarks = entry.get("landmarks")
        if landmarks is not None:
            landmarks = _field(landmarks, _indices, where, "landmarks")
        truth = entry.get("ground_truth")
        if truth is not None:
            truth = _field(
                truth,
                lambda g: {str(k): check_integer(v, "vertex") for k, v in g.items()},
                where,
                "ground_truth",
            )
        shapes.append(
            Shape(
                id=str(entry["id"]),
                points=ShapeFile(points_path, _count_rows(points_path)),
                landmark_indices=landmarks,
                ground_truth=truth,
                scalar_field=field_file,
            )
        )

    D = _load_table(
        resolve(doc["distances_file"], "manifest", "distances_file"), delimiter=",", ndmin=2
    )
    maps_dir = _field(doc["maps_dir"], lambda r: os.path.join(base, r), "manifest", "maps_dir")
    if not os.path.isdir(maps_dir):
        raise ManifestError(f"maps directory not found: {maps_dir}")

    # one scan of the directory; a file is read when its map is first used
    listed = set(os.listdir(maps_dir))
    sizes = {s.id: s.n for s in shapes}
    paths: dict[tuple[str, str], str] = {}
    for tgt in sizes:
        for src in sizes:
            name = f"{tgt}__{src}.csv"
            if src != tgt and name in listed:
                paths[(src, tgt)] = os.path.join(maps_dir, name)

    return ShapeCollection(
        shapes=shapes,
        D=D,
        maps=MapFiles(paths, sizes),
        beta=beta,
        allow_duplicates=allow_duplicates,
    )


def _read_map(path: str, src: str, tgt: str, n_src: int, n_tgt: int) -> CorrespondenceMap:
    try:
        with warnings.catch_warnings():
            # an empty or comment-only file is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ManifestError(f"map file {path}: {exc}") from None
    if table.size == 0:
        raise ManifestError(f"empty map file: {path}")
    width = table.shape[1]
    if width not in (2, 3):
        raise ManifestError(f"map file {path}: expected 2 or 3 columns throughout")
    index_cols = table[:, :2]
    bad = ~(np.isfinite(index_cols) & (index_cols == np.floor(index_cols))).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ManifestError(
            f"map file {path}: non-integer index in row {r}: "
            + ",".join(_fmt(x) for x in table[r])
        )
    sources, targets = index_cols.T
    outside = (sources < 0) | (sources >= n_src) | (targets < 0) | (targets >= n_tgt)
    if outside.any():
        r = int(np.argmax(outside))
        raise IndexRangeError(
            f"map file {path}: index ({int(sources[r])},{int(targets[r])}) out of range"
        )
    sources = sources.astype(np.int64)
    targets = targets.astype(np.int64)
    if width == 2:
        counts = np.bincount(sources, minlength=n_src)
        if (counts > 1).any():
            dup = int(np.argmax(counts > 1))
            raise ManifestError(f"map file {path}: more than one row for source index {dup}")
        if (counts == 0).any():
            missing = int(np.argmin(counts))
            raise ManifestError(f"map file {path}: no row for source index {missing}")
        indices = np.empty(n_src, dtype=np.int64)
        indices[sources] = targets
        return CorrespondenceMap(
            source_id=src, target_id=tgt, kind="discrete",
            indices=indices, target_size=n_tgt,
        )
    mat = _scipy("sparse").csr_matrix((table[:, 2], (sources, targets)), shape=(n_src, n_tgt))
    covered = np.diff(mat.indptr) > 0
    if not covered.all():
        raise ManifestError(
            f"map file {path}: no mass for source index {int(np.argmin(covered))}"
        )
    return CorrespondenceMap(source_id=src, target_id=tgt, kind="soft", matrix=mat)


def atomic_write(outputs: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) of outputs through a temp file and a rename, all
    or none: two paths naming one file once their directories are resolved (a
    rename replaces a symlink, not its target) raise InvalidValueError, and every
    text is written, and every path checked not to be a directory, before the first
    rename, so a failure leaves no partial output and no file of the set. Files get
    mode 0o666 & ~umask, as open(path, "w") gives a new file, and an OSError names
    the requested path."""
    resolved: set[str] = set()
    realpath = functools.lru_cache(maxsize=None)(os.path.realpath)  # once per directory
    for path, _ in outputs:
        directory = realpath(os.path.dirname(os.path.abspath(path)))
        entry = os.path.join(directory, os.path.basename(path))
        if entry in resolved:
            raise InvalidValueError(f"two outputs name one file: {path!r}")
        resolved.add(entry)
    staged: list[str] = []
    try:
        for path, text in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            # a random name and O_EXCL in place of mkstemp, which makes the file 0600
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp)
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for (path, _), tmp in zip(outputs, staged):
            os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def map_csv(m: CorrespondenceMap) -> str:
    """A map in the map-file format: one ``source,target`` line per vertex of a
    discrete map, one ``source,target,mass`` line per stored entry of a soft one."""
    if m.kind == "discrete":
        return "".join((_cells(m.n_source)[0] + _cells(m.n_target)[1][m.indices]).tolist())
    mat = m.matrix
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)).tolist()
    entries = zip(rows, mat.indices.tolist(), mat.data.astype(float).tolist())
    return ("%d,%d,%r\n" * len(rows)) % tuple(itertools.chain.from_iterable(entries))


def _float_lines(a: np.ndarray, sep: str) -> str:
    """A 2-D array as one line per row of sep-joined entries, each the repr of
    its float, so every value reads back bit for bit."""
    a = np.asarray(a, dtype=float)
    return ((sep.join(["%r"] * a.shape[1]) + "\n") * a.shape[0]) % tuple(a.ravel().tolist())


@functools.lru_cache(maxsize=None)
def _cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The map-file cells ``"v,"`` and ``"v\\n"`` of each vertex v < n, as object arrays."""
    return tuple(np.array([f"{v}{end}" for v in range(n)], dtype=object) for end in ",\n")


def save_collection(collection: ShapeCollection, out_dir: str) -> str:
    """Write a collection in the manifest layout; returns the path of its manifest.json.

    Float serialization uses shortest round-trip representation, so
    load(save(c)) reproduces every array bit for bit. The files are written
    all or none, manifest.json last.
    """
    os.makedirs(os.path.join(out_dir, "maps"), exist_ok=True)
    files: list[tuple[str, str]] = []
    entries = []
    for s in collection.shapes:
        points_file = f"{s.id}.xyz"
        files.append((points_file, _float_lines(s.points, " ")))
        entry: dict = {"id": s.id, "points_file": points_file}
        if s.landmark_indices is not None:
            entry["landmarks"] = [int(i) for i in s.landmark_indices]
        if s.ground_truth is not None:
            entry["ground_truth"] = {k: int(v) for k, v in sorted(s.ground_truth.items())}
        if s.scalar_field is not None:
            field_file = f"{s.id}.field"
            files.append((field_file, _float_lines(np.reshape(s.scalar_field, (-1, 1)), "")))
            entry["scalar_field_file"] = field_file
        entries.append(entry)

    files.append(("distances.csv", _float_lines(collection.D, ",")))
    for (src, tgt), m in sorted(collection.maps.items()):
        files.append((os.path.join("maps", f"{tgt}__{src}.csv"), map_csv(m)))

    manifest = {
        "shapes": entries,
        "distances_file": "distances.csv",
        "maps_dir": "maps",
        "beta": collection.beta,
    }
    files.append(("manifest.json", json.dumps(manifest, indent=2) + "\n"))
    atomic_write([(os.path.join(out_dir, name), text) for name, text in files])
    return os.path.join(out_dir, "manifest.json")
