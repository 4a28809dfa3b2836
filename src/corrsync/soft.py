"""Soft correspondences by path-weighted forward propagation.

Every admissible flow path from shape i to shape j composes the stored pairwise
maps along its edges into one candidate map. Paths are weighted by the Gibbs
factor exp(-beta * E) and normalized into a distribution; pushing a source
vertex through every path and accumulating mass per target vertex yields a soft
row. Hard maps are extracted from rows either by the most likely vertex or by
the support-restricted Frechet mean under the target's geodesic metric.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .collection import CorrespondenceMap, GeodesicOracle, ShapeCollection
from .errors import EmptyPathSetError, MissingMapError, check_integer, check_real
from .flow import (
    MAX_PATHS_DEFAULT,
    ChainDag,
    ChainTrie,
    FlowMatrix,
    budget_error,
    chain_dag,
    directed_flow_matrix,
    enumerate_paths,
)

# the chain-weight threshold lambda used when a caller sets none
LAMBDA_DEFAULT = 0.978


# one soft row: its target vertices, ascending, and their masses
Row = tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class SoftCorrespondence:
    """Per-queried-vertex mass distributions over target vertices, as CSR arrays.

    Row k is the row of source vertex queries[k] (distinct, in first-seen
    order): its targets are indices[indptr[k]:indptr[k + 1]], ascending, and
    their masses sit at the same positions of data. path_count is the number
    of chains the rows were pushed through.
    """

    source_id: str
    target_id: str
    queries: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    path_count: int

    @property
    def rows(self) -> Mapping[int, dict[int, float]]:
        """Read-only view {query vertex: {target vertex: mass}}; each lookup builds one dict."""
        return _RowsView(self)

    @functools.cached_property
    def _position(self) -> dict[int, int]:
        return {v: k for k, v in enumerate(self.queries.tolist())}

    def row(self, v: int) -> Row:
        """Vertex v's row, as slices of indices and data. v is a Python or numpy
        integer: a bool or a float, even an integral one, raises InvalidValueError."""
        try:
            k = self._position[check_integer(v, "vertex")]
        except KeyError:
            raise KeyError(f"vertex {v} was not in the propagated query set") from None
        span = slice(self.indptr[k], self.indptr[k + 1])
        return self.indices[span], self.data[span]


class _RowsView(Mapping):
    def __init__(self, soft: SoftCorrespondence) -> None:
        self._soft = soft

    def __len__(self) -> int:
        return self._soft.queries.size

    def __iter__(self):
        return iter(self._soft.queries.tolist())

    def __getitem__(self, v) -> dict[int, float]:
        targets, masses = self._soft.row(v)
        return dict(zip(targets.tolist(), masses.tolist()))


def _edge_maps(
    collection: ShapeCollection, n: int, keys: np.ndarray
) -> dict[int, CorrespondenceMap]:
    """The stored map of every edge key a * n + b in keys, looked up once each
    in the order of keys. The keys of a trie's nodes meet its edges in chain
    order, so a missing map names the first edge met that needs it."""
    # each key's first position, found in numpy: a Python int per node would
    # leave a large trie's keys in the interpreter's memory pools
    met, first = np.unique(keys, return_index=True)
    ids = collection.ids
    maps = {}
    for key in met[np.argsort(first)].tolist():
        a, b = divmod(key, n)
        try:
            maps[key] = collection.map(ids[a], ids[b])
        except MissingMapError:
            raise MissingMapError(
                f"no stored map {ids[a]!r} -> {ids[b]!r} on admissible edge ({a}, {b})"
            ) from None
    return maps


# Rows are pushed for a block of queries at a time. A block holds at most
# _ACC_CELLS (query, target vertex) accumulator cells, or on the DAG pass
# (query, vertex) cells of the widest shape on a chain, and the discrete images
# of _CHUNK_CELLS (chain, query) pairs are buffered before they are added up.
_ACC_CELLS = 1 << 16
_CHUNK_CELLS = 1 << 14

# a chain set larger than this whose lightest chain weighs at least lam is
# pushed by one pass over its DAG, not chain by chain
_DAG_CHAINS = 256


def _node_walk(queries: np.ndarray, chunk: int, nodes: list[tuple[int, CorrespondenceMap, bool]]):
    """The queries' images at the end of every chain, by one push per trie node
    in preorder: nodes[k] is node k's depth, the map of its edge and whether
    it is a leaf. stack[d] holds the images at depth d of the current chain,
    so a prefix shared by consecutive chains is pushed once.

    Yields (start, stop, images) in chain order: a (stop - start, queries)
    vertex array for a run of at most chunk chains that crossed discrete maps
    only, or the sparse image of one chain that crossed a soft map.
    """
    images = np.empty((chunk, queries.size), dtype=np.int64)
    stack = [queries]
    start = c = 0  # images[k] holds the image of chain start + k; c is the next chain
    for d, m, leaf in nodes:
        image = m.push(stack[d - 1])
        if not leaf:
            del stack[d:]
            stack.append(image)
            continue
        if isinstance(image, np.ndarray):
            images[c - start] = image
            if c + 1 - start == chunk:
                yield start, c + 1, images
                start = c + 1
        else:
            if c > start:
                yield start, c, images[: c - start]
            yield c, c + 1, image
            start = c + 1
        c += 1
    if c > start:
        yield start, c, images[: c - start]


def _depth_walk(
    queries: np.ndarray, chunk: int, trie: ChainTrie, table: np.ndarray, offsets: np.ndarray
):
    """The queries' images at the end of every chain, for a trie of discrete
    maps only, by one gather per depth for each chunk of chains: node k sends
    vertex v to table[offsets[k] + v]. Yields the same (start, stop, images)
    runs as _node_walk.

    A chunk computes the images of the nodes its chains add to the trie,
    level by level. carry[d] holds the image of the node at depth d on the
    stack of the chunk's first node, which the chunks before computed.
    """
    nn = trie.n**2
    ends = np.flatnonzero(trie.leaves)  # per chain, its leaf
    top = int(trie.codes.max()) // nn  # the deepest nodes are leaves: carry stops short of them
    carry = np.empty((top, queries.size), dtype=np.int64)
    carry[0] = queries
    g0 = 0  # the chunk's first node
    for c0 in range(0, ends.size, chunk):
        c1 = min(c0 + chunk, ends.size)
        g1 = int(ends[c1 - 1]) + 1
        d = trie.codes[g0:g1] // nn
        order = np.argsort(d, kind="stable")  # the chunk's nodes, level by level
        cuts = np.searchsorted(d[order], np.arange(1, top + 2)).tolist()
        off = offsets[g0 + order]
        # img holds carry, then the images of the chunk's nodes in that order
        img = np.empty((top + order.size, queries.size), dtype=np.int64)
        img[:top] = carry
        for level in range(top):
            up, lo, hi = cuts[max(level - 1, 0)], cuts[level], cuts[level + 1]
            # a node's parent is the last node one level up before it: in the
            # chunk if there is one, else the carried node of that level
            k = np.searchsorted(order[up:lo], order[lo:hi])
            idx = img[np.where(k > 0, top + up - 1 + k, level)]
            idx += off[lo:hi, None]
            np.take(table, idx, out=img[top + lo : top + hi])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        yield c0, c1, img[top + rank[ends[c0:c1] - g0]]
        # a level's last node is on the stack of the chunk's last chain
        # whenever that chain is deeper; deeper levels are never read again
        for level in range(1, top):
            if cuts[level] > cuts[level - 1]:
                carry[level] = img[top + cuts[level] - 1]
        g0 = g1


def _push_block(queries: np.ndarray, walk, probs: np.ndarray, n_tgt: int):
    """Soft rows of a block of distinct query vertices: per query its support
    size, then the targets and masses of all rows, by query then target.
    walk(queries, chunk) yields the chain images as _node_walk does, and
    probs[c] is the probability of chain c.

    Each chain adds its probability times its image mass to acc[query, target]
    in chain order and marks the cell reached, even when that mass is 0.0.
    Each row is then divided by its total, summed left to right in target
    order. On discrete maps this is the same arithmetic, in the same order,
    as pushing every chain separately.
    """
    b = queries.size
    acc = np.zeros(b * n_tgt)
    reached = np.zeros(b * n_tgt, dtype=bool)
    offsets = np.arange(b, dtype=np.int64) * n_tgt
    for start, stop, image in walk(queries, max(1, _CHUNK_CELLS // b)):
        if isinstance(image, np.ndarray):
            keys = (image[: stop - start] + offsets).ravel()
            np.add.at(acc, keys, np.repeat(probs[start:stop], b))
        else:
            keys = np.repeat(offsets, np.diff(image.indptr)) + image.indices
            np.add.at(acc, keys, probs[start] * image.data)
        reached[keys] = True

    cells = np.flatnonzero(reached)  # by query, then target
    return _finish_rows(cells, acc[cells], b, n_tgt)


def _finish_rows(cells: np.ndarray, mass: np.ndarray, b: int, n_tgt: int):
    """A block's rows from its reached cells, query * n_tgt + target in
    ascending order, and their masses: per query its support size, then the
    targets and the masses over their row's total."""
    owner = cells // n_tgt
    counts = np.bincount(owner, minlength=b)
    # bincount adds each row's masses one by one, in the order of cells
    totals = np.bincount(owner, weights=mass, minlength=b)
    return counts, cells % n_tgt, mass / np.repeat(totals, counts)


def _dag_block(queries: np.ndarray, dag: ChainDag, flow: FlowMatrix, maps, sizes, spread, widest):
    """Soft rows of a block of distinct query vertices, as _push_block gives
    them, by one forward pass over the chains' DAG.

    Vertex v's state holds, per key query * sizes[v] + vertex of shape v, the
    mass of every chain prefix from the source to v that reaches that key,
    the source's state being 1.0 on each query. v pushes each in-edge's tail
    state through its map maps[u, v], then scales every mass by its edge's
    WF[u, v], spreads it along the CSR rows of the images when v is in
    spread, the vertices with a soft in-edge, and adds it per key, in
    ascending u. A key reached only with mass 0.0 stays. widest is the
    largest of sizes over the DAG's vertices.
    """
    b = queries.size
    i, j = flow.source, flow.target
    # per vertex: the query and the vertex of each key, and their masses
    states = {i: (np.arange(b), queries, np.ones(b))}
    # the state of u is dropped after its last out-edge
    last = {u: v for v, us in dag.preds.items() for u in us.tolist()}
    # one accumulator for every vertex, reset to 0.0 at the cells it reached
    acc, reached = np.zeros(b * widest), np.zeros(b * widest, dtype=bool)
    for v, us in dag.preds.items():
        us = us.tolist()
        tails = [states[u] for u in us]
        images = [maps[u, v].push(t) for u, (_, t, _) in zip(us, tails)]
        q = np.concatenate([tail[0] for tail in tails])
        mass = np.concatenate([tail[2] for tail in tails])
        mass *= np.repeat(flow.WF[us, v], [tail[0].size for tail in tails])
        # an image is one CSR row per key of its tail; a vertex array's rows
        # hold one vertex of mass 1.0 each, so only a soft map's rows spread
        if v in spread:
            rows = [
                (np.ones(image.size, dtype=np.int64), image, np.ones(image.size))
                if isinstance(image, np.ndarray)
                else (np.diff(image.indptr), image.indices, image.data)
                for image in images
            ]
            lens, images, weights = zip(*rows)
            lens = np.concatenate(lens)
            q = np.repeat(q, lens)
            mass = np.repeat(mass, lens) * np.concatenate(weights)
        keys = q * sizes[v] + np.concatenate(images)
        # each key's masses are added one by one in the order of keys, from 0.0
        np.add.at(acc, keys, mass)
        reached[keys] = True
        cells = np.flatnonzero(reached[: b * sizes[v]])
        mass = acc[cells]
        acc[cells] = 0.0
        reached[cells] = False
        q, t = np.divmod(cells, sizes[v])
        states[v] = q, t, mass
        for u in us:
            if last[u] == v:
                del states[u]
    q, t, mass = states[j]
    return _finish_rows(q * sizes[j] + t, mass, b, sizes[j])


def propagate_soft(
    collection: ShapeCollection,
    source_id: str,
    target_id: str,
    lam: float = LAMBDA_DEFAULT,
    source_points: list[int] | None = None,
    *,
    max_paths: int = MAX_PATHS_DEFAULT,
    strict: bool = False,
) -> SoftCorrespondence:
    """Soft correspondence from source to target over all retained flow paths.

    source_points defaults to the source shape's landmark vertices when it has
    any, otherwise to every vertex; pass an explicit list to control the query
    set; Shape.check_vertices checks every vertex before any work. Rows are
    aggregated per target vertex and normalized. Past _DAG_CHAINS chains, a
    chain set whose lightest chain weighs at least lam is pushed by one pass
    over its DAG, and path_count is chain_dag's exact count.
    """
    i = collection.index(source_id)
    j = collection.index(target_id)
    src_shape = collection.shape(source_id)
    if source_points is None:
        source_points = src_shape.landmark_indices or np.arange(src_shape.n)
    # distinct queries in first-seen order; a repeated vertex has one row
    points = src_shape.check_vertices(source_points, "source vertex")
    queries = points[np.sort(np.unique(points, return_index=True)[1])]

    flow = directed_flow_matrix(collection.D, i, j, beta=collection.beta)
    # checked before the budget is compared, as enumerate_paths checks them
    check_real(lam, "lambda", 0, high=1)
    check_integer(max_paths, "max_paths", 1)
    n_tgt = width = collection.shape(target_id).n
    push = None
    trie = enumerate_paths(
        flow, lam=lam, max_paths=min(max_paths, _DAG_CHAINS), strict=strict,
        truncate=max_paths > _DAG_CHAINS,
    )
    if not trie.complete:
        # past _DAG_CHAINS chains: one pass over the chains' DAG, unless the
        # lightest chain weighs less than lam or an edge lacks its map; then
        # the walks run
        dag = chain_dag(flow)
        push = _dag_push(collection, flow, dag, lam, max_paths)
        if push is None:
            trie = enumerate_paths(flow, lam=lam, max_paths=max_paths, strict=strict)
        else:
            # a block's states span the widest shape on a chain
            width = push.keywords["widest"]
    block = max(1, _ACC_CELLS // width)
    if push is None:
        if not trie and strict:
            raise EmptyPathSetError(
                f"no admissible path from {i} to {j} survives threshold {lam} in strict mode"
            )
        if not trie:
            # the direct edge survives any threshold unless strict, so the graph
            # lacks it, which only a zero distance does
            raise EmptyPathSetError(
                f"shapes {source_id!r} and {target_id!r} are at distance 0, so the flow "
                f"graph from {i} to {j} has no edge, not even the direct one"
            )
        push = _trie_push(collection, trie, n_tgt, min(block, queries.size))
    blocks = [push(queries[start : start + block]) for start in range(0, queries.size, block)]
    # indptr's leading 0, and empty arrays that also serve an empty query set
    empty = (np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0))
    counts, indices, data = (np.concatenate(part) for part in zip(empty, *blocks))

    return SoftCorrespondence(
        source_id=source_id,
        target_id=target_id,
        queries=queries,
        indptr=np.cumsum(counts),
        indices=indices,
        data=data,
        path_count=len(trie) if trie.complete else dag.count,
    )


def _underflow_error(i: int, j: int) -> EmptyPathSetError:
    return EmptyPathSetError(
        f"every admissible path from {i} to {j} has Gibbs weight 0 "
        f"(exp(-beta * E) underflows); lower beta"
    )


def _trie_push(collection: ShapeCollection, trie: ChainTrie, n_tgt: int, b: int):
    """_push_block for the trie's chains: their probabilities, and the walk
    that gathers less for blocks of b queries."""
    # the threshold was applied to the raw weights; the retained ones are
    # normalized by their sum, added left to right
    total = sum(trie.weights)
    if not total > 0:
        raise _underflow_error(trie.source, trie.target)
    probs = np.asarray(trie.weights) / total

    keys = trie.codes % trie.n**2  # per trie node, its edge's key a * n + b
    maps = _edge_maps(collection, trie.n, keys)
    # the depth walk gathers through one table of every edge map: it runs
    # when every map is discrete and a block's node walk would gather more
    # entries (one per trie node and query) than the table holds
    sizes = [m.indices.size for m in maps.values() if m.kind == "discrete"]
    if len(sizes) == len(maps) and keys.size * b > sum(sizes):
        table = np.concatenate([m.indices for m in maps.values()])
        at = np.zeros(trie.n**2, dtype=np.int64)  # per edge key, where its map starts
        at[list(maps)] = np.cumsum(sizes) - sizes
        walk = functools.partial(_depth_walk, trie=trie, table=table, offsets=at[keys])
    else:
        nodes = zip(
            (trie.codes // trie.n**2).tolist(),
            map(maps.__getitem__, keys.tolist()),
            trie.leaves.tolist(),
        )
        walk = functools.partial(_node_walk, nodes=list(nodes))
    return functools.partial(_push_block, walk=walk, probs=probs, n_tgt=n_tgt)


def _dag_push(collection: ShapeCollection, flow: FlowMatrix, dag: ChainDag, lam: float, max_paths: int):
    """_dag_block for the DAG's chains, or None when the lightest weighs less
    than lam or an edge lacks its stored map: the walks then prune exactly,
    or name the first such edge in chain order. Raises as the walks would
    when the chains exceed max_paths or every chain weight underflows."""
    if dag.floor < lam:
        return None
    if dag.count > max_paths:
        raise budget_error(flow, max_paths)
    if not dag.peak > 0:
        raise _underflow_error(flow.source, flow.target)
    ids = collection.ids
    try:
        maps = {
            (u, v): collection.map(ids[u], ids[v])
            for v, us in dag.preds.items() for u in us.tolist()
        }
    except MissingMapError:
        return None
    sizes = [s.n for s in collection.shapes]
    spread = {v for (u, v), m in maps.items() if m.kind == "soft"}
    widest = max(sizes[v] for v in dag.preds)
    return functools.partial(
        _dag_block, dag=dag, flow=flow, maps=maps, sizes=sizes, spread=spread, widest=widest
    )


def mle(soft: SoftCorrespondence) -> dict[int, int]:
    """Most likely target vertex per queried source vertex; ties take the lowest
    index, a NaN mass never wins, and an empty row maps to -1."""
    sizes = np.diff(soft.indptr)
    full = sizes > 0
    starts = soft.indptr[:-1][full]
    peaks = np.repeat(np.fmax.reduceat(soft.data, starts), sizes[full])
    # each row's first position holding its peak; a row of NaNs has none and
    # reads the sentinel past the end
    hits = np.where(soft.data == peaks, np.arange(soft.data.size), soft.data.size)
    best = np.full(sizes.size, -1, dtype=np.int64)
    best[full] = np.append(soft.indices, -1)[np.minimum.reduceat(hits, starts)]
    return dict(zip(soft.queries.tolist(), best.tolist()))


# Frechet costs are computed for blocks of rows of one support size; a block's
# (row, support vertex, candidate) tensor holds at most _FRECHET_CELLS cells.
_FRECHET_CELLS = 1 << 18


def _frechet_costs(
    store: np.ndarray, slots: np.ndarray, support: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """(r, s) costs: for row i and candidate x = support[i, x], the sum over
    q of mass[i, q] * d(x, q) ** 2, added left to right in q.

    store[slots[i, x]] is the distance row of support[i, x].
    """
    r, s = support.shape
    costs = np.empty((r, s))
    xb = min(s, max(1, _FRECHET_CELLS // s))
    rb = max(1, _FRECHET_CELLS // (s * xb))
    for r0 in range(0, r, rb):
        rs = slice(r0, r0 + rb)
        for x0 in range(0, s, xb):
            xs = slice(x0, x0 + xb)
            # terms[i, q, x], made in place in the one gathered block;
            # float_power is exactly Python's float ** 2
            terms = store[slots[rs, None, xs], support[rs, :, None]]
            np.float_power(terms, 2.0, out=terms)
            np.multiply(mass[rs, :, None], terms, out=terms)
            # running sums add the q terms left to right (np.sum may add
            # them pairwise), so the last one is the cost
            np.add.accumulate(terms, axis=1, out=terms)
            costs[rs, xs] = terms[:, -1]
    return costs


def frechet_mean(soft: SoftCorrespondence, oracle: GeodesicOracle) -> dict[int, int]:
    """Support-restricted Frechet mean per row under the target geodesic metric.

    Picks the support vertex x minimizing the sum over the support q, in
    ascending order, of mass[q] * d(x, q) ** 2; ties take the lowest index.
    Rows are batched by support size. d(x, q) is read in place from the
    oracle's row store, in the row of the candidate x; every support vertex's
    row is filled by one oracle call. d(x, x) is 0, so a single-vertex row
    needs no distance row. An empty row maps to -1.
    """
    sizes = np.diff(soft.indptr)
    picks = np.full(sizes.size, -1, dtype=np.int64)
    # every support entry is checked, once, before any distance row is filled
    vertices = oracle.shape.check_vertices(soft.indices)
    multi = np.repeat(sizes > 1, sizes)
    # the row-store slot of each support entry's vertex, for multi-vertex rows
    slot = np.zeros(soft.indices.size, dtype=np.int64)
    if multi.any():
        store, slot[multi] = oracle._row_slots(vertices[multi])
    for s in np.unique(sizes[sizes > 0]).tolist():
        rows = np.flatnonzero(sizes == s)
        at = soft.indptr[rows, None] + np.arange(s)
        support, mass = soft.indices[at], soft.data[at]
        # overflowing and inf * 0 terms stay silent, as in Python float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            if s == 1:
                costs = mass * 0.0
            else:
                costs = _frechet_costs(store, slot[at], support, mass)
        # as with a strict < scan from inf: a NaN never wins, nor does inf
        costs[np.isnan(costs)] = np.inf
        r = np.arange(rows.size)
        best = np.argmin(costs, axis=1)
        picks[rows] = np.where(costs[r, best] < np.inf, support[r, best], -1)
    return dict(zip(soft.queries.tolist(), picks.tolist()))


def ball_mass(row: Row, center: int, radius: float, oracle: GeodesicOracle) -> float:
    """Total row mass within geodesic distance radius of center (inclusive),
    added in the row's target order. Each distance is read in place from the
    center's row."""
    targets, masses = row
    return float(sum(masses[oracle.distances([center], targets) <= radius].tolist()))


def tv_distance(row_a: Row, row_b: Row) -> float:
    """Total variation distance between two rows."""
    (ta, ma), (tb, mb) = row_a, row_b
    keys = np.union1d(ta, tb)
    diff = np.zeros(keys.size)
    diff[np.searchsorted(keys, ta)] = ma
    diff[np.searchsorted(keys, tb)] -= mb
    return 0.5 * math.fsum(np.abs(diff).tolist())


@dataclass
class AllPairsResult:
    soft: dict[tuple[str, str], SoftCorrespondence]
    mle: dict[tuple[str, str], dict[int, int]]
    frechet: dict[tuple[str, str], dict[int, int]]


def all_pairs_soft(
    collection: ShapeCollection,
    lam: float = LAMBDA_DEFAULT,
    queries: dict[str, list[int]] | None = None,
) -> AllPairsResult:
    """Soft correspondences and both hard extractions for every ordered pair,
    one pair after another.

    Failures are re-raised with the offending pair named.
    """

    def run(a: str, b: str):
        pts = queries.get(a) if queries else None
        try:
            soft = propagate_soft(collection, a, b, lam=lam, source_points=pts)
            return soft, mle(soft), frechet_mean(soft, collection.oracle(b))
        except Exception as exc:
            raise type(exc)(f"pair ({a!r} -> {b!r}): {exc}") from exc

    ids = collection.ids
    results = {(a, b): run(a, b) for a in ids for b in ids if a != b}
    return AllPairsResult(
        soft={p: r[0] for p, r in results.items()},
        mle={p: r[1] for p, r in results.items()},
        frechet={p: r[2] for p, r in results.items()},
    )
