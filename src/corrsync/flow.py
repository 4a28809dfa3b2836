"""Directed flow graphs over a shape collection.

For an ordered pair (i, j), the flow graph admits an edge m -> n exactly when
stepping from m to n moves strictly farther from i and strictly closer to j:

    D[i, m] < D[i, n]  and  D[j, m] > D[j, n]

Strict inequalities make the graph a DAG with i as the unique source and j as
the unique sink, so every admissible path makes monotone progress toward j.
Paths are scored by the energy E = sum of squared step distances; the weight
exp(-beta * E) equals the product of the traversed W entries.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import InvalidValueError, OracleBoundError, PathBudgetError, check_integer, check_real

MAX_PATHS_DEFAULT = 10**6
ORACLE_MAX_N = 9


@dataclass(frozen=True)
class FlowMatrix:
    """Flow graph for one ordered pair: boolean adjacency F and weighted WF = W * F."""

    source: int
    target: int
    F: np.ndarray
    WF: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True)
class PathRecord:
    """One admissible path: vertex sequence, energy, and Gibbs weight exp(-beta*E)."""

    vertices: tuple[int, ...]
    energy: float
    weight: float


@dataclass(eq=False)
class ChainTrie:
    """A walk's chains, in lexicographic order, as the nodes of their trie.

    Node k stands for one edge (a, b) at one depth of the chains through it
    (the source's own edges are at depth 1). The nodes are in preorder, and
    only nodes on a chain are kept, so the parent of a node is the last node
    one level up before it. codes[k] is depth * n**2 + a * n + b. The edges
    into the target are the leaves, one per chain, and weights[c] holds chain
    c's Gibbs weight. Iterating builds the PathRecords, one chain at a time,
    each energy summed left to right from D, the flow's distances. complete
    is False when the walk stopped at its budget: the trie then holds the
    chains before that point.
    """

    source: int
    target: int
    D: np.ndarray
    codes: np.ndarray
    weights: list[float]
    complete: bool = True

    @property
    def n(self) -> int:
        return self.D.shape[0]

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def leaves(self) -> np.ndarray:
        """Per node, whether it is a leaf: the last edge of a chain."""
        return self.codes % self.n == self.target

    def __iter__(self):
        path = [self.source]
        weights = iter(self.weights)
        for code in self.codes.tolist():
            depth, key = divmod(code, self.n * self.n)
            del path[depth:]
            path.append(key % self.n)
            if path[-1] == self.target:
                energy = 0.0
                for a, b in zip(path, path[1:]):
                    d = self.D[a, b].item()  # a Python float squares to inf silently
                    energy += d * d
                yield PathRecord(tuple(path), energy, next(weights))


def gibbs_weights(D: np.ndarray, beta: float) -> np.ndarray:
    """Edge weights W = exp(-beta * D^2), entrywise."""
    with np.errstate(over="ignore"):  # an overflowing square weighs exp(-inf) = 0
        return np.exp(-beta * D * D)


def directed_flow_matrix(
    D: np.ndarray,
    i: int,
    j: int,
    *,
    beta: float = 1.0,
) -> FlowMatrix:
    """Build the flow graph for ordered pair (i, j), weighted by gibbs_weights(D, beta).

    The graph is complete, so the direct edge (i, j) is always present. beta
    must be a finite number > 0.
    """
    check_real(beta, "beta", 0, strict=True)
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if D.shape != (n, n):
        raise InvalidValueError("D must be square")
    i, j = (check_integer(v, "endpoint", 0, n - 1) for v in (i, j))
    if i == j:
        raise InvalidValueError(f"flow graph needs two distinct endpoints, got {i} twice")
    di = D[i]
    dj = D[j]
    F = (di[:, None] < di[None, :]) & (dj[:, None] > dj[None, :])
    WF = np.where(F, gibbs_weights(D, beta), 0.0)
    return FlowMatrix(source=i, target=j, F=F, WF=WF, D=D)


def enumerate_paths(
    flow: FlowMatrix,
    lam: float = 0.0,
    max_paths: int = MAX_PATHS_DEFAULT,
    strict: bool = False,
    *,
    truncate: bool = False,
) -> ChainTrie:
    """All admissible source->target paths with weight >= lam, in lexicographic order.

    One DFS visits successors in ascending order; the target is a sink, so no
    path is a prefix of another and the walk emits them in lexicographic order.
    Weights only shrink along a path, so pruning a partial path below lam is
    exact; so is skipping vertices from which the target cannot be reached.
    Along a path D[i, .] rises and D[j, .] falls, so a vertex that reaches j
    has a direct edge into it, and column j of F holds all such vertices.
    The direct two-vertex path is kept regardless of lam unless strict is set.
    Exceeding max_paths raises rather than truncating, unless truncate is
    set: the walk then stops and returns the first max_paths chains, with
    complete False. lam must be a finite number in [0, 1] and max_paths an
    integer of at least 1.
    """
    check_real(lam, "lambda", 0, high=1)
    check_integer(max_paths, "max_paths", 1)
    i, j = flow.source, flow.target
    n = flow.n
    # only vertices from which j is reachable can lie on a path
    live = flow.F[:, j] | (np.arange(n) == j)
    # per vertex: (successor, edge key, WF entry) for live successors in
    # ascending order, as Python numbers so the walk indexes no numpy scalars
    rows, cols = np.nonzero(flow.F & live)
    steps = list(zip(cols.tolist(), (rows * n + cols).tolist(), flow.WF[rows, cols].tolist()))
    stops = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    succ = [steps[a:b] for a, b in zip([0, *stops], stops)]

    codes = array("q")
    weights: list[float] = []
    # the DFS stack: per vertex of the path so far, which never holds j, its
    # weight, the iterator over its successors not yet visited, the node
    # count once the edge into it was recorded (-1 for the source) and the
    # code of an edge leaving it less that edge's key
    nn = n * n
    frames = [(1.0, iter(succ[i]), -1, nn)]
    while frames:
        weight, nexts, recorded, base = frames[-1]
        for u, key, wf in nexts:
            w = weight * wf
            # below lam only the source's direct edge survives, unless strict
            if w < lam and (strict or u != j or recorded >= 0):
                continue
            codes.append(base + key)
            if u != j:
                frames.append((w, iter(succ[u]), len(codes), base + nn))
                break
            if len(weights) >= max_paths:
                if not truncate:
                    raise budget_error(flow, max_paths)
                # drop the leaf, then the nodes on the stack no kept chain passes
                codes.pop()
                for *_, recorded, _ in reversed(frames[1:]):
                    if len(codes) == recorded:
                        codes.pop()
                return ChainTrie(i, j, flow.D, np.frombuffer(codes, dtype=np.int64), weights, complete=False)
            weights.append(w)
        else:
            frames.pop()
            # an edge with no chain through it is still the last one recorded
            if len(codes) == recorded:
                codes.pop()
    return ChainTrie(i, j, flow.D, np.frombuffer(codes, dtype=np.int64), weights)


@dataclass(frozen=True)
class ChainDag:
    """The edges of a flow's chains, with path sums over them.

    preds maps each vertex on a chain other than the source, in ascending
    D[i, .], to the vertices before it on a chain, ascending: its keys are a
    topological order, and the target's entry comes last. count is the
    number of chains, and floor and peak the smallest and largest chain
    weights as enumerate_paths multiplies them, left to right.
    """

    preds: dict[int, np.ndarray]
    count: int
    floor: float
    peak: float


def chain_dag(flow: FlowMatrix) -> ChainDag:
    """The flow's ChainDag, by one forward pass in ascending D[i, .]: the
    semiring path sums (Mohri 2002) (+, x) over Python ints for the count,
    and (min, x) and (max, x) over WF. Multiplying by a nonnegative float is
    monotone, so the floor and peak are exactly some chains' products."""
    i, j = flow.source, flow.target
    n = flow.n
    reached = np.arange(n) == i
    counts, low, high = [0] * n, np.ones(n), np.ones(n)
    counts[i] = 1
    preds = {}
    for v in np.argsort(flow.D[i], kind="stable").tolist():
        if not flow.F[v, j] and v != j:
            continue  # only vertices that reach j lie on a chain
        u = np.flatnonzero(flow.F[:, v] & reached)
        if u.size:
            preds[v] = u
            counts[v] = sum(counts[a] for a in u.tolist())
            low[v] = (low[u] * flow.WF[u, v]).min()
            high[v] = (high[u] * flow.WF[u, v]).max()
            reached[v] = True
    if j not in preds:
        return ChainDag({}, 0, math.inf, 0.0)
    return ChainDag(preds, counts[j], low[j].item(), high[j].item())


def budget_error(flow: FlowMatrix, max_paths: int) -> PathBudgetError:
    """The error of a chain set larger than max_paths."""
    return PathBudgetError(
        f"path count from {flow.source} to {flow.target} exceeded max_paths={max_paths}; "
        f"raise the budget or tighten the weight threshold"
    )


def brute_force_paths(
    D: np.ndarray,
    i: int,
    j: int,
    lam: float = 0.0,
    *,
    beta: float = 1.0,
    strict: bool = False,
) -> list[PathRecord]:
    """Independent oracle: exhaustively test every vertex sequence from i to j.

    Checks the raw step inequalities directly against D and computes weights
    as exp(-beta * energy); intended for small instances only.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if n > ORACLE_MAX_N:
        raise OracleBoundError(f"oracle limited to n <= {ORACLE_MAX_N}, got n = {n}")
    i, j = (check_integer(v, "endpoint", 0, n - 1) for v in (i, j))
    di, dj = D[i], D[j]
    others = [v for v in range(n) if v not in (i, j)]
    found: list[PathRecord] = []
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            for perm in permutations(combo):
                seq = (i, *perm, j)
                ok = True
                energy = 0.0
                for a, b in zip(seq, seq[1:]):
                    if not (di[a] < di[b] and dj[a] > dj[b]):
                        ok = False
                        break
                    energy += D[a, b] * D[a, b]
                if not ok:
                    continue
                weight = math.exp(-beta * energy)
                if weight >= lam or (not strict and len(seq) == 2):
                    found.append(PathRecord(seq, energy, weight))
    found.sort(key=lambda p: p.vertices)
    return found

