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
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import InvalidValueError, MaxStepsError, OracleBoundError, PathBudgetError

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


@dataclass(frozen=True)
class WalkResult:
    trajectory: tuple[int, ...]
    status: str  # "reached" | "discarded"


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
    adjacency: np.ndarray | None = None,
) -> FlowMatrix:
    """Build the flow graph for ordered pair (i, j), weighted by gibbs_weights(D, beta).

    An optional boolean adjacency restricts edges to an underlying graph (used
    for lattice experiments); without it the complete graph is assumed and the
    direct edge (i, j) is always present.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("D must be square")
    i, j = int(i), int(j)
    if i == j:
        raise InvalidValueError(f"flow graph needs two distinct endpoints, got {i} twice")
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidValueError(f"endpoint index out of range [0, {n}): ({i}, {j})")
    di = D[i]
    dj = D[j]
    F = (di[:, None] < di[None, :]) & (dj[:, None] > dj[None, :])
    if adjacency is not None:
        F &= np.asarray(adjacency, dtype=bool)
    WF = np.where(F, gibbs_weights(D, beta), 0.0)
    return FlowMatrix(source=i, target=j, F=F, WF=WF, D=D)


def enumerate_paths(
    flow: FlowMatrix,
    lam: float = 0.0,
    max_paths: int = MAX_PATHS_DEFAULT,
    strict: bool = False,
) -> list[PathRecord]:
    """All admissible source->target paths with weight >= lam, in lexicographic order.

    Weights only shrink along a path, so pruning a partial path below lam is
    exact; so is skipping vertices from which the target cannot be reached.
    The direct two-vertex path is kept regardless of lam unless strict is set.
    Exceeding max_paths raises rather than truncating. lam must be finite and
    in [0, 1].
    """
    if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise InvalidValueError(f"lambda must be a finite number in [0, 1], got {lam!r}")
    i, j = flow.source, flow.target
    with np.errstate(over="ignore"):  # an overflowing square is an infinite energy
        D2 = flow.D * flow.D
    # only vertices from which j is reachable can lie on a path
    live = [False] * flow.n
    live[j] = True
    todo = [j]
    while todo:
        for v in np.flatnonzero(flow.F[:, todo.pop()]).tolist():
            if not live[v]:
                live[v] = True
                todo.append(v)
    # per vertex: (successor, WF entry, squared step) for live successors in
    # ascending order, as Python numbers so the walk indexes no numpy scalars
    succ = []
    for v in range(flow.n):
        us = [u for u in np.flatnonzero(flow.F[v]).tolist() if live[u]]
        succ.append(list(zip(us, flow.WF[v, us].tolist(), D2[v, us].tolist())))
    found: list[PathRecord] = []

    def record(path: list[int], energy: float, weight: float) -> None:
        if len(found) >= max_paths:
            raise PathBudgetError(
                f"path count exceeded max_paths={max_paths}; raise the budget "
                f"or tighten the weight threshold"
            )
        found.append(PathRecord(tuple(path), energy, weight))

    # stack-based DFS, neighbors in ascending index order
    stack: list[tuple[int, int]] = [(i, 0)]
    path = [i]
    energies = [0.0]
    weights = [1.0]
    while stack:
        v, ptr = stack[-1]
        if v == j:
            record(path, energies[-1], weights[-1])
            stack.pop()
            path.pop()
            energies.pop()
            weights.pop()
            continue
        nxt = succ[v]
        advanced = False
        while ptr < len(nxt):
            u, wf, d2 = nxt[ptr]
            ptr += 1
            w = weights[-1] * wf
            if w >= lam:
                stack[-1] = (v, ptr)
                stack.append((u, 0))
                path.append(u)
                energies.append(energies[-1] + d2)
                weights.append(w)
                advanced = True
                break
        if not advanced:
            stack.pop()
            path.pop()
            energies.pop()
            weights.pop()

    if not strict and flow.F[i, j] and not any(p.vertices == (i, j) for p in found):
        record([i, j], float(D2[i, j]), float(flow.WF[i, j]))
    found.sort(key=lambda p: p.vertices)
    return found


def brute_force_paths(
    D: np.ndarray,
    i: int,
    j: int,
    lam: float = 0.0,
    *,
    beta: float = 1.0,
    strict: bool = False,
    max_n: int = ORACLE_MAX_N,
) -> list[PathRecord]:
    """Independent oracle: exhaustively test every vertex sequence from i to j.

    Checks the raw step inequalities directly against D and computes weights
    as exp(-beta * energy); intended for small instances only.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if n > max_n:
        raise OracleBoundError(f"oracle limited to n <= {max_n}, got n = {n}")
    i, j = int(i), int(j)
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


def sample_walk(flow: FlowMatrix, seed) -> WalkResult:
    """Random walk from source following outgoing WF weights.

    Ends at the target ("reached") or at a vertex with no outgoing edge
    ("discarded"). The budget of n + 1 steps only guards corrupted input; an
    intact flow graph has no cycles to trap the walk.
    """
    rng = np.random.default_rng(seed)
    budget = flow.n + 1
    v = flow.source
    trajectory = [v]
    for _ in range(budget):
        if v == flow.target:
            return WalkResult(tuple(trajectory), "reached")
        row = flow.WF[v]
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return WalkResult(tuple(trajectory), "discarded")
        probs = row[nz] / row[nz].sum()
        v = int(rng.choice(nz, p=probs))
        trajectory.append(v)
    if v == flow.target:
        return WalkResult(tuple(trajectory), "reached")
    raise MaxStepsError(f"walk did not terminate within {budget} steps")


def topological_order(F: np.ndarray) -> list[int] | None:
    """Kahn's algorithm; returns None when the graph has a cycle."""
    F = np.asarray(F, dtype=bool)
    n = F.shape[0]
    indeg = F.sum(axis=0).astype(int)
    ready = [v for v in range(n) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for u in np.flatnonzero(F[v]):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(int(u))
    return order if len(order) == n else None
