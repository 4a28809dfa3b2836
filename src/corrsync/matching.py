"""Sparse-to-dense correspondence construction for shape pairs.

Pipeline pieces: farthest-point landmark sampling, mutual ball-mass partial
matching from soft correspondences, scalar-field extremum detection, stable
matching of extrema after rigid alignment, joint farthest-point refinement of
the match set, and inverse-distance interpolation to a dense map. match_pair
runs the pipeline up to the refined match set for one pair of a collection. A
rigid ICP-style aligner rounds out the module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .collection import CorrespondenceMap, GeodesicOracle, Shape, ShapeCollection
from .errors import (
    BallOverlapError,
    DegenerateGeometryError,
    InvalidValueError,
    check_integer,
    check_real,
)
from .soft import SoftCorrespondence, ball_mass, propagate_soft


@dataclass(frozen=True)
class Match:
    source: int
    target: int
    provenance: str


def fps_landmarks(shape: Shape, count: int, oracle: GeodesicOracle) -> tuple[int, ...]:
    """Farthest-point sampling under the geodesic metric, from vertex 0.

    Greedily adds the vertex farthest from everything chosen so far; distance
    ties resolve to the lowest vertex index.
    """
    what = f"shape {shape.id!r} has {shape.n} points, so its landmark count"
    count = check_integer(count, what, 1, shape.n)
    chosen = [0]
    mindist = oracle.distances_from(0)  # a copy of row 0, updated in place
    while len(chosen) < count:
        nxt = int(np.argmax(mindist))
        chosen.append(nxt)
        np.minimum(mindist, oracle.distances_from(nxt), out=mindist)
    return tuple(chosen)


def _distinct(vertices, what: str) -> None:
    seen: set[int] = set()
    for v in vertices:
        if v in seen:
            raise InvalidValueError(f"{what} vertex {v} appears twice")
        seen.add(v)


def check_ball_disjoint(indices, radius: float, oracle: GeodesicOracle) -> None:
    """Raise BallOverlapError naming the first landmark pair a < b, in landmark
    order, closer than 2 * radius; d(a, b) is read from the row of a."""
    idx = oracle.shape.check_vertices(indices, "landmark")
    d = oracle.distances(idx[:, None], idx)
    close = np.argwhere(np.triu(d <= 2 * radius, 1))
    if close.size:
        a, b = close[0]
        raise BallOverlapError(
            f"landmarks {idx[a]} and {idx[b]} are {d[a, b]:.6g} apart; "
            f"balls of radius {radius} require separation > {2 * radius}"
        )


def gp_partial_match(
    soft_ab: SoftCorrespondence,
    soft_ba: SoftCorrespondence,
    landmarks_a: tuple[int, ...],
    landmarks_b: tuple[int, ...],
    radius: float,
    oracle_a: GeodesicOracle,
    oracle_b: GeodesicOracle,
) -> list[Match]:
    """Match landmarks whose soft images concentrate in each other's balls.

    A pair qualifies when the forward row puts mass >= 0.5 inside the ball
    around the candidate target landmark and the reverse row does the same
    around the source landmark. Each source takes the first qualifying target
    in landmark order; a target is never reused. The result holds matches
    only: a landmark with no qualifying target is left out. radius must be a
    finite number > 0.
    """
    check_real(radius, "radius", 0, strict=True)
    check_ball_disjoint(landmarks_a, radius, oracle_a)
    check_ball_disjoint(landmarks_b, radius, oracle_b)
    taken: set[int] = set()
    matches: list[Match] = []
    for va in landmarks_a:
        row_a = soft_ab.row(va)
        for vb in landmarks_b:
            if vb in taken:
                continue
            if ball_mass(row_a, vb, radius, oracle_b) >= 0.5 and (
                ball_mass(soft_ba.row(vb), va, radius, oracle_a) >= 0.5
            ):
                taken.add(vb)
                matches.append(Match(int(va), int(vb), "partial"))
                break
    return matches


def strict_extrema(field: np.ndarray, graph, hops: int = 1) -> tuple[int, ...]:
    """Indices whose value strictly exceeds every neighbor within the hop radius.

    graph is a sparse adjacency whose row v stores v's neighbors as nonzero
    entries. A vertex's neighborhood is every other vertex reachable in 1 to
    hops steps; a vertex with no neighbors in range qualifies vacuously.
    """
    from scipy import sparse

    check_integer(hops, "hops", 1)
    step = sparse.csr_matrix(graph, dtype=bool)
    reach = step
    for _ in range(hops - 1):
        reach = reach + reach @ step
    rows, cols = reach.nonzero()
    other = rows != cols
    best = np.full(len(field), -np.inf)
    np.maximum.at(best, rows[other], field[cols[other]])
    return tuple(np.flatnonzero(field > best).tolist())


def detect_extrema(shape: Shape, oracle: GeodesicOracle, hops: int = 1) -> tuple[int, ...]:
    """Strict local maxima of the scalar field on the oracle's graph, ascending vertex order."""
    if shape.scalar_field is None:
        raise InvalidValueError(f"shape {shape.id!r} has no scalar field")
    return strict_extrema(shape.scalar_field, oracle.graph, hops)


def project_vertices(points: np.ndarray, points_to: np.ndarray) -> np.ndarray:
    """Index of each point's nearest point in points_to; ties take the lowest index."""
    d = np.linalg.norm(points_to[None, :, :] - points[:, None, :], axis=2)
    return np.argmin(d, axis=1).astype(np.int64)


def stable_curvature_match(
    points_a: np.ndarray,
    points_b: np.ndarray,
    extrema_a: list[int],
    extrema_b: list[int],
    delta: float,
    oracle_a: GeodesicOracle,
    oracle_b: GeodesicOracle,
) -> list[Match]:
    """Stable matching of scalar-field extrema between two aligned point sets.

    Candidate pairs must project within geodesic delta of each other in both
    directions. Source extrema propose in ascending projected-distance order;
    the result admits no blocking pair among candidates, and holds matches
    only, in source extremum order. delta must be a finite number > 0, and
    neither extrema list may repeat a vertex.
    """
    check_real(delta, "delta", 0, strict=True)
    ea = oracle_a.shape.check_vertices(extrema_a, "extremum")
    eb = oracle_b.shape.check_vertices(extrema_b, "extremum")
    _distinct(ea, "extremum")
    _distinct(eb, "extremum")
    if not ea.size or not eb.size:
        return []

    proj_a = project_vertices(points_a[ea], points_b)  # images on B
    proj_b = project_vertices(points_b[eb], points_a)  # images on A
    fwd = oracle_b.distances(proj_a[:, None], eb)  # from the rows of the projections
    rev = oracle_a.distances(proj_b[:, None], ea)
    admissible = (fwd < delta) & (rev.T < delta)

    # proposer preference lists, ascending distance then index
    pref = [
        deque(sorted((j for j in range(len(eb)) if admissible[m, j]), key=lambda j: (fwd[m, j], j)))
        for m in range(len(ea))
    ]
    rank = [
        {m: (rev[j, m], m) for m in range(len(ea)) if admissible[m, j]}
        for j in range(len(eb))
    ]
    engaged: dict[int, int] = {}  # target index -> source index
    free = deque(range(len(ea)))
    while free:
        m = free.popleft()
        if not pref[m]:
            continue
        j = pref[m].popleft()
        if j not in engaged:
            engaged[j] = m
        elif rank[j][m] < rank[j][engaged[j]]:
            free.append(engaged[j])
            engaged[j] = m
        else:
            free.append(m)

    return [Match(int(ea[m]), int(eb[j]), "curvature")
            for m, j in sorted((m, j) for j, m in engaged.items())]


def joint_fps_refine(
    seeds: list[Match],
    candidates: list[Match],
    max_matches: int,
    oracle_a: GeodesicOracle,
    oracle_b: GeodesicOracle,
) -> list[Match]:
    """Grow the match set by joint farthest-point coverage on both shapes.

    Starting from the seed matches, repeatedly adds the candidate pair
    maximizing the summed geodesic distance to the already chosen vertices on
    each side, until max_matches pairs exist or candidates run out. Ties take
    the lowest source index. Candidates reusing a chosen vertex are skipped;
    two seeds sharing a source or a target are rejected.
    """
    if check_integer(max_matches, "max_matches") < len(seeds):
        raise InvalidValueError(
            f"max_matches={max_matches} below the {len(seeds)} seed matches"
        )
    (seed_a, seed_b), (cand_a, cand_b) = (
        (oracle_a.shape.check_vertices([m.source for m in ms], f"{kind} source vertex"),
         oracle_b.shape.check_vertices([m.target for m in ms], f"{kind} target vertex"))
        for kind, ms in (("seed", seeds), ("candidate", candidates))
    )
    _distinct(seed_a, "seed source")
    _distinct(seed_b, "seed target")
    chosen: list[Match] = list(seeds)
    live = ~np.isin(cand_a, seed_a) & ~np.isin(cand_b, seed_b)
    mind_a = np.full(oracle_a.n, np.inf)
    mind_b = np.full(oracle_b.n, np.inf)
    for a, b in zip(seed_a, seed_b):
        np.minimum(mind_a, oracle_a.distances_from(a), out=mind_a)
        np.minimum(mind_b, oracle_b.distances_from(b), out=mind_b)

    while live.any() and len(chosen) < max_matches:
        # the live candidate of the largest energy, then the lowest source,
        # then the lowest target, then the earliest
        k = np.lexsort((cand_b, cand_a, -(mind_a[cand_a] + mind_b[cand_b]), ~live))[0]
        chosen.append(candidates[k])
        live &= (cand_a != cand_a[k]) & (cand_b != cand_b[k])
        np.minimum(mind_a, oracle_a.distances_from(cand_a[k]), out=mind_a)
        np.minimum(mind_b, oracle_b.distances_from(cand_b[k]), out=mind_b)
    return chosen


def match_pair(
    collection: ShapeCollection,
    source_id: str,
    target_id: str,
    *,
    radius: float,
    delta: float,
    max_matches: int,
    lam: float,
    landmarks: int,
    hops: int,
    k: int,
) -> tuple[list[Match], int]:
    """One pair's sparse matches, and the number of source landmarks left unmatched.

    Runs fps_landmarks for a shape without landmarks, gp_partial_match on
    propagate_soft rows both ways, stable_curvature_match after rigid alignment
    when both shapes carry a scalar field, and joint_fps_refine seeded by it.
    delta, hops and the landmark count's type are checked first, whether or
    not the shapes carry scalar fields or landmarks.
    """
    check_real(delta, "delta", 0, strict=True)
    check_integer(hops, "hops", 1)
    check_integer(landmarks, "landmark count")
    shape_a = collection.shape(source_id)
    shape_b = collection.shape(target_id)
    oracle_a = collection.oracle(source_id, k=k)
    oracle_b = collection.oracle(target_id, k=k)

    lm_a, lm_b = (
        shape.landmark_indices or fps_landmarks(shape, landmarks, oracle)
        for shape, oracle in ((shape_a, oracle_a), (shape_b, oracle_b))
    )

    soft_ab = propagate_soft(collection, source_id, target_id, lam=lam, source_points=list(lm_a))
    soft_ba = propagate_soft(collection, target_id, source_id, lam=lam, source_points=list(lm_b))
    partial = gp_partial_match(soft_ab, soft_ba, lm_a, lm_b, radius, oracle_a, oracle_b)

    seeds: list[Match] = []
    if shape_a.scalar_field is not None and shape_b.scalar_field is not None:
        align = baseline_pairwise_align(shape_a, shape_b)
        extrema_a = detect_extrema(shape_a, oracle_a, hops)
        extrema_b = detect_extrema(shape_b, oracle_b, hops)
        seeds = stable_curvature_match(
            shape_a.points @ align.rotation.T + align.translation, shape_b.points,
            extrema_a, extrema_b, delta, oracle_a, oracle_b,
        )
    refined = joint_fps_refine(seeds, partial, max_matches, oracle_a, oracle_b)
    return refined, len(lm_a) - len(partial)


def interpolate_dense(
    matches: list[Match],
    shape_a: Shape,
    shape_b: Shape,
    oracle_a: GeodesicOracle,
) -> CorrespondenceMap:
    """Extend sparse matches to a full discrete map by inverse-distance blending.

    Every unmatched source vertex takes the weighted average position of its 4
    geodesically nearest matched landmarks' targets (weights 1/d; distance ties
    take the earlier match), snapped to the nearest target vertex. Matched
    vertices keep their exact targets. Every k-NN edge weighs more than 0, so
    an unmatched vertex is never at distance 0 from a match.
    """
    from scipy.spatial import cKDTree

    if not matches:
        raise InvalidValueError(
            f"cannot interpolate {shape_a.id!r} -> {shape_b.id!r} "
            "from an empty match set"
        )
    srcs = shape_a.check_vertices([m.source for m in matches], "match source vertex")
    tgts = shape_b.check_vertices([m.target for m in matches], "match target vertex")
    free = np.ones(shape_a.n, dtype=bool)
    free[srcs] = False
    d = oracle_a.distances(srcs[:, None], np.flatnonzero(free))  # (matches, free vertices)
    order = np.argsort(d, axis=0, kind="stable")[: min(4, len(matches))]
    w = 1.0 / np.take_along_axis(d, order, axis=0)
    pos = (w[:, :, None] * shape_b.points[tgts[order]]).sum(0) / w.sum(0)[:, None]
    indices = np.empty(shape_a.n, dtype=np.int64)
    indices[srcs] = tgts
    indices[free] = cKDTree(shape_b.points).query(pos)[1]
    return CorrespondenceMap(
        source_id=shape_a.id,
        target_id=shape_b.id,
        kind="discrete",
        indices=indices,
        target_size=shape_b.n,
    )


@dataclass
class AlignResult:
    rotation: np.ndarray
    translation: np.ndarray
    map: CorrespondenceMap
    distance: float


def baseline_pairwise_align(
    shape_a: Shape, shape_b: Shape, iterations: int = 10
) -> AlignResult:
    """Rigidly align a onto b by alternating nearest-neighbor assignment with
    the closed-form orthogonal fit, for a fixed iteration budget.

    Returns the final rotation/translation, the nearest-vertex map a -> b under
    the alignment, and the root-mean-square residual over assigned pairs.
    """
    from scipy.spatial import cKDTree

    pa, pb = shape_a.points, shape_b.points
    for pts, who in ((pa, shape_a.id), (pb, shape_b.id)):
        if pts.shape[0] < 3:
            raise DegenerateGeometryError(f"shape {who!r}: alignment needs >= 3 points")
        centered = pts - pts.mean(0)
        s = np.linalg.svd(centered, compute_uv=False)
        if s[1] <= 1e-9 * max(s[0], 1e-30):
            raise DegenerateGeometryError(f"shape {who!r}: points are collinear")

    tree = cKDTree(pb)
    R = np.eye(3)
    t = np.zeros(3)
    assign = None
    for _ in range(max(1, check_integer(iterations, "iterations"))):
        moved = pa @ R.T + t
        assign = tree.query(moved)[1]
        R, t = _orthogonal_fit(pa, pb[assign])
    moved = pa @ R.T + t
    assign = tree.query(moved)[1]
    residual = float(np.sqrt(np.mean(np.sum((moved - pb[assign]) ** 2, axis=1))))
    return AlignResult(
        rotation=R,
        translation=t,
        map=CorrespondenceMap(
            source_id=shape_a.id,
            target_id=shape_b.id,
            kind="discrete",
            indices=assign.astype(np.int64),
            target_size=shape_b.n,
        ),
        distance=residual,
    )


def _orthogonal_fit(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # least-squares rotation + translation, reflection corrected
    cs, cd = src.mean(0), dst.mean(0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    sign = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, sign]) @ U.T
    return R, cd - R @ cs
