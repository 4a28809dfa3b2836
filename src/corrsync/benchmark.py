"""Evaluation harness: geodesic-error curves over labeled landmarks, synthetic
deformed-sphere collections, seeded map corruption, and structural stability
reports under collection edits."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (
    METHODS,
    direct_propagate,
    kruskal_mst,
    mst_propagate,
    shortest_path_propagate,
)
from .collection import (
    CorrespondenceMap,
    GeodesicOracle,
    Shape,
    ShapeCollection,
    identity_map,
    intra_metric,
)
from .errors import CorrsyncError, IndexRangeError, InvalidValueError, ManifestError
from .flow import MAX_PATHS_DEFAULT, directed_flow_matrix
from .matching import baseline_pairwise_align, fps_landmarks
from .soft import LAMBDA_DEFAULT, frechet_mean, mle, propagate_soft, tv_distance

SOFT_METHODS = ("frechet", "mle")


@dataclass(frozen=True)
class ErrorCurve:
    """Cumulative fraction of landmark errors at or below each threshold."""

    method: str
    lam: float | None
    thresholds: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.fractions) < 0):
            raise ValueError("error curve must be nondecreasing")


def default_grid(count: int = 100, upper: float = 0.5) -> np.ndarray:
    if count < 1:
        raise InvalidValueError(f"error grid needs at least 1 threshold, got {count}")
    if not (math.isfinite(upper) and upper >= 0):
        raise InvalidValueError(f"error grid maximum must be finite and >= 0, got {upper!r}")
    return np.linspace(0.0, upper, count)


def geodesic_errors(
    predicted,
    gt_pairs: list[tuple[int, int]],
    oracle: GeodesicOracle,
    normalize: bool = True,
) -> np.ndarray:
    """Geodesic distance on the target between predictions and true vertices.

    predicted is a vertex->vertex mapping or a discrete map (a soft map raises
    CorrsyncError); distances divide by the target's geodesic diameter unless
    normalize is off. The graph is undirected, so each error is read from the
    true vertex's cached row: the rows of all true vertices come from one
    oracle call, and each is computed once however many maps are scored
    against it.
    """
    if not gt_pairs:
        raise ManifestError("no shared landmark labels between the two shapes")
    if isinstance(predicted, CorrespondenceMap):
        if predicted.kind != "discrete":
            raise CorrsyncError(
                f"map {predicted.source_id!r} -> {predicted.target_id!r} is soft; "
                f"geodesic errors are defined for discrete maps only"
            )
        predicted = predicted.indices
    scale = oracle.diameter() if normalize else 1.0
    preds = [int(predicted[s]) for s, _ in gt_pairs]
    for p in preds:
        if not 0 <= p < oracle.n:
            raise IndexRangeError(
                f"shape {oracle.shape.id!r}: predicted vertex {p} out of range"
            )
    truth = sorted({t for _, t in gt_pairs})
    at = {t: i for i, t in enumerate(truth)}
    rows = oracle.distance_rows(truth)
    return rows[[at[t] for _, t in gt_pairs], preds] / scale


def curve_from_errors(
    errors: np.ndarray,
    grid: np.ndarray | None = None,
    method: str = "",
    lam: float | None = None,
    normalized: bool = True,
) -> ErrorCurve:
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ManifestError("cannot build an error curve from zero errors")
    if grid is None:
        grid = default_grid(upper=0.5 if normalized else float(errors.max()))
    grid = np.asarray(grid, dtype=float)
    fractions = (errors[None, :] <= grid[:, None]).mean(axis=1)
    return ErrorCurve(method=method, lam=lam, thresholds=grid, fractions=fractions)


def shared_label_pairs(a: Shape, b: Shape) -> list[tuple[int, int]]:
    if not a.ground_truth or not b.ground_truth:
        return []
    labels = sorted(set(a.ground_truth) & set(b.ground_truth))
    return [(a.ground_truth[lab], b.ground_truth[lab]) for lab in labels]


@dataclass
class BenchmarkResult:
    curves: list[ErrorCurve]
    errors: dict[tuple[str, float | None], np.ndarray]
    pairs: list[tuple[str, str]]


def run_benchmark(
    collection: ShapeCollection,
    methods: tuple[str, ...] = METHODS,
    lams: tuple[float, ...] = (LAMBDA_DEFAULT,),
    to_mean: bool = False,
    grid: np.ndarray | None = None,
    normalize: bool = True,
    epsilon: float | None = None,
    max_paths: int = MAX_PATHS_DEFAULT,
) -> BenchmarkResult:
    """Error curves for each propagation method over labeled shape pairs.

    Pairs are all ordered pairs, or only pairs into the distance-centered hub
    shape when to_mean is set. Path-based methods produce one curve per lam;
    the route-based methods ignore lam and produce a single curve.
    """
    for m in methods:
        if m not in METHODS:
            raise InvalidValueError(f"unknown method {m!r}; choose from {METHODS}")
    ids = collection.ids
    if to_mean:
        hub = int(np.argmin((collection.D**2).sum(axis=1)))
        hub_id = ids[hub]
        pairs = [(a, hub_id) for a in ids if a != hub_id]
    else:
        pairs = [(a, b) for a in ids for b in ids if a != b]

    gt: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for a, b in pairs:
        got = shared_label_pairs(collection.shape(a), collection.shape(b))
        if not got:
            raise ManifestError(f"shapes {a!r} and {b!r} share no landmark labels")
        gt[(a, b)] = got

    oracles = {sid: collection.oracle(sid) for sid in {b for _, b in pairs}}
    errors: dict[tuple[str, float | None], list[float]] = {}

    for m in methods:
        if m in SOFT_METHODS:
            continue
        built: dict[tuple[str, str], CorrespondenceMap] = {}
        for a, b in pairs:
            if m == "direct":
                built[(a, b)], route = direct_propagate(collection, a, b), (a, b)
            elif m == "mst":
                built[(a, b)], route = mst_propagate(collection, a, b)
            else:
                built[(a, b)], route = shortest_path_propagate(collection, a, b, epsilon=epsilon)
            for u, v in zip(route, route[1:]):
                if collection.map(u, v).kind != "discrete":
                    raise CorrsyncError(
                        f"map {u!r} -> {v!r} is soft; the {m} route {a!r} -> {b!r} "
                        f"composes discrete maps only"
                    )
        errs: list[float] = []
        for a, b in pairs:
            errs.extend(
                geodesic_errors(built[(a, b)], gt[(a, b)], oracles[b], normalize=normalize)
            )
        errors[(m, None)] = errs

    soft_requested = [m for m in methods if m in SOFT_METHODS]
    if soft_requested:
        for lam in lams:
            per_method: dict[str, list[float]] = {m: [] for m in soft_requested}
            for a, b in pairs:
                sources = sorted({s for s, _ in gt[(a, b)]})
                soft = propagate_soft(
                    collection, a, b, lam=lam, source_points=sources, max_paths=max_paths
                )
                if "mle" in per_method:
                    per_method["mle"].extend(
                        geodesic_errors(mle(soft), gt[(a, b)], oracles[b], normalize=normalize)
                    )
                if "frechet" in per_method:
                    per_method["frechet"].extend(
                        geodesic_errors(
                            frechet_mean(soft, oracles[b]), gt[(a, b)], oracles[b],
                            normalize=normalize,
                        )
                    )
            for m in soft_requested:
                errors[(m, lam)] = per_method[m]

    curves = []
    final_errors: dict[tuple[str, float | None], np.ndarray] = {}
    for m in methods:
        keys = [(m, None)] if m not in SOFT_METHODS else [(m, lam) for lam in lams]
        for key in keys:
            arr = np.asarray(errors[key], dtype=float)
            final_errors[key] = arr
            curves.append(
                curve_from_errors(arr, grid, method=m, lam=key[1], normalized=normalize)
            )
    return BenchmarkResult(curves=curves, errors=final_errors, pairs=pairs)


# ---------------------------------------------------------------------------
# synthetic collections


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, roughly uniform unit-sphere sampling."""
    i = np.arange(count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = golden * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _bump_deform(base: np.ndarray, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    radial = np.ones(base.shape[0])
    for _ in range(6):
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        width = rng.uniform(0.35, 0.7)
        amp = rng.uniform(-amplitude, amplitude)
        d2 = ((base - center) ** 2).sum(axis=1)
        radial += amp * np.exp(-d2 / (2.0 * width * width))
    return base * radial[:, None]


def synth_collection(
    n_shapes: int,
    n_points: int,
    deform_amplitude: float,
    seed: int,
    *,
    map_source: str = "align",
    landmark_count: int = 16,
    allow_duplicates: bool = False,
) -> ShapeCollection:
    """Deformed-sphere collection with shared indexing and labeled landmarks.

    Every shape deforms one deterministic base sampling radially by six
    Gaussian bumps of relative height at most deform_amplitude, a finite number
    in [0, 1], so the ground-truth correspondence is the identity on indices.
    Landmark labels sit on farthest-point vertices of the base cloud. Stored
    maps and inter-shape distances come from rigid alignment ("align") or are
    the exact identity maps ("truth"); distances are symmetrized by averaging
    both directions.
    """
    if map_source not in ("align", "truth"):
        raise ValueError("map_source must be 'align' or 'truth'")
    if n_shapes < 1:
        raise InvalidValueError(f"shape count must be at least 1, got {n_shapes}")
    if not (math.isfinite(deform_amplitude) and 0 <= deform_amplitude <= 1):
        raise InvalidValueError(
            f"deform amplitude must be a finite number in [0, 1], got {deform_amplitude!r}"
        )
    base = fibonacci_sphere(n_points)
    base_shape = Shape(id="base", points=base)
    fps = fps_landmarks(base_shape, landmark_count, intra_metric(base_shape))
    labels = {f"L{m:02d}": int(v) for m, v in enumerate(fps.indices)}

    shapes = []
    for s in range(n_shapes):
        rng = np.random.default_rng([seed, s])
        pts = _bump_deform(base, rng, deform_amplitude)
        shapes.append(
            Shape(
                id=f"s{s:02d}",
                points=pts,
                landmark_indices=list(fps.indices),
                ground_truth=dict(labels),
                scalar_field=np.linalg.norm(pts, axis=1),
            )
        )

    n = n_shapes
    D = np.zeros((n, n))
    maps: dict[tuple[str, str], CorrespondenceMap] = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if map_source == "align":
                res = baseline_pairwise_align(shapes[a], shapes[b], iterations=8)
                maps[(shapes[a].id, shapes[b].id)] = res.map
                D[a, b] = res.distance
            else:
                maps[(shapes[a].id, shapes[b].id)] = identity_map(
                    shapes[a].id, n_points, shapes[b].id
                )
                D[a, b] = float(
                    np.sqrt(np.mean(np.sum((shapes[a].points - shapes[b].points) ** 2, axis=1)))
                )
    D = 0.5 * (D + D.T)

    return ShapeCollection(
        shapes=shapes, D=D, maps=maps, beta=1.0, allow_duplicates=allow_duplicates
    )


def corrupt_maps(
    collection: ShapeCollection,
    fraction: float,
    seed: int,
) -> ShapeCollection:
    """Corrupt a seeded choice of unordered pairs by permuting target vertices.

    For each chosen pair, a random permutation of a seeded half of the second
    shape's vertices composes onto the stored map, and the reverse map composes
    with the inverse permutation, so mutual-inverse pairs stay mutual inverses.
    Returns a new collection; the input is untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    ids = collection.ids
    unordered = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    rng = np.random.default_rng(seed)
    count = int(round(fraction * len(unordered)))
    chosen_idx = sorted(rng.choice(len(unordered), size=count, replace=False).tolist())
    corrupted = [unordered[i] for i in chosen_idx]

    new_maps = dict(collection.maps)
    for a, b in corrupted:
        fwd = new_maps[(a, b)]
        rev = new_maps.get((b, a))
        if fwd.kind != "discrete" or (rev is not None and rev.kind != "discrete"):
            raise ValueError("corruption supports discrete maps only")
        n_b = fwd.n_target
        m = max(2, int(round(0.5 * n_b)))
        subset = rng.choice(n_b, size=min(m, n_b), replace=False)
        perm = np.arange(n_b, dtype=np.int64)
        perm[subset] = subset[rng.permutation(subset.size)]
        inv = np.argsort(perm)
        new_maps[(a, b)] = replace(fwd, indices=perm[fwd.indices])
        if rev is not None:
            new_maps[(b, a)] = replace(rev, indices=rev.indices[inv])

    return replace(collection, D=collection.D.copy(), maps=new_maps)


# ---------------------------------------------------------------------------
# stability under collection edits


@dataclass
class StabilityReport:
    mst_before: tuple[tuple[str, str], ...]
    mst_after: tuple[tuple[str, str], ...]
    mst_changed: bool
    flow_edge_diff: dict[tuple[str, str], int]
    tv: dict[tuple[str, str], float]
    shared_ids: tuple[str, ...]


def add_far_shape(collection: ShapeCollection, factor: float = 10.0) -> ShapeCollection:
    """New collection plus one shape, "far", uniformly farther than every distance.

    The far shape copies the first shape's geometry and maps, so it is valid to
    query but never lies between any original pair. A map into or out of the
    first shape that is not stored raises MissingMapError; factor must be a
    finite number above 1.
    """
    if not (math.isfinite(factor) and factor > 1):
        raise InvalidValueError(f"far-shape factor must be a finite number > 1, got {factor!r}")
    far_id = "far"
    if far_id in collection.ids:
        raise ManifestError(f"id {far_id!r} already present")
    first = collection.shapes[0]
    far = Shape(
        id=far_id,
        points=first.points.copy(),
        landmark_indices=list(first.landmark_indices) if first.landmark_indices else None,
        ground_truth=dict(first.ground_truth) if first.ground_truth else None,
        scalar_field=None if first.scalar_field is None else first.scalar_field.copy(),
    )
    n = collection.n
    dist = factor * float(collection.D.max()) if collection.D.max() > 0 else factor
    D = np.zeros((n + 1, n + 1))
    D[:n, :n] = collection.D
    D[n, :n] = dist
    D[:n, n] = dist

    maps = dict(collection.maps)
    for sid in collection.ids:
        maps[(far_id, sid)] = replace(collection.map(first.id, sid), source_id=far_id)
        maps[(sid, far_id)] = replace(collection.map(sid, first.id), target_id=far_id)
    return replace(collection, shapes=collection.shapes + [far], D=D, maps=maps)


def remove_shape(collection: ShapeCollection, shape_id: str) -> ShapeCollection:
    """New collection without one shape and everything referencing it."""
    drop = collection.index(shape_id)
    keep = [i for i in range(collection.n) if i != drop]
    shapes = [collection.shapes[i] for i in keep]
    D = collection.D[np.ix_(keep, keep)]
    maps = {
        (a, b): m
        for (a, b), m in collection.maps.items()
        if a != shape_id and b != shape_id
    }
    return replace(collection, shapes=shapes, D=D, maps=maps)


def _mst_id_edges(collection: ShapeCollection) -> tuple[tuple[str, str], ...]:
    tree = kruskal_mst(collection.D)
    ids = collection.ids
    return tuple(sorted(tuple(sorted((ids[a], ids[b]))) for a, b in tree.edges))


def stability_report(
    before: ShapeCollection,
    after: ShapeCollection,
    lam: float = 0.0,
) -> StabilityReport:
    """Compare flow structure and soft rows across a collection edit.

    Flow edges are compared on the shared shapes only; the total-variation
    numbers take the worst row over the default query vertices (landmarks, or
    every vertex) of each shared ordered pair.
    """
    shared = tuple(sid for sid in before.ids if sid in set(after.ids))
    pairs = [(a, b) for a in shared for b in shared if a != b]

    flow_diff: dict[tuple[str, str], int] = {}
    tv: dict[tuple[str, str], float] = {}
    for a, b in pairs:
        fb = directed_flow_matrix(before.D, before.index(a), before.index(b), beta=before.beta)
        fa = directed_flow_matrix(after.D, after.index(a), after.index(b), beta=after.beta)
        rows_b = [before.index(s) for s in shared]
        rows_a = [after.index(s) for s in shared]
        sub_b = fb.F[np.ix_(rows_b, rows_b)]
        sub_a = fa.F[np.ix_(rows_a, rows_a)]
        flow_diff[(a, b)] = int((sub_b != sub_a).sum())

        soft_b = propagate_soft(before, a, b, lam=lam)
        soft_a = propagate_soft(after, a, b, lam=lam)
        worst = 0.0
        for v in soft_b.queries.tolist():
            worst = max(worst, tv_distance(soft_b.row(v), soft_a.row(v)))
        tv[(a, b)] = worst

    mst_b = _mst_id_edges(before)
    mst_a = _mst_id_edges(after)
    # changed = the tree differs among surviving shapes; a new shape hanging
    # off as a leaf does not count, a rerouted path between old shapes does
    shared_set = set(shared)
    kept_b = {e for e in mst_b if e[0] in shared_set and e[1] in shared_set}
    kept_a = {e for e in mst_a if e[0] in shared_set and e[1] in shared_set}
    return StabilityReport(
        mst_before=mst_b,
        mst_after=mst_a,
        mst_changed=kept_b != kept_a,
        flow_edge_diff=flow_diff,
        tv=tv,
        shared_ids=shared,
    )
