"""Curved-space validation lab.

Two experiment families back the toolkit's design rationale numerically:

* Lattice walks: on an 8-neighbor grid over the unit square, compare plain and
  nonbacktracking random walks against walks on the directed flow graph, whose
  every step moves away from the source and toward the target.

* Sphere transport: parallel transport along great-circle legs has a closed
  form (rotation about the leg's axis); comparing two-leg transport with the
  direct leg measures the holonomy deficit, which spherical geometry bounds by
  (4/3) * K_max * area. A fixed-step RK4 integration of the transport equation
  cross-checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AntipodalError, InvalidValueError, MaxStepsError, check_integer, check_real
from .flow import gibbs_weights


# ---------------------------------------------------------------------------
# lattice walks


@dataclass(frozen=True)
class LatticeGraph:
    """Regular grid over the unit square with 8-neighbor connectivity."""

    side: int
    coords: np.ndarray
    neighbor_lists: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.side * self.side


def build_lattice(side: int) -> LatticeGraph:
    side = check_integer(side, "side", 2)
    step = 1.0 / (side - 1)
    coords = np.array(
        [(col * step, row * step) for row in range(side) for col in range(side)]
    )
    neighbors: list[np.ndarray] = []
    for row in range(side):
        for col in range(side):
            adj = [
                (row + dr) * side + (col + dc)
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
                if (dr or dc) and 0 <= row + dr < side and 0 <= col + dc < side
            ]
            neighbors.append(np.array(sorted(adj), dtype=np.int64))
    return LatticeGraph(side=side, coords=coords, neighbor_lists=tuple(neighbors))


@dataclass
class LatticeWalkReport:
    mode: str
    walks: list[tuple[int, ...]]
    discarded: int
    deviations: list[float]


def _segment_deviation(coords: np.ndarray, trajectory, source: int, target: int) -> float:
    a = coords[source]
    b = coords[target]
    ab = b - a
    denom = float(np.dot(ab, ab))
    pts = coords[np.array(trajectory)]
    t = ((pts - a) @ ab) / denom
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return float(np.linalg.norm(pts - proj, axis=1).max())


def lattice_walks(
    lattice: LatticeGraph,
    mode: str,
    count: int,
    seed: int,
    source: int | None = None,
    target: int | None = None,
    beta: float = 1.0,
    max_steps: int = 100_000,
) -> LatticeWalkReport:
    """Sample corner-to-corner walks (defaults) in one of three modes.

    Every mode steps over lattice neighbors. "standard" steps uniformly,
    "nonbacktracking" additionally excludes the previous vertex, and "eop"
    steps along the directed flow graph: to a neighbor strictly farther from
    the source and strictly closer to the target, drawn by its Gibbs weight.
    An eop walk left with no such neighbor before the target is discarded and
    drawn again; the report counts the discards. Each attempt draws from its
    own (seed, attempt) stream, so results do not depend on scheduling.
    max_steps bounds each uniform walk; an eop step always nears the target,
    so an eop walk needs no bound. max_steps must be at least 1 in every mode.
    """
    check_real(beta, "beta", 0, strict=True)
    count = check_integer(count, "walks", 1)
    check_integer(seed, "seed", 0)
    max_steps = check_integer(max_steps, "max_steps", 1)
    source = 0 if source is None else check_integer(source, "source", 0, lattice.n - 1)
    target = lattice.n - 1 if target is None else check_integer(target, "target", 0, lattice.n - 1)
    if source == target:
        raise InvalidValueError(f"source and target must differ, got {source} for both")
    from_source = to_target = None
    if mode == "eop":
        from_source, to_target = (
            np.sqrt(((lattice.coords - lattice.coords[x]) ** 2).sum(axis=1))
            for x in (source, target)
        )
    elif mode not in ("standard", "nonbacktracking"):
        raise InvalidValueError(f"unknown mode {mode!r}")
    walks: list[tuple[int, ...]] = []
    discarded = attempt = 0
    # a uniform walk is never discarded, so only eop sampling can reach the limit
    limit = max(50 * count, 1000)
    while len(walks) < count:
        if attempt >= limit:
            raise MaxStepsError(f"eop sampling produced {len(walks)} walks in {attempt} attempts")
        rng = np.random.default_rng([seed, attempt])
        attempt += 1
        v = source
        prev = -1
        trajectory = [v]
        while v != target:
            options = lattice.neighbor_lists[v]
            if mode == "eop":
                # the flow graph's edges: strictly farther from the source and
                # strictly closer to the target, weighted by their step length
                options = options[
                    (from_source[options] > from_source[v]) & (to_target[options] < to_target[v])
                ]
                steps = np.sqrt(((lattice.coords[options] - lattice.coords[v]) ** 2).sum(axis=1))
                weights = gibbs_weights(steps, beta)
                options, weights = options[weights > 0], weights[weights > 0]
                if options.size == 0:
                    discarded += 1
                    break
                u = rng.choice(options, p=weights / weights.sum())
            else:
                if len(trajectory) > max_steps:
                    raise MaxStepsError(
                        f"walk from {source} to {target} did not arrive within {max_steps} steps"
                    )
                if mode == "nonbacktracking" and prev >= 0 and options.size > 1:
                    options = options[options != prev]
                u = options[rng.integers(options.size)]
            prev = v
            v = int(u)
            trajectory.append(v)
        else:  # the walk reached the target
            walks.append(tuple(trajectory))

    deviations = [
        _segment_deviation(lattice.coords, w, source, target) for w in walks
    ]
    return LatticeWalkReport(mode=mode, walks=walks, discarded=discarded, deviations=deviations)


# ---------------------------------------------------------------------------
# sphere transport


def _check_unit(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(float(np.linalg.norm(p)) - 1.0) > 1e-9:
        raise InvalidValueError(f"{what} must be a unit vector, |v| = {np.linalg.norm(p)}")
    return p


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to a point of the unit sphere, orthogonal to it."""

    point: np.ndarray
    vector: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", _check_unit(self.point, "base point"))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        if abs(float(np.dot(self.point, self.vector))) > 1e-9:
            raise InvalidValueError("vector is not tangent to the sphere at its base point")


@dataclass(frozen=True)
class SphereTriangle:
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, _check_unit(getattr(self, name), f"vertex {name}"))
        for a, b in ((self.p, self.q), (self.q, self.r), (self.r, self.p)):
            if float(np.dot(a, b)) < -1.0 + 1e-9:
                raise AntipodalError("triangle has antipodal vertices")


def _leg_angle_axis(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray | None]:
    cross = np.cross(a, b)
    s = float(np.linalg.norm(cross))
    c = float(np.dot(a, b))
    if c < -1.0 + 1e-9:
        raise AntipodalError("geodesic leg between antipodal points is not unique")
    angle = math.atan2(s, c)
    if s < 1e-15:
        return angle, None
    return angle, cross / s


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    k = axis
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def transport_leg_closed(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parallel transport along the minor great-circle arc from a to b.

    The transport is exactly the rotation carrying a to b about the arc's axis:
    it preserves the tangent of the geodesic and the component normal to it.
    """
    angle, axis = _leg_angle_axis(a, b)
    if axis is None:
        return np.array(v, dtype=float)
    return _rotation(axis, angle) @ v


def transport_leg_rk4(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Transport by integrating V' = -(V . gamma') gamma along the arc.

    Fixed-step RK4, one step per 0.002 radians and at least 64; that keeps the
    identity loop closed to within 1e-9.
    """
    angle, axis = _leg_angle_axis(a, b)
    if axis is None:
        return np.array(v, dtype=float)
    u = np.cross(axis, a)  # unit tangent at a toward b

    steps = max(64, int(math.ceil(angle / 0.002)))
    h = 1.0 / steps

    def curve(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phase = angle * ts
        c, s = np.cos(phase)[:, None], np.sin(phase)[:, None]
        return c * a + s * u, angle * (-s * a + c * u)

    grid, grid_dot = curve(np.arange(steps + 1) * h)
    mid, mid_dot = curve((np.arange(steps) + 0.5) * h)

    V = np.array(v, dtype=float)
    for i in range(steps):
        k1 = -np.dot(V, grid_dot[i]) * grid[i]
        k2 = -np.dot(V + 0.5 * h * k1, mid_dot[i]) * mid[i]
        k3 = -np.dot(V + 0.5 * h * k2, mid_dot[i]) * mid[i]
        k4 = -np.dot(V + h * k3, grid_dot[i + 1]) * grid[i + 1]
        V = V + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return V


@dataclass(frozen=True)
class GeodesicLegPath:
    """Chain of great-circle legs; consecutive legs share endpoints."""

    points: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise InvalidValueError("a leg path needs at least two points")
        pts = tuple(_check_unit(p, "leg endpoint") for p in self.points)
        object.__setattr__(self, "points", pts)
        for a, b in zip(pts, pts[1:]):
            _leg_angle_axis(a, b)  # raises on antipodal legs


def transport_along_path(
    path: GeodesicLegPath, tv: TangentVector, method: str = "closed"
) -> TangentVector:
    """Transport a tangent vector along every leg of the path in order."""
    if not np.allclose(tv.point, path.points[0], atol=1e-9):
        raise InvalidValueError("tangent vector is not based at the path start")
    v = tv.vector
    for a, b in zip(path.points, path.points[1:]):
        if method == "closed":
            v = transport_leg_closed(a, b, v)
        elif method == "rk4":
            v = transport_leg_rk4(a, b, v)
        else:
            raise InvalidValueError(f"unknown method {method!r}")
    end = path.points[-1]
    v = v - np.dot(v, end) * end  # re-project against accumulated numeric drift
    return TangentVector(point=end, vector=v)


def tangent_toward(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unit tangent at p pointing along the geodesic toward q."""
    angle, axis = _leg_angle_axis(p, q)
    if axis is None:
        raise AntipodalError("tangent direction undefined for coincident points")
    return np.cross(axis, p)


def interior_angle(at: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    ta = tangent_toward(at, b)
    tb = tangent_toward(at, c)
    return float(math.acos(max(-1.0, min(1.0, float(np.dot(ta, tb))))))


def spherical_excess(tri: SphereTriangle) -> float:
    """Triangle area on the unit sphere: sum of interior angles minus pi."""
    total = (
        interior_angle(tri.p, tri.q, tri.r)
        + interior_angle(tri.q, tri.r, tri.p)
        + interior_angle(tri.r, tri.p, tri.q)
    )
    return total - math.pi


@dataclass(frozen=True)
class HolonomyResult:
    deficit: float
    area: float
    bound: float
    bound_satisfied: bool
    two_leg: np.ndarray


def holonomy_deficit(tri: SphereTriangle, tv: TangentVector) -> HolonomyResult:
    """Difference between transporting p->r->q and directly p->q, in closed form.

    The deficit is bounded by (4/3) * K_max * area; on the unit sphere, K_max
    is 1 and the area is the spherical excess.
    """
    if not np.allclose(tv.point, tri.p, atol=1e-9):
        raise InvalidValueError("tangent vector must be based at the triangle's first vertex")
    two = transport_along_path(GeodesicLegPath((tri.p, tri.r, tri.q)), tv).vector
    direct = transport_along_path(GeodesicLegPath((tri.p, tri.q)), tv).vector
    deficit = float(np.linalg.norm(two - direct))
    area = spherical_excess(tri)
    bound = (4.0 / 3.0) * area
    return HolonomyResult(
        deficit=deficit,
        area=area,
        bound=bound,
        bound_satisfied=deficit <= bound + 1e-12,
        two_leg=two,
    )


def random_triangle(rng: np.random.Generator) -> SphereTriangle:
    """Seeded non-degenerate triangle; resamples until every leg's angle lies in
    (0.2, pi - 0.2) radians."""
    while True:
        pts = rng.normal(size=(3, 3))
        norms = np.linalg.norm(pts, axis=1)
        if (norms < 1e-6).any():
            continue
        p, q, r = (row / n for row, n in zip(pts, norms))
        angles = [
            math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))
            for a, b in ((p, q), (q, r), (r, p))
        ]
        if all(0.2 < ang < math.pi - 0.2 for ang in angles):
            return SphereTriangle(p, q, r)
