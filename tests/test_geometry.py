import tracemalloc

import numpy as np
import pytest

from corrsync.errors import (
    AntipodalError,
    DegenerateGeometryError,
    InvalidValueError,
    MaxStepsError,
)
from corrsync.geometry import (
    GeodesicLegPath,
    SphereTriangle,
    TangentVector,
    build_lattice,
    holonomy_deficit,
    interior_angle,
    lattice_walks,
    random_triangle,
    spherical_excess,
    tangent_toward,
    transport_along_path,
    transport_leg_closed,
    transport_leg_rk4,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


class TestLattice:
    def test_sizes_and_degrees(self):
        lat = build_lattice(5)
        assert lat.coords.shape == (25, 2)
        degs = [len(nb) for nb in lat.neighbor_lists]
        # corners touch 3 cells, edges 5, interior 8; vertex row * side + col
        assert degs[0 * lat.side + 0] == 3
        assert degs[0 * lat.side + 2] == 5
        assert degs[2 * lat.side + 2] == 8

    def test_coords_span_unit_square(self):
        lat = build_lattice(5)
        assert lat.coords.min() == 0.0 and lat.coords.max() == 1.0

class TestLatticeWalks:
    def test_standard_walks_deterministic(self):
        lat = build_lattice(7)
        a = lattice_walks(lat, mode="standard", count=4, seed=5)
        b = lattice_walks(lat, mode="standard", count=4, seed=5)
        assert a.walks == b.walks

    def test_nonbacktracking_never_reverses(self):
        lat = build_lattice(7)
        rep = lattice_walks(lat, mode="nonbacktracking", count=10, seed=5)
        for walk in rep.walks:
            for k in range(2, len(walk)):
                assert walk[k] != walk[k - 2]

    def test_eop_walks_reach_target(self):
        lat = build_lattice(7)
        rep = lattice_walks(lat, mode="eop", count=20, seed=3)
        tgt = 6 * lat.side + 6
        assert len(rep.walks) == 20
        for walk in rep.walks:
            assert walk[0] == 0 * lat.side + 0
            assert walk[-1] == tgt

    def test_eop_distance_profile_strictly_monotone(self):
        lat = build_lattice(7)
        rep = lattice_walks(lat, mode="eop", count=20, seed=3)
        src = lat.coords[0 * lat.side + 0]
        tgt = lat.coords[6 * lat.side + 6]
        for walk in rep.walks:
            assert (np.diff([np.linalg.norm(lat.coords[v] - tgt) for v in walk]) < 0).all()
            assert (np.diff([np.linalg.norm(lat.coords[v] - src) for v in walk]) > 0).all()
            for u, v in zip(walk, walk[1:]):
                assert v in lat.neighbor_lists[u]

    @pytest.mark.parametrize(
        "source, target, beta, discarded",
        [(40, 4, 1.0, 18), (10, 70, 50.0, 23)],
    )
    def test_eop_discards_stranded_walks(self, source, target, beta, discarded):
        # off the corners, a walk can strand at a vertex with no
        # neighbor both farther from the source and closer to the target
        rep = lattice_walks(build_lattice(9), mode="eop", count=30, seed=0,
                            source=source, target=target, beta=beta)
        assert rep.discarded == discarded
        assert len(rep.walks) == 30
        assert all(w[0] == source and w[-1] == target for w in rep.walks)

    def test_eop_attempt_limit(self):
        # at beta 1e6 every step weight underflows to 0, so every walk strands
        with pytest.raises(MaxStepsError, match="eop sampling produced 0 walks in 1500 attempts"):
            lattice_walks(build_lattice(21), mode="eop", count=30, seed=0,
                          source=220, target=3, beta=1e6)

    def test_eop_memory_grows_with_vertices_not_pairs(self):
        lat = build_lattice(40)
        tracemalloc.start()
        try:
            lattice_walks(lat, mode="eop", count=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense (side^2 x side^2) float matrix alone would take 20 MB here
        assert peak < 8 * 2**20

    def test_mode_rejected(self):
        lat = build_lattice(5)
        with pytest.raises(ValueError):
            lattice_walks(lat, mode="levy", count=1, seed=0)

    def test_unknown_mode_is_an_invalid_value(self):
        with pytest.raises(InvalidValueError, match="unknown mode 'levy'"):
            lattice_walks(build_lattice(5), mode="levy", count=1, seed=0)


class TestTransport:
    def test_preserves_norm_and_tangency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tri = random_triangle(rng)
            v = tangent_toward(tri.p, tri.q)
            out = transport_leg_closed(tri.p, tri.r, v)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)
            assert abs(out @ tri.r) < 1e-12

    def test_rk4_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tri = random_triangle(rng)
            v = tangent_toward(tri.p, tri.q)
            closed = transport_leg_closed(tri.p, tri.r, v)
            rk4 = transport_leg_rk4(tri.p, tri.r, v)
            assert np.linalg.norm(closed - rk4) < 1e-9

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalError):
            transport_leg_closed(EX, -EX, EY)

    def test_coincident_endpoints_are_identity(self):
        out = transport_leg_closed(EX, EX.copy(), EY)
        assert np.allclose(out, EY)

    def test_base_point_mismatch_rejected(self):
        path = GeodesicLegPath((EX, EZ))
        with pytest.raises(ValueError):
            transport_along_path(path, TangentVector(EY, EX), method="closed")

    def test_path_transport_returns_tangent_at_end(self):
        path = GeodesicLegPath((EX, EZ, EY))
        out = transport_along_path(path, TangentVector(EX, EY), method="closed")
        assert np.allclose(out.point, EY)
        assert abs(out.vector @ EY) < 1e-12


class TestHolonomy:
    def test_octant_deficit(self):
        tri = SphereTriangle(EX, EY, EZ)
        tv = TangentVector(EX, tangent_toward(EX, EY))
        res = holonomy_deficit(tri, tv)
        assert res.deficit == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert res.area == pytest.approx(np.pi / 2, abs=1e-12)
        assert res.bound == pytest.approx(4.0 / 3.0 * np.pi / 2, abs=1e-12)
        assert res.bound_satisfied

    def test_octant_angles(self):
        tri = SphereTriangle(EX, EY, EZ)
        assert interior_angle(EX, EY, EZ) == pytest.approx(np.pi / 2)
        assert spherical_excess(tri) == pytest.approx(np.pi / 2)

    def test_deficit_equals_rotation_chord(self):
        # transporting a unit tangent around the closed triangle rotates it by
        # the spherical excess; the two-leg-vs-direct gap is the chord length
        rng = np.random.default_rng(17)
        for _ in range(25):
            tri = random_triangle(rng)
            tv = TangentVector(tri.p, tangent_toward(tri.p, tri.q))
            res = holonomy_deficit(tri, tv)
            assert res.deficit == pytest.approx(
                2.0 * np.sin(spherical_excess(tri) / 2.0), abs=1e-12
            )

    def test_bound_on_random_triangles(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tri = random_triangle(rng)
            tv = TangentVector(tri.p, tangent_toward(tri.p, tri.q))
            res = holonomy_deficit(tri, tv)
            assert res.bound_satisfied
            assert res.deficit <= res.bound + 1e-12

    def test_triangle_validation(self):
        with pytest.raises(ValueError):
            SphereTriangle(EX * 2.0, EY, EZ)
        with pytest.raises(AntipodalError):
            SphereTriangle(EX, -EX, EZ)


class TestTangentHelpers:
    def test_tangent_toward_is_unit_and_tangent(self):
        v = tangent_toward(EX, EY)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(v @ EX) < 1e-12
        assert v @ EY > 0

    def test_tangent_vector_validation(self):
        with pytest.raises(ValueError):
            TangentVector(EX, EX)
        with pytest.raises(ValueError):
            TangentVector(EX * 1.5, EY)
