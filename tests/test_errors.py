import numpy as np
import pytest

from corrsync.collection import GeodesicOracle, Shape
from corrsync.errors import CorrsyncError
from corrsync.flow import brute_force_paths, directed_flow_matrix
from corrsync.geometry import (
    GeodesicLegPath,
    SphereTriangle,
    TangentVector,
    build_lattice,
    holonomy_deficit,
    lattice_walks,
    transport_along_path,
)
from corrsync.matching import detect_extrema

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
D3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def _no_field_extrema():
    shape = Shape(id="a", points=np.c_[np.arange(4.0), np.zeros(4), np.zeros(4)])
    return detect_extrema(shape, GeodesicOracle(shape, k=1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: directed_flow_matrix(np.zeros((2, 3)), 0, 1),
        lambda: directed_flow_matrix(D3, 0.9, 2.2),
        lambda: directed_flow_matrix(D3, True, 2),
        lambda: brute_force_paths(D3, 0, 2.0),
        lambda: lattice_walks(build_lattice(4), "standard", 1, 0, source=1.9, target=14.7),
        lambda: lattice_walks(build_lattice(4), "standard", 2.5, 0),
        lambda: lattice_walks(build_lattice(4), "standard", True, 0),
        lambda: lattice_walks(build_lattice(4), "standard", 1, 0, max_steps=2.5),
        lambda: build_lattice(4.0),
        lambda: TangentVector(2 * EZ, EX),
        lambda: TangentVector(EZ, EZ),
        lambda: GeodesicLegPath((EZ,)),
        lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EX, EY)),
        lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EZ, EX), "euler"),
        lambda: holonomy_deficit(SphereTriangle(EZ, EX, EY), TangentVector(EX, EY)),
        _no_field_extrema,
    ],
    ids=["flow-not-square", "flow-float-endpoint", "flow-bool-endpoint",
         "brute-force-float-endpoint", "lattice-float-endpoint", "lattice-float-count",
         "lattice-bool-count", "lattice-float-max-steps", "lattice-float-side",
         "not-unit", "not-tangent",
         "one-point-path", "path-base-point", "unknown-method", "triangle-base-point",
         "no-scalar-field"],
)
def test_library_argument_errors_are_corrsync_errors(call):
    # the CLI exits 1 without a traceback only on a CorrsyncError, and these
    # stay ValueErrors for callers that catch those
    with pytest.raises(CorrsyncError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
