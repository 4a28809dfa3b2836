import numpy as np
import pytest

from corrsync.collection import GeodesicOracle, Shape
from corrsync.errors import CorrsyncError
from corrsync.flow import directed_flow_matrix
from corrsync.geometry import (
    GeodesicLegPath,
    SphereTriangle,
    TangentVector,
    holonomy_deficit,
    transport_along_path,
)
from corrsync.matching import detect_extrema

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def _no_field_extrema():
    shape = Shape(id="a", points=np.c_[np.arange(4.0), np.zeros(4), np.zeros(4)])
    return detect_extrema(shape, GeodesicOracle(shape, k=1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: directed_flow_matrix(np.zeros((2, 3)), 0, 1),
        lambda: TangentVector(2 * EZ, EX),
        lambda: TangentVector(EZ, EZ),
        lambda: GeodesicLegPath((EZ,)),
        lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EX, EY)),
        lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EZ, EX), "euler"),
        lambda: holonomy_deficit(SphereTriangle(EZ, EX, EY), TangentVector(EX, EY)),
        _no_field_extrema,
    ],
    ids=["flow-not-square", "not-unit", "not-tangent", "one-point-path", "path-base-point",
         "unknown-method", "triangle-base-point", "no-scalar-field"],
)
def test_library_argument_errors_are_corrsync_errors(call):
    # the CLI exits 1 without a traceback only on a CorrsyncError, and these
    # stay ValueErrors for callers that catch those
    with pytest.raises(CorrsyncError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
