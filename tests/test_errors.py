import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsync.baselines import shortest_path_propagate
from corrsync.benchmark import (
    add_far_shape,
    corrupt_maps,
    curve_from_errors,
    default_grid,
    fibonacci_sphere,
    geodesic_errors,
    run_benchmark,
    stability_report,
    synth_collection,
)
from corrsync.collection import GeodesicOracle, Shape, ShapeCollection, intra_metric
from corrsync.errors import CorrsyncError, IndexRangeError, check_integer, check_real
from corrsync.flow import brute_force_paths, directed_flow_matrix, enumerate_paths
from corrsync.geometry import (
    GeodesicLegPath,
    SphereTriangle,
    TangentVector,
    build_lattice,
    holonomy_deficit,
    lattice_walks,
    transport_along_path,
)
from corrsync.matching import (
    baseline_pairwise_align,
    detect_extrema,
    fps_landmarks,
    gp_partial_match,
    match_pair,
    stable_curvature_match,
)
from corrsync.soft import propagate_soft

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
D3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
MATCH = dict(radius=0.2, delta=0.6, max_matches=15, lam=0.978, landmarks=10, hops=1, k=8)


@functools.cache
def _c() -> ShapeCollection:
    return synth_collection(4, 60, 0.1, 0, map_source="truth")


def _match(**kw):
    return match_pair(_c(), "s00", "s01", **{**MATCH, **kw})


def _no_field_extrema():
    shape = Shape(id="a", points=np.c_[np.arange(4.0), np.zeros(4), np.zeros(4)])
    return detect_extrema(shape, GeodesicOracle(shape, k=1))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: directed_flow_matrix(np.zeros((2, 3)), 0, 1), "D must be square"),
        (lambda: directed_flow_matrix(D3, 0.9, 2.2), "endpoint 0.9"),
        (lambda: directed_flow_matrix(D3, True, 2), "endpoint True"),
        (lambda: brute_force_paths(D3, 0, 2.0), "endpoint 2.0"),
        (lambda: brute_force_paths(D3, 0, -1), "endpoint must be in [0, 2], got -1"),
        (lambda: lattice_walks(build_lattice(4), "standard", 1, 0, source=1.9, target=14.7),
         "source 1.9"),
        (lambda: lattice_walks(build_lattice(4), "standard", 2.5, 0), "walks 2.5"),
        (lambda: lattice_walks(build_lattice(4), "standard", True, 0), "walks True"),
        (lambda: lattice_walks(build_lattice(4), "standard", 1, 0, max_steps=2.5),
         "max_steps 2.5"),
        (lambda: build_lattice(4.0), "side 4.0"),
        (lambda: TangentVector(2 * EZ, EX), "unit vector"),
        (lambda: TangentVector(EZ, EZ), "tangent"),
        (lambda: GeodesicLegPath((EZ,)), "two points"),
        (lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EX, EY)),
         "path start"),
        (lambda: transport_along_path(GeodesicLegPath((EZ, EX)), TangentVector(EZ, EX), "euler"),
         "unknown method"),
        (lambda: holonomy_deficit(SphereTriangle(EZ, EX, EY), TangentVector(EX, EY)),
         "first vertex"),
        (_no_field_extrema, "no scalar field"),
        # bare TypeErrors and ValueErrors before the one rule per argument kind
        (lambda: _match(hops=1.5), "hops 1.5"),
        (lambda: _c().oracle("s00", k=2.5), "k 2.5"),
        (lambda: _c().oracle("s00", k=True), "k True"),
        (lambda: synth_collection(2.5, 30, 0.1, 0), "shape count 2.5"),
        (lambda: synth_collection(2, 30, 0.1, 1.5), "seed 1.5"),
        (lambda: default_grid(2.5), "error grid count 2.5"),
        (lambda: corrupt_maps(_c(), 0.5, -1), "seed must be at least 0, got -1"),
        (lambda: lattice_walks(build_lattice(4), "standard", 2, -1),
         "seed must be at least 0, got -1"),
        (lambda: propagate_soft(_c(), "s00", "s01", lam="0.5"), "lambda"),
        (lambda: _match(radius="0.2"), "radius"),
        (lambda: shortest_path_propagate(_c(), "s00", "s01", epsilon="1"), "epsilon"),
        # accepted silently before it
        (lambda: _match(hops=True), "hops True"),
        (lambda: _match(max_matches=2.5), "max_matches 2.5"),
        (lambda: synth_collection(2, 30, 0.1, 0, landmark_count=True), "landmark count True"),
        (lambda: default_grid(True), "error grid count True"),
        (lambda: propagate_soft(_c(), "s00", "s01", max_paths=True), "max_paths True"),
        (lambda: propagate_soft(_c(), "s00", "s01", lam=True), "lambda"),
        (lambda: ShapeCollection(_c().shapes, _c().D, _c().maps, beta=True), "beta"),
        (lambda: synth_collection(2, 30, True, 0), "deform amplitude"),
        (lambda: lattice_walks(build_lattice(4), "standard", 2, 0, beta=True), "beta"),
        (lambda: shortest_path_propagate(_c(), "s00", "s01", epsilon=True), "epsilon"),
        # after the k=8 oracle is built, so 8.0 would find it in the cache
        (lambda: (_c().oracle("s00"), _c().oracle("s00", k=8.0)), "k 8.0"),
        # a misleading map-size error before it
        (lambda: synth_collection(2, 30.5, 0.1, 0), "point count 30.5"),
        # a bare KeyError, a decreasing grid taken, and a soft method dropped
        (lambda: geodesic_errors({0: 1}, [(5, 5)], _c().oracle("s01")), "source vertex 5"),
        (lambda: curve_from_errors(np.array([0.0]), grid=np.array([0.5, 0.0])),
         "nondecreasing"),
        (lambda: curve_from_errors(np.array([0.0]), grid=np.array([0.0, np.nan])), "NaN"),
        (lambda: run_benchmark(_c(), methods=("direct", "mle"), lams=()), "lambda"),
        # accepted by a run without the shortest method before the up-front check
        *((lambda bad=bad: run_benchmark(_c(), methods=("direct",), epsilon=bad), "epsilon")
          for bad in (True, "x", -1.0, math.nan)),
    ],
    ids=["flow-not-square", "flow-float-endpoint", "flow-bool-endpoint",
         "brute-force-float-endpoint", "brute-force-negative-endpoint",
         "lattice-float-endpoint", "lattice-float-count",
         "lattice-bool-count", "lattice-float-max-steps", "lattice-float-side",
         "not-unit", "not-tangent",
         "one-point-path", "path-base-point", "unknown-method", "triangle-base-point",
         "no-scalar-field",
         "match-float-hops", "oracle-float-k", "oracle-bool-k", "synth-float-shapes",
         "synth-float-seed", "grid-float-count", "corrupt-negative-seed",
         "lattice-negative-seed", "propagate-str-lam", "match-str-radius",
         "shortest-str-epsilon",
         "match-bool-hops", "match-float-max-matches", "synth-bool-landmarks",
         "grid-bool-count", "propagate-bool-max-paths", "propagate-bool-lam",
         "collection-bool-beta", "synth-bool-amplitude", "lattice-bool-beta",
         "shortest-bool-epsilon", "oracle-integral-float-k",
         "synth-float-points",
         "geodesic-missing-source", "curve-decreasing-grid", "curve-nan-grid",
         "benchmark-soft-method-without-lambda", "benchmark-bool-epsilon",
         "benchmark-str-epsilon", "benchmark-negative-epsilon", "benchmark-nan-epsilon"],
)
def test_library_argument_errors_are_corrsync_errors(call, named):
    # the CLI exits 1 without a traceback only on a CorrsyncError, and these
    # stay ValueErrors for callers that catch those
    with pytest.raises(CorrsyncError) as exc:
        call()
    assert isinstance(exc.value, ValueError)
    assert named in str(exc.value)


@pytest.mark.parametrize("source", [35, -1], ids=["beyond-prediction", "negative"])
def test_scored_source_outside_the_prediction(source):
    # a bare IndexError, and a negative source read from the array's end,
    # before every scored source was checked against the prediction
    oracle = synth_collection(3, 40, 0.1, 0, map_source="truth").oracle("s01")
    with pytest.raises(IndexRangeError, match=f"source vertex {source} out of range"):
        geodesic_errors(np.arange(30), [(source, 5)], oracle)


def _flow():
    return directed_flow_matrix(_c().D, 0, 1)


def _oracle(shape_id="s00"):
    return _c().oracle(shape_id)


# Every public entry point with a scalar parameter, each called with one such
# parameter replaced: (label, call, parameter, kind). A call's other arguments
# are valid, so an error it raises comes from the replaced one.
SCALAR_PARAMETERS = [
    *(("synth_collection", lambda **kw: synth_collection(
        **{"n_shapes": 2, "n_points": 30, "deform_amplitude": 0.1, "seed": 0,
           "map_source": "truth", "landmark_count": 4, **kw}), p, kind)
      for p, kind in (("n_shapes", "integer"), ("n_points", "integer"),
                      ("deform_amplitude", "real"), ("seed", "integer"),
                      ("landmark_count", "integer"))),
    *(("corrupt_maps", lambda **kw: corrupt_maps(**{"collection": _c(), "fraction": 0.5,
                                                    "seed": 0, **kw}), p, kind)
      for p, kind in (("fraction", "real"), ("seed", "integer"))),
    *(("default_grid", default_grid, p, kind)
      for p, kind in (("count", "integer"), ("upper", "real"))),
    ("add_far_shape", lambda **kw: add_far_shape(_c(), **kw), "factor", "real"),
    ("run_benchmark", lambda lam=0.5, **kw: run_benchmark(
        _c(), methods=("direct", "shortest", "mle"), lams=(lam,), **kw), "lam", "real"),
    ("run_benchmark", lambda **kw: run_benchmark(
        _c(), methods=("direct", "shortest", "mle"), **kw), "max_paths", "integer"),
    ("run_benchmark", lambda **kw: run_benchmark(
        _c(), methods=("direct", "shortest", "mle"), **kw), "epsilon", "epsilon"),
    ("stability_report", lambda **kw: stability_report(_c(), _c(), **kw), "lam", "real"),
    *(("propagate_soft", lambda **kw: propagate_soft(_c(), "s00", "s01", **kw), p, kind)
      for p, kind in (("lam", "real"), ("max_paths", "integer"))),
    *(("enumerate_paths", lambda **kw: enumerate_paths(_flow(), **kw), p, kind)
      for p, kind in (("lam", "real"), ("max_paths", "integer"))),
    *(("directed_flow_matrix", lambda **kw: directed_flow_matrix(
        **{"D": _c().D, "i": 0, "j": 1, **kw}), p, kind)
      for p, kind in (("i", "integer"), ("j", "integer"), ("beta", "real"))),
    ("shortest_path_propagate",
     lambda **kw: shortest_path_propagate(_c(), "s00", "s01", **kw), "epsilon", "epsilon"),
    *(("match_pair", _match, p, "integer" if isinstance(v, int) else "real")
      for p, v in MATCH.items()),
    ("fps_landmarks", lambda **kw: fps_landmarks(_c().shape("s00"), oracle=_oracle(), **kw),
     "count", "integer"),
    ("detect_extrema", lambda **kw: detect_extrema(_c().shape("s00"), _oracle(), **kw),
     "hops", "integer"),
    ("gp_partial_match", lambda **kw: gp_partial_match(
        None, None, (), (), oracle_a=_oracle(), oracle_b=_oracle("s01"), **kw),
     "radius", "real"),
    ("stable_curvature_match", lambda **kw: stable_curvature_match(
        _c().shape("s00").points, _c().shape("s01").points, [], [],
        oracle_a=_oracle(), oracle_b=_oracle("s01"), **kw), "delta", "real"),
    ("baseline_pairwise_align", lambda **kw: baseline_pairwise_align(
        _c().shape("s00"), _c().shape("s01"), **kw), "iterations", "integer"),
    ("ShapeCollection", lambda **kw: ShapeCollection(_c().shapes, _c().D, _c().maps, **kw),
     "beta", "real"),
    ("ShapeCollection.oracle", lambda **kw: _c().oracle("s00", **kw), "k", "integer"),
    ("intra_metric", lambda **kw: intra_metric(_c().shape("s00"), **kw), "k", "integer"),
    ("build_lattice", build_lattice, "side", "integer"),
    ("fibonacci_sphere", fibonacci_sphere, "count", "integer"),
    *(("lattice_walks", lambda **kw: lattice_walks(
        **{"lattice": build_lattice(4), "mode": "standard", "count": 2, "seed": 0, **kw}),
        p, kind)
      for p, kind in (("count", "integer"), ("seed", "integer"), ("beta", "real"),
                      ("max_steps", "integer"), ("source", "vertex"), ("target", "vertex"))),
]

_NOT_NUMBERS = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.sampled_from([math.nan, math.inf, -math.inf])
)
_NON_INTEGRAL = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()
)
# the values each kind of parameter refuses: a real parameter may take any
# finite float, epsilon also inf, and a lattice endpoint None for its corner
_REFUSED = {
    "integer": st.one_of(_NOT_NUMBERS, _NON_INTEGRAL),
    "real": _NOT_NUMBERS,
    "epsilon": _NOT_NUMBERS.filter(lambda v: v is not None and v != math.inf),
    "vertex": st.one_of(_NOT_NUMBERS.filter(lambda v: v is not None), _NON_INTEGRAL),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_parameters_refuse_other_kinds(data):
    # the one outcome allowed is an error that is both a CorrsyncError and a
    # ValueError: not a bare TypeError, a truncated count or a value taken silently
    label, call, param, kind = data.draw(st.sampled_from(SCALAR_PARAMETERS), label="entry")
    value = data.draw(_REFUSED[kind], label=f"{label}({param}=...)")
    with pytest.raises(CorrsyncError) as exc:
        call(**{param: value})
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "check, kwargs, message",
    [
        (check_integer, dict(value=0, what="walks", low=1), "walks must be at least 1, got 0"),
        (check_integer, dict(value=31, what="landmark count", low=1, high=30),
         "landmark count must be in [1, 30], got 31"),
        (check_integer, dict(value=2.0, what="k"), "k 2.0 is not an integer"),
        (check_real, dict(value=0, what="radius", low=0, strict=True),
         "radius must be a finite number > 0, got 0"),
        (check_real, dict(value=-1.0, what="epsilon", low=0),
         "epsilon must be a finite number >= 0, got -1.0"),
        (check_real, dict(value=1.5, what="lambda", low=0, high=1),
         "lambda must be a finite number in [0, 1], got 1.5"),
        (check_real, dict(value=10**400, what="beta", low=0, strict=True),
         "beta must be a finite number > 0, got 1000"),
    ],
    ids=["integer-below", "integer-above", "integer-float", "real-strict", "real-below",
         "real-above", "real-int-beyond-float"],
)
def test_one_message_per_rule(check, kwargs, message):
    with pytest.raises(CorrsyncError) as exc:
        check(**kwargs)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value).startswith(message)


def test_checks_return_python_numbers():
    assert type(check_integer(np.int64(3), "count", 1)) is int
    assert type(check_real(np.float32(0.5), "lambda", 0, high=1)) is float
    assert check_real(2, "beta", 0, strict=True) == 2.0
