"""Correspondence synchronization for shape collections.

Given pairwise correspondence maps between shapes, this package improves any
single pair's map by fusing evidence along monotone multi-hop routes through
the rest of the collection, and ships the baselines, matching utilities,
benchmarks, and geometric experiments needed to evaluate that idea.
"""

__version__ = "0.1.0"

from .collection import (
    CorrespondenceMap,
    GeodesicOracle,
    Shape,
    ShapeCollection,
    identity_map,
    load_collection,
    save_collection,
)
from .errors import CorrsyncError
from .flow import FlowMatrix, brute_force_paths, directed_flow_matrix, enumerate_paths
from .soft import SoftCorrespondence, all_pairs_soft, frechet_mean, mle, propagate_soft

__all__ = [
    "CorrespondenceMap",
    "CorrsyncError",
    "FlowMatrix",
    "GeodesicOracle",
    "Shape",
    "ShapeCollection",
    "SoftCorrespondence",
    "__version__",
    "all_pairs_soft",
    "brute_force_paths",
    "directed_flow_matrix",
    "enumerate_paths",
    "frechet_mean",
    "identity_map",
    "load_collection",
    "mle",
    "propagate_soft",
    "save_collection",
]
