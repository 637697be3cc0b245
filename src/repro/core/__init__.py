"""SafeBound core: degree sequences, compression, conditioning, FDSB."""

from .arraykernel import Ragged, compile_array_program, evaluate_bounds
from .bound import CompiledSkeleton, FdsbEngine, compile_skeleton, worst_case_instance_column
from .cache import LRUCache
from .compression import (
    dominate_ds_compress,
    equi_depth_compress,
    exponential_compress,
    reduce_cds_segments,
    relative_self_join_error,
    self_join_bound,
    valid_compress,
)
from .conditioning import ConditionedRelation, ConditioningConfig
from .degree_sequence import DegreeSequence
from .piecewise import (
    PiecewiseConstant,
    PiecewiseLinear,
    concave_envelope,
    pointwise_max,
    pointwise_min,
    pointwise_sum,
)
from .piecewise import concave_max
from .predicates import And, Eq, InList, Like, Or, Predicate, Range
from .safebound import SafeBound, SafeBoundConfig
from .serialization import load_stats, save_stats, stats_digest
from .stats_builder import build_statistics
from .updates import FrequencyCounter, IncrementalColumnStats, pad_cds

__all__ = [
    "SafeBound",
    "SafeBoundConfig",
    "ConditioningConfig",
    "ConditionedRelation",
    "Ragged",
    "compile_array_program",
    "evaluate_bounds",
    "DegreeSequence",
    "FdsbEngine",
    "CompiledSkeleton",
    "compile_skeleton",
    "LRUCache",
    "worst_case_instance_column",
    "valid_compress",
    "equi_depth_compress",
    "exponential_compress",
    "dominate_ds_compress",
    "reduce_cds_segments",
    "self_join_bound",
    "relative_self_join_error",
    "PiecewiseConstant",
    "PiecewiseLinear",
    "concave_envelope",
    "concave_max",
    "pointwise_min",
    "pointwise_max",
    "pointwise_sum",
    "build_statistics",
    "Predicate",
    "Eq",
    "Range",
    "Like",
    "InList",
    "And",
    "Or",
    "save_stats",
    "load_stats",
    "stats_digest",
    "FrequencyCounter",
    "IncrementalColumnStats",
    "pad_cds",
]
