"""Correlation-sharing toolkit for small multipartite quantum states.

Computes bipartite correlation measures (concurrence and concurrence of
assistance), the residual-correlation machinery behind tightened polygamy and
monogamy bounds, exponent-threshold solvers, and deterministic sweep /
figure / fuzz commands.
"""

from .measures import (
    CONCURRENCE,
    CONCURRENCE_ASSISTANCE,
    TAU_ASSISTANCE,
    CorrelationMeasure,
    MeasureValue,
    OptimizerConfig,
    assistance_2q,
    concurrence_pure,
    convex_roof,
    get_measure,
    measure_bipartite,
    wootters_concurrence,
)
from .states import (
    Bipartition,
    DensityMatrix,
    PureState,
    cut_a_vs_rest,
    ghz_state,
    haar_random_pure,
    make_family,
    partial_trace,
    state_from_json,
    state_to_json,
    w_state,
)

__all__ = [
    "Bipartition",
    "CONCURRENCE",
    "CONCURRENCE_ASSISTANCE",
    "CorrelationMeasure",
    "DensityMatrix",
    "MeasureValue",
    "OptimizerConfig",
    "PureState",
    "TAU_ASSISTANCE",
    "assistance_2q",
    "concurrence_pure",
    "convex_roof",
    "cut_a_vs_rest",
    "get_measure",
    "ghz_state",
    "haar_random_pure",
    "make_family",
    "measure_bipartite",
    "partial_trace",
    "state_from_json",
    "state_to_json",
    "w_state",
    "wootters_concurrence",
]

__version__ = "0.1.0"
