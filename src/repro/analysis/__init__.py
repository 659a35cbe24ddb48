"""Analysis utilities: the pluggable :class:`AnalysisBackend` registry with
the competing flow-aware analyses (:mod:`repro.analysis.flowaware`), bound
validation, report formatting and the closed-form grids of the paper's
bounds (:mod:`repro.analysis.vector`)."""

from .backends import (
    AnalysisBackend,
    available_analysis_backends,
    make_analysis_backend,
    normalize_analysis_backend_name,
    register_analysis_backend,
)
from .flowaware import FlowAwareWCTTAnalysis, HolisticAnalysis, TrajectoryAnalysis
from .reporting import format_grid, format_key_values, format_table, format_title
from .validation import BoundValidationResult, validate_design, validate_flow_bound
from .vector import (
    VectorRegularAnalysis,
    VectorWaWWaPAnalysis,
    make_vector_analysis,
    vector_supported,
    vector_wctt_map,
    vector_wctt_summary,
)

__all__ = [
    "AnalysisBackend",
    "available_analysis_backends",
    "make_analysis_backend",
    "normalize_analysis_backend_name",
    "register_analysis_backend",
    "FlowAwareWCTTAnalysis",
    "HolisticAnalysis",
    "TrajectoryAnalysis",
    "format_grid",
    "format_key_values",
    "format_table",
    "format_title",
    "BoundValidationResult",
    "validate_design",
    "validate_flow_bound",
    "VectorRegularAnalysis",
    "VectorWaWWaPAnalysis",
    "make_vector_analysis",
    "vector_supported",
    "vector_wctt_map",
    "vector_wctt_summary",
]
