"""Irregular and modular-irregular edge labelings of small graphs.

Construct triangular book graphs and their closed-form labelings, verify
certificates, compute counting lower bounds, and solve small instances
exactly by exhaustive search.
"""

from .books import (
    irregular_labeling,
    irregular_strength,
    modular_labeling,
    modular_strength,
    predicted_weights,
)
from .bounds import (
    BoundReport,
    bound_report,
    has_small_component,
    lower_bound_s,
)
from .graphs import (
    FormatError,
    Graph,
    format_edge_list,
    make_triangular_book,
    parse_edge_list,
)
from .labelings import (
    Certificate,
    EdgeLabeling,
    Verdict,
    WeightProfile,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    make_certificate,
    verify_irregular,
    verify_modular,
    verify_profile,
    vertex_weights,
)
from .solver import SolverConfig, StrengthResult, count_labelings, solve

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Certificate",
    "EdgeLabeling",
    "FormatError",
    "Graph",
    "SolverConfig",
    "StrengthResult",
    "Verdict",
    "WeightProfile",
    "bound_report",
    "certificate_from_json",
    "certificate_to_dot",
    "certificate_to_json",
    "count_labelings",
    "format_edge_list",
    "has_small_component",
    "irregular_labeling",
    "irregular_strength",
    "lower_bound_s",
    "make_certificate",
    "make_triangular_book",
    "modular_labeling",
    "modular_strength",
    "parse_edge_list",
    "predicted_weights",
    "solve",
    "verify_irregular",
    "verify_modular",
    "verify_profile",
    "vertex_weights",
]
