"""recap-engine: deterministic governance for layered evidence bundles.

The engine parses a single-document project bundle, enforces the layered
inheritance laws (grandparent / parent / child), computes evidence tiers,
polices the one-route commitment, detects illegal cross-layer information
flow, and produces the mandatory audit outputs. It validates human-declared
assessments; it never produces them.
"""

from .diagnostics import Diagnostic, OperationRejected, Severity, explain_code
from .identifiers import Identifier
from .model import (
    Assessment,
    BundleIndex,
    ProjectBundle,
    Route,
    Tier,
    EvidentialUnit,
)
from .bundle import parse_bundle, serialize_bundle, load_bundle, ParseResult
from .tiering import compute_tier, tier_unit, check_tier_declaration
from .routing import check_route_coherence, declare_route, freeze_route, revise_route
from .contamination import check_flow, scan_bundle, trace_downstream, validate_insight
from .layers import resolve_constraints, check_law_evolution, bump_version
from .reporting import (
    build_study_log,
    build_tier_table,
    compliance_verdict,
    render_report,
    validate_reviewer_block,
)
from .audit import append_event, replay

__version__ = "0.1.0"

ENGINE_VERSION = __version__

__all__ = [
    "Assessment",
    "BundleIndex",
    "Diagnostic",
    "ENGINE_VERSION",
    "EvidentialUnit",
    "Identifier",
    "OperationRejected",
    "ParseResult",
    "ProjectBundle",
    "Route",
    "Severity",
    "Tier",
    "append_event",
    "build_study_log",
    "build_tier_table",
    "bump_version",
    "check_flow",
    "check_law_evolution",
    "check_route_coherence",
    "check_tier_declaration",
    "compliance_verdict",
    "compute_tier",
    "declare_route",
    "explain_code",
    "freeze_route",
    "load_bundle",
    "parse_bundle",
    "render_report",
    "replay",
    "resolve_constraints",
    "revise_route",
    "scan_bundle",
    "serialize_bundle",
    "tier_unit",
    "trace_downstream",
    "validate_insight",
    "validate_reviewer_block",
]
