"""recap-engine: deterministic governance for layered evidence bundles.

The engine parses a single-document project bundle, enforces the layered
inheritance laws (grandparent / parent / child), computes evidence tiers,
polices the one-route commitment, detects illegal cross-layer information
flow, and produces the mandatory audit outputs. It validates human-declared
assessments; it never produces them.
"""

from importlib import import_module

#: Public name -> the module defining it. Names are imported on first use
#: (PEP 562), so a command loads only the modules it runs.
_EXPORTS = {
    "Diagnostic": "diagnostics",
    "OperationRejected": "diagnostics",
    "Severity": "diagnostics",
    "explain_code": "diagnostics",
    "Identifier": "identifiers",
    "Assessment": "model",
    "BundleIndex": "model",
    "EvidentialUnit": "model",
    "ProjectBundle": "model",
    "Route": "model",
    "Tier": "model",
    "ParseResult": "bundle",
    "load_bundle": "bundle",
    "parse_bundle": "bundle",
    "serialize_bundle": "bundle",
    "check_tier_declaration": "tiering",
    "compute_tier": "tiering",
    "tier_unit": "tiering",
    "check_route_coherence": "routing",
    "declare_route": "routing",
    "freeze_route": "routing",
    "revise_route": "routing",
    "check_flow": "contamination",
    "scan_bundle": "contamination",
    "trace_downstream": "contamination",
    "validate_insight": "contamination",
    "bump_version": "layers",
    "check_law_evolution": "layers",
    "resolve_constraints": "layers",
    "build_study_log": "reporting",
    "build_tier_table": "reporting",
    "compliance_verdict": "reporting",
    "render_report": "reporting",
    "validate_reviewer_block": "reporting",
    "append_event": "audit",
    "replay": "audit",
}

__version__ = "0.1.0"

ENGINE_VERSION = __version__

__all__ = sorted(["ENGINE_VERSION", *_EXPORTS])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
