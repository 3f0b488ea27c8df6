"""Deterministic tier computation and tier-change governance.

The decision table is a fixed, non-circumventable sequence: fundamental
mismatch or opacity excludes immediately, speculation excludes, hard
measurement/design failures exclude, a fully clean unit is core, and
anything in between is supplement exactly when every limited dimension is
covered by an explicit declared assumption. Uncovered ambiguity is
speculation, so it excludes.

The tier operations are in ``operations``, which only writes load.
"""

from __future__ import annotations

from . import forwarder
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .model import Assessment, DeclaredAssumption, EvidentialUnit, Tier, event_time_key
from .records import field, record

__getattr__ = forwarder(
    globals(), dict.fromkeys(("declare_tier", "apply_retier", "split_unit"), "operations")
)


def _sub_core_dimensions(a: Assessment) -> list[str]:
    """Dimensions sitting between core-compatible and excluding values."""
    dims = []
    if a.construct_alignment == "partial":
        dims.append("construct_alignment")
    if a.measurement == "conditional_proxy":
        dims.append("measurement")
    if a.design == "limited":
        dims.append("design")
    if a.reporting == "ambiguous":
        dims.append("reporting")
    return dims


def compute_tier_decision(
    a: Assessment, assumptions: list[DeclaredAssumption]
) -> tuple[Tier, str]:
    """(tier, fired rule id) for one assessment. Total over valid inputs."""
    if a.construct_alignment == "mismatch":
        return Tier.EXCLUDED, "R_STEP1_MISMATCH"
    if a.reporting == "opaque":
        return Tier.EXCLUDED, "R_STEP1_OPACITY"
    if a.speculation_required:
        return Tier.EXCLUDED, "R_SPECULATION"
    if a.measurement == "failed":
        return Tier.EXCLUDED, "R_MEASUREMENT_FAILED"
    if a.design == "incompatible":
        return Tier.EXCLUDED, "R_DESIGN_INCOMPATIBLE"
    if (
        a.construct_alignment == "aligned"
        and a.measurement in ("adequate", "minor_limitation")
        and a.design == "sufficient"
        and a.reporting == "transparent"
    ):
        return Tier.CORE, "R_CORE"
    covered: set[str] = set()
    for assumption in assumptions:
        covered.update(assumption.covers)
    if all(dim in covered for dim in _sub_core_dimensions(a)):
        return Tier.SUPPLEMENT, "R_SUPPLEMENT_COVERED"
    return Tier.EXCLUDED, "R_UNCOVERED_AMBIGUITY"


def compute_tier(a: Assessment, assumptions: list[DeclaredAssumption]) -> Tier:
    return compute_tier_decision(a, assumptions)[0]


@record
class TierDecision:
    """A unit-level tier with its explanation."""

    tier: Tier
    rule_id: str
    per_interpretation: list[tuple[Tier, str]] = field(factory=list)
    conservative_merge: bool = False


def tier_unit(unit: EvidentialUnit) -> TierDecision:
    """Tier a whole unit.

    Single interpretation: the plain table. Multiple interpretations on a
    splittable unit must be split first. Unsplittable ambiguity takes the
    most conservative per-interpretation tier.
    """
    per = [
        compute_tier_decision(a, unit.explicit_assumptions) for a in unit.interpretations
    ]
    if len(per) == 1:
        tier, rule = per[0]
        return TierDecision(tier, rule, per, False)
    if unit.splittable:
        raise reject(
            "E_MUST_SPLIT",
            unit.study_id.render(),
            "unit has multiple interpretations and is splittable; split it "
            "before tiering",
        )
    tier, rule = min(per, key=lambda pair: pair[0])
    return TierDecision(tier, rule, per, True)


def check_tier_declaration(unit: EvidentialUnit) -> list[Diagnostic]:
    """Declared tier must match the table and carry a justification."""
    where = unit.study_id.render()
    if unit.declared_tier is None:
        return [error("E_TIER_UNDECLARED", where, "unit has no declared tier")]
    diags: list[Diagnostic] = []
    if not unit.tier_justification.strip():
        diags.append(error("E_NO_JUSTIFICATION", where, "tier declared without justification"))
    try:
        decision = tier_unit(unit)
    except OperationRejected as exc:
        return diags + exc.diagnostics
    if decision.tier != unit.declared_tier:
        diags.append(
            error(
                "E_TIER_MISMATCH",
                where,
                f"declared {unit.declared_tier.label} but the table fires "
                f"{decision.rule_id} giving {decision.tier.label}",
            )
        )
    return diags


def check_retier_chain(unit: EvidentialUnit) -> list[Diagnostic]:
    """Re-tier history must chain: each event starts where the previous one
    ended, and the last event ends at the current declaration. Events are
    in the audit log's time order (:func:`~.model.event_time_key`)."""
    diags: list[Diagnostic] = []
    where = unit.study_id.render()
    previous: Tier | None = None
    last_stamp = ""
    for i, event in enumerate(unit.retier_events):
        stamp = event_time_key(event.timestamp)
        if stamp < last_stamp:
            diags.append(
                error(
                    "E_SILENT_RETIER",
                    f"{where}.retier_events[{i}]",
                    "re-tier events are not in timestamp order",
                )
            )
        last_stamp = stamp
        if previous is not None and event.old_tier != previous:
            diags.append(
                error(
                    "E_STALE_OLD_TIER",
                    f"{where}.retier_events[{i}]",
                    f"event starts at {event.old_tier.label} but history was at "
                    f"{previous.label}",
                )
            )
        for name in ("timestamp", "source_of_information", "justification", "implications_for_route"):
            if not getattr(event, name).strip():
                diags.append(
                    error(
                        "E_SILENT_RETIER",
                        f"{where}.retier_events[{i}]",
                        f"re-tier event lacks {name}",
                    )
                )
        previous = event.new_tier
    if previous is not None and unit.declared_tier != previous:
        diags.append(
            error(
                "E_SILENT_RETIER",
                where,
                f"declared tier {unit.declared_tier.label if unit.declared_tier else 'none'} "
                f"does not match the last re-tier event ({previous.label})",
            )
        )
    return diags
