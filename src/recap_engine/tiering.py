"""Deterministic tier computation and tier-change governance.

The decision table is a fixed, non-circumventable sequence: fundamental
mismatch or opacity excludes immediately, speculation excludes, hard
measurement/design failures exclude, a fully clean unit is core, and
anything in between is supplement exactly when every limited dimension is
covered by an explicit declared assumption. Uncovered ambiguity is
speculation, so it excludes.
"""

from __future__ import annotations

from .bundle import encode
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import Identifier
from .model import (
    Assessment,
    BundleIndex,
    DeclaredAssumption,
    EvidentialUnit,
    ProjectBundle,
    ReTierEvent,
    Tier,
    event_time_key,
    event_timestamp_error,
)
from .records import field, record, replace

# Write operations import .audit (and with it datetime) when they run, so
# read-only commands never load it.


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


def effective_tier(unit: EvidentialUnit) -> Tier | None:
    """Current tier: the declaration, which re-tier events keep up to date."""
    return unit.declared_tier


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


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def declare_tier(
    bundle: ProjectBundle,
    unit_id: Identifier,
    tier: Tier,
    justification: str,
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Record a tier declaration. The declaration must agree with the table;
    mismatches are rejected so non-compliance cannot enter through this door."""
    from .audit import commit, now_utc

    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    if not justification.strip():
        raise reject("E_NO_JUSTIFICATION", unit_id.render(), "justification must be nonempty")
    decision = tier_unit(unit)  # raises E_MUST_SPLIT for splittable ambiguity
    if decision.tier != tier:
        raise reject(
            "E_TIER_MISMATCH",
            unit_id.render(),
            f"declared {tier.label} but the table gives {decision.tier.label}",
        )
    commit(
        bundle,
        "tier_declared",
        {"unit": unit_id.render(), "tier": tier.label, "justification": justification},
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=[unit_id.render()],
    )
    return bundle


def apply_retier(
    bundle: ProjectBundle,
    unit_id: Identifier,
    event: ReTierEvent,
    *,
    new_interpretations: list[Assessment] | None = None,
    new_assumptions: list[DeclaredAssumption] | None = None,
    justification: str = "",
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Re-tier a unit with a complete, timestamped event.

    The declared assessments are updated in the same transaction so the
    declaration still matches the table afterwards; silent modification has
    no code path.
    """
    from .audit import commit, now_utc

    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    diags: list[Diagnostic] = []
    for name in ("timestamp", "source_of_information", "justification", "implications_for_route"):
        if not getattr(event, name).strip():
            diags.append(
                error(
                    "E_SILENT_RETIER",
                    unit_id.render(),
                    f"re-tier event lacks {name}; silent modification is prohibited",
                )
            )
    # A blank stamp is reported above; the chain's time order needs the log's form.
    stamp_error = event.timestamp.strip() and event_timestamp_error(event.timestamp)
    if stamp_error:
        diags.append(error("E_SYNTAX", unit_id.render(), stamp_error))
    if event.old_tier != effective_tier(unit):
        current = effective_tier(unit)
        diags.append(
            error(
                "E_STALE_OLD_TIER",
                unit_id.render(),
                f"event claims old tier {event.old_tier.label} but the unit is "
                f"{current.label if current else 'undeclared'}",
            )
        )
    if diags:
        raise OperationRejected(diags)
    probe = replace(
        unit,
        interpretations=new_interpretations or unit.interpretations,
        explicit_assumptions=(
            new_assumptions if new_assumptions is not None else unit.explicit_assumptions
        ),
    )
    decision = tier_unit(probe)
    if decision.tier != event.new_tier:
        raise reject(
            "E_TIER_MISMATCH",
            unit_id.render(),
            f"re-tier to {event.new_tier.label} but the updated assessments "
            f"give {decision.tier.label}",
        )
    payload: dict = {
        "unit": unit_id.render(),
        "event": encode(event),
        "justification": justification,
    }
    probe_record = encode(probe)
    if new_interpretations is not None:
        payload["interpretations"] = probe_record["interpretations"]
    if new_assumptions is not None:
        payload["explicit_assumptions"] = probe_record["explicit_assumptions"]
    commit(
        bundle,
        "retier",
        payload,
        actor=actor,
        timestamp=timestamp or event.timestamp,
        affected=[unit_id.render()],
    )
    return bundle


def split_unit(
    bundle: ProjectBundle,
    unit_id: Identifier,
    names: list[Identifier],
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> list[EvidentialUnit]:
    """Split a multi-interpretation unit into one unit per interpretation.

    New units inherit the design type, the narrative fields, and the
    declared assumptions, carry a provenance link to the source, and start
    untiered. Each part's copy of an assumption is named after the part
    (``<part>_<assumption>``), so no two declarations share an id. The
    source stays in the document, marked superseded.
    """
    from .audit import commit, now_utc

    unit = BundleIndex.of(bundle).units.get(unit_id)
    if unit is None:
        raise reject("E_UNRESOLVED_REF", unit_id.render(), "unit not found")
    diags: list[Diagnostic] = []
    if not unit.splittable:
        diags.append(error("E_NOT_SPLITTABLE", unit_id.render(), "unit is not splittable"))
    if len(names) != len(unit.interpretations):
        diags.append(
            error(
                "E_NAME_ARITY",
                unit_id.render(),
                f"{len(unit.interpretations)} interpretations but {len(names)} names",
            )
        )
    if len({n.render() for n in names}) != len(names):
        diags.append(error("E_NAME_ARITY", unit_id.render(), "split names must be unique"))
    parts = [
        replace(
            unit,
            study_id=name,
            interpretations=(interp,),
            splittable=False,
            declared_tier=None,
            tier_justification="",
            explicit_assumptions=tuple(
                replace(a, id=Identifier(
                    name.namespace, name.owner, f"{name.local_name}_{a.id.local_name}"
                ))
                for a in unit.explicit_assumptions
            ),
            retier_events=(),
            split_from=unit_id,
            superseded=False,
        )
        for name, interp in zip(names, unit.interpretations)
    ]
    if diags:
        raise OperationRejected(diags)
    commit(
        bundle,
        "unit_split",
        {"source": unit_id.render(), "units": [encode(part) for part in parts]},
        actor=actor,
        timestamp=timestamp or now_utc(),
        affected=[unit_id.render()] + [n.render() for n in names],
    )
    units = BundleIndex.of(bundle).units
    return [units[name] for name in names]
