"""Layer hierarchy, downward constraint resolution, and law governance.

Constraints flow down the grandparent/parent/child tree; the child
contributes nothing to its own constraint set. Grandparent laws evolve
append-only through versioned changelog entries, and the four protected
laws can never change at all.

The version bump and its changelog check are in ``operations``, which only
writes load.
"""

from __future__ import annotations

from . import forwarder
from .bundle import VERSION_RE
from .diagnostics import Diagnostic, OperationRejected, error
from .identifiers import Identifier
from .model import Abstraction, BundleIndex, Law, LayerDecl, ProjectBundle, VersionBumped
from .records import field, record

__getattr__ = forwarder(
    globals(), dict.fromkeys(("bump_version", "check_changelog_entry"), "operations")
)

#: Local names of the four protected laws every grandparent carries.
CORE_LAW_NAMES = (
    "anti_reification",
    "one_route",
    "construct_measurement_separation",
    "grandparent_insulation",
)


def parse_version(text: str) -> tuple[int, int] | None:
    m = VERSION_RE.match(text or "")
    return (int(m.group(1)), int(m.group(2))) if m else None


# ---------------------------------------------------------------------------
# Constraint resolution
# ---------------------------------------------------------------------------


@record
class EffectiveConstraintSet:
    """Everything a child layer inherits: all grandparent laws plus the
    owning parent's abstractions and correspondence rules."""

    child: Identifier
    laws: list[Law] = field(factory=list)
    abstractions: list[Abstraction] = field(factory=list)
    correspondences: dict[str, str] = field(factory=dict)


def resolve_constraints(bundle: ProjectBundle, child_id: Identifier) -> EffectiveConstraintSet:
    """Deterministic union of inherited constraints for a child layer.

    Pure: never mutates the bundle. Quarantined declarations are inert and
    do not resolve.
    """
    layers = BundleIndex.of(bundle).layers
    layer = layers.get(child_id)
    if layer is None:
        raise OperationRejected(
            [error("E_UNKNOWN_LAYER", "layers", f"no layer {child_id.render()}")]
        )
    if layer.kind != "child":
        raise OperationRejected(
            [error("E_NOT_CHILD", "layers", f"{child_id.render()} is a {layer.kind} layer")]
        )
    parent = layers.get(layer.parent_ref)
    gp = bundle.grandparent()
    result = EffectiveConstraintSet(child=child_id)
    result.laws = [law for law in gp.laws if not law.quarantined]
    if parent is not None:
        result.abstractions = [ab for ab in parent.abstractions if not ab.quarantined]
        for ab in result.abstractions:
            result.correspondences.update(ab.correspondence)
    return result


# ---------------------------------------------------------------------------
# Law evolution
# ---------------------------------------------------------------------------


def check_law_evolution(old_laws: list[Law], new_laws: list[Law]) -> list[Diagnostic]:
    """Append-only check between two grandparent law sets.

    Clean iff the new set is a superset by id, shared ids keep byte-identical
    text, and every protected law survives unchanged and still flagged.
    """
    diags: list[Diagnostic] = []
    new_by_id = {law.id.render(): law for law in new_laws}
    for old in old_laws:
        key = old.id.render()
        new = new_by_id.get(key)
        if new is None:
            diags.append(error("E_LAW_RESCINDED", key, f"law {key} was removed"))
            if old.immutable_core:
                diags.append(error("E_CORE_TOUCHED", key, f"protected law {key} was removed"))
            continue
        if new.text != old.text:
            diags.append(error("E_LAW_REWRITTEN", key, f"law {key} text changed"))
            if old.immutable_core:
                diags.append(error("E_CORE_TOUCHED", key, f"protected law {key} was rewritten"))
        if old.immutable_core and not new.immutable_core:
            diags.append(
                error("E_CORE_TOUCHED", key, f"protected law {key} lost its immutable flag")
            )
    return diags


def validate_grandparent_laws(gp: LayerDecl) -> list[Diagnostic]:
    """Presence and flagging of the four protected laws."""
    diags: list[Diagnostic] = []
    by_name = {law.id.local_name: law for law in gp.laws}
    for name in CORE_LAW_NAMES:
        law = by_name.get(name)
        path = f"layers.{gp.local_name}.laws"
        if law is None:
            diags.append(error("E_CORE_LAW_MISSING", path, f"protected law {name!r} absent"))
        elif not law.immutable_core:
            diags.append(
                error("E_CORE_TOUCHED", path, f"protected law {name!r} lost its immutable flag")
            )
    for law in gp.laws:
        if law.immutable_core and law.id.local_name not in CORE_LAW_NAMES:
            diags.append(
                error(
                    "E_CORE_FLAG",
                    law.id.render(),
                    f"{law.id.render()} may not carry the immutable-core flag",
                )
            )
    return diags


def law_history(bundle: ProjectBundle) -> list[tuple[str, list[Law]]]:
    """(version, law set) across all recorded bumps, oldest first.

    The pre-history law set cannot be reconstructed from events alone, so the
    history starts at the first recorded bump. A recorded bump whose payload
    does not decode is not in it: the verdict reports that payload
    (:attr:`~.model.BundleIndex.payloads`).
    """
    return [
        (bump.entry.to_version, bump.laws)
        for bump in BundleIndex.of(bundle).payloads
        if bump.__class__ is VersionBumped
    ]
