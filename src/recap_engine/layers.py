"""Layer hierarchy, downward constraint resolution, and law governance.

Constraints flow down the grandparent/parent/child tree; the child
contributes nothing to its own constraint set. Grandparent laws evolve
append-only through versioned changelog entries, and the four protected
laws can never change at all.
"""

from __future__ import annotations

from .bundle import VERSION_RE, decode_payload, encode, text_fields
from .diagnostics import Diagnostic, OperationRejected, error, reject
from .identifiers import Identifier, extract_references
from .model import Abstraction, BundleIndex, ChangelogEntry, Law, LayerDecl, ProjectBundle
from .records import field, record

# Write operations import .audit (and with it datetime) when they run, so
# read-only commands never load it.

#: Local names of the four protected laws every grandparent carries.
CORE_LAW_NAMES = (
    "anti_reification",
    "one_route",
    "construct_measurement_separation",
    "grandparent_insulation",
)

#: Canonical seed text for the protected laws, used when the engine creates
#: a grandparent itself. Hand-authored bundles may word them differently but
#: must keep each wording byte-stable across versions.
CORE_LAW_SEEDS = {
    "anti_reification": (
        "Constructs, categories, and variables are analytic instruments, not "
        "natural kinds; their legitimacy derives from their inferential role."
    ),
    "one_route": (
        "A project commits to exactly one inferential route; comparison is "
        "exploratory, commitment is singular."
    ),
    "construct_measurement_separation": (
        "Constructs are defined conceptually; measurements approximate them "
        "and never define them."
    ),
    "grandparent_insulation": (
        "Laws of this layer cannot be modified from below; lower layers may "
        "only propose abstracted, append-only methodological refinements."
    ),
}


def parse_version(text: str) -> tuple[int, int] | None:
    m = VERSION_RE.match(text or "")
    return (int(m.group(1)), int(m.group(2))) if m else None


def seed_core_laws() -> list[Law]:
    """The four protected laws, as the engine would seed a new grandparent."""
    return [
        Law(id=Identifier("gp", "", name), text=CORE_LAW_SEEDS[name], immutable_core=True)
        for name in CORE_LAW_NAMES
    ]


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

    def law_ids(self) -> set[str]:
        return {law.id.render() for law in self.laws}

    def abstraction_ids(self) -> set[str]:
        return {ab.id.render() for ab in self.abstractions}


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


# ---------------------------------------------------------------------------
# Version bumps
# ---------------------------------------------------------------------------


def _upward_content_in_entry(entry: ChangelogEntry) -> list[Diagnostic]:
    """Changelog narratives may cite grandparent ids only; parent or child
    references are domain content and bar the bump."""
    diags: list[Diagnostic] = []
    for name in text_fields(ChangelogEntry):
        for ref in extract_references(getattr(entry, name)):
            if ref.namespace != "gp":
                diags.append(
                    error(
                        "E_UPWARD_CONTENT",
                        f"changelog.{name}",
                        f"{ref.render()} is domain content; only methodological "
                        "reasoning is admissible",
                    )
                )
    return diags


def check_changelog_entry(entry: ChangelogEntry, current_version: str) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for name in text_fields(ChangelogEntry):
        if not getattr(entry, name).strip():
            diags.append(
                error("E_CHANGELOG_INCOMPLETE", f"changelog.{name}", f"{name} must be nonempty")
            )
    old = parse_version(entry.from_version)
    new = parse_version(entry.to_version)
    if old is None or new is None or new <= old:
        diags.append(
            error(
                "E_VERSION_ORDER",
                "changelog.to_version",
                f"{entry.to_version!r} does not advance {entry.from_version!r}",
            )
        )
    if entry.from_version != current_version:
        diags.append(
            error(
                "E_VERSION_STALE",
                "changelog.from_version",
                f"bump starts at {entry.from_version!r} but the registry is at "
                f"{current_version!r}",
            )
        )
    diags.extend(_upward_content_in_entry(entry))
    return diags


def bump_version(
    bundle: ProjectBundle,
    entry: ChangelogEntry,
    new_laws: list[Law],
    *,
    actor: str = "engine",
    timestamp: str | None = None,
) -> ProjectBundle:
    """Advance the grandparent to entry.to_version with an append-only law
    set. Rejection is atomic: any diagnostic leaves the bundle untouched."""
    from .audit import commit, now_utc

    gp = bundle.grandparent()
    diags = check_changelog_entry(entry, gp.version)
    diags.extend(check_law_evolution(gp.laws, new_laws))
    if diags:
        raise OperationRejected(diags)
    commit(
        bundle,
        "version_bumped",
        {
            "entry": encode(entry),
            "laws": [encode(law) for law in new_laws],
        },
        actor=actor,
        timestamp=timestamp or entry.timestamp or now_utc(),
        affected=[gp.id.render()],
    )
    return bundle


def law_history(bundle: ProjectBundle) -> list[tuple[str, list[Law]]]:
    """(version, law set) across all recorded bumps, oldest first.

    The pre-history law set cannot be reconstructed from events alone, so the
    history starts at the first recorded bump. A recorded bump whose payload
    does not decode is rejected with E_PAYLOAD_SCHEMA.
    """
    history = []
    for i, event in enumerate(bundle.events):
        if event.kind == "version_bumped":
            try:
                bump = decode_payload(event.kind, event.payload)
            except ValueError as exc:
                raise reject("E_PAYLOAD_SCHEMA", f"events[{i}].payload", str(exc)) from exc
            history.append((bump.entry.to_version, bump.laws))
    return history
