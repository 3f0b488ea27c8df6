"""The study log and the tier table against an oracle.

The oracle is the row code as it was written before the rows were built in
one pass: a dict of the mandatory fields per unit, a generator over the
direction tags, each project's row order sorted by each report. The
engine's rows, its rejection and its diagnostics (code, location, message,
order) must equal the oracle's; and each project's row order is sorted
once per state, for both reports."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import recap_engine.reporting as reporting
from genbundles import edit, parse_dict, random_bundle_dict

from recap_engine.diagnostics import Diagnostic, OperationRejected, error
from recap_engine.model import BIAS_DIRECTION_TAGS, BundleIndex, StudyLogEntry, Tier
from recap_engine.model import TierTableRow


def _oracle_units(index: BundleIndex, project) -> list:
    return sorted(
        index.active_units(project), key=lambda u: (u.study_id.local_name, u.study_id.render())
    )


def _oracle_study_log(index: BundleIndex, project) -> tuple | OperationRejected:
    diags: list[Diagnostic] = []
    entries = []
    for unit in _oracle_units(index, project):
        where = unit.study_id.render()
        tier = unit.declared_tier
        mandatory = {
            "design_type": unit.design_type,
            "tier_assignment": tier.label if tier is not None else "",
            "reasons_for_tiering": unit.tier_justification,
            "bias_considerations": unit.bias_considerations,
        }
        diags += [error("E_MISSING_FIELD", where, f"unit lacks declared {name}")
                  for name, value in mandatory.items() if not value.strip()]
        lowered = unit.bias_considerations.lower()
        if unit.bias_considerations.strip() and not any(t in lowered for t in BIAS_DIRECTION_TAGS):
            diags.append(
                error(
                    "E_BIAS_DIRECTION",
                    where,
                    "bias considerations state no directional implication "
                    f"(one of: {', '.join(BIAS_DIRECTION_TAGS)})",
                )
            )
        entries.append(StudyLogEntry(
            unit.study_id.local_name, unit.design_type, mandatory["tier_assignment"],
            unit.tier_justification, unit.bias_considerations, unit.measurement_issues, unit.notes,
        ))
    return OperationRejected(diags) if diags else tuple(entries)


def _oracle_tier_table(index: BundleIndex, project) -> list:
    rows = []
    for unit in _oracle_units(index, project):
        if unit.declared_tier not in (Tier.CORE, Tier.SUPPLEMENT):
            continue
        rows.append(TierTableRow(
            unit.study_id.local_name, unit.methods_summary,
            reporting._evidence_type(index, project, unit), unit.strengths, unit.limitations,
        ))
    return rows


def _as_rows(built) -> object:
    if built.__class__ is OperationRejected:
        return [(d.code, d.location, d.message, d.severity) for d in built.diagnostics]
    return [vars(entry) for entry in built]


#: What a mandatory text field is set to: empty, blank, or kept.
_BLANKS = st.sampled_from(["", " ", "\t\n　", None])
#: A bias text: arbitrary, or a direction tag in any case amid arbitrary text.
_TAG = st.sampled_from([case(tag) for tag in BIAS_DIRECTION_TAGS
                        for case in (str.lower, str.upper, str.title)])
_TAGGED = st.builds(lambda a, tag, b: a + tag + b, st.text(max_size=8), _TAG, st.text(max_size=8))
_BIAS = st.none() | st.text(max_size=24) | _TAGGED


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_the_rows_and_findings_equal_the_oracles(seed, data):
    bundle = parse_dict(random_bundle_dict(random.Random(seed)))
    units = bundle.units
    touched = data.draw(st.lists(st.booleans(), min_size=len(units), max_size=len(units)))
    for unit in (unit for unit, touch in zip(units, touched) if touch):
        changes = {}
        for name in ("design_type", "tier_justification"):
            blank = data.draw(_BLANKS)
            if blank is not None:
                changes[name] = blank
        if data.draw(st.booleans()):
            changes["declared_tier"] = None
        bias = data.draw(_BIAS)
        if bias is not None:
            changes["bias_considerations"] = bias
        if changes:
            edit(bundle, unit, **changes)
    oracle = BundleIndex(bundle)
    index = BundleIndex.of(bundle)
    for project in bundle.projects:
        assert _as_rows(reporting._study_log(index, project)) == _as_rows(
            _oracle_study_log(oracle, project))
        assert [vars(row) for row in reporting.build_tier_table(bundle, project)] == [
            vars(row) for row in _oracle_tier_table(oracle, project)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text() | _TAGGED)
def test_the_direction_tag_test_equals_any_tag_in_the_lowered_text(text):
    expected = any(tag in text.lower() for tag in BIAS_DIRECTION_TAGS)
    assert reporting._has_direction_tag(text) == expected


def test_each_projects_row_order_is_sorted_once_per_state_for_both_reports(monkeypatch):
    bundle = parse_dict(random_bundle_dict(random.Random(11), n_children=3))
    sorted_for = []
    units = reporting._row_units

    def counted(index, project):
        sorted_for.append(project.id)
        return units(index, project)

    monkeypatch.setattr(reporting, "_row_units", counted)
    # The tier table first, then the verdict's study logs, then both reports again.
    for project in bundle.projects:
        reporting.build_tier_table(bundle, project)
    reporting.compliance_verdict(bundle)
    for project in bundle.projects:
        reporting.build_study_log(bundle, project)
        reporting.build_tier_table(bundle, project)
    assert sorted_for == [project.id for project in bundle.projects]

    # A new state sorts again, once.
    project = bundle.projects[0]
    edit(bundle, bundle.units[0], notes="A new state.")
    reporting.build_study_log(bundle, project)
    reporting.build_tier_table(bundle, project)
    assert sorted_for == [p.id for p in bundle.projects] + [project.id]
