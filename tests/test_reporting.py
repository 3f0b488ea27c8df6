import copy
import random

import pytest

from genbundles import edit, edit_payload, parse_dict, random_bundle_dict
from toy import toy_dict

from recap_engine.diagnostics import OperationRejected, Severity
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import AuditEvent, BundleIndex, ChangelogEntry, Law, Tier
from recap_engine.reporting import (
    STUDY_LOG_FIELDS,
    TIER_TABLE_FIELDS,
    build_study_log,
    build_tier_table,
    compliance_verdict,
    parse_report,
    render_report,
    validate_memo,
    validate_reviewer_block,
)


def errors_of(diags):
    return [d for d in diags if d.severity == Severity.ERROR]


# ---------------------------------------------------------------------------
# Study log
# ---------------------------------------------------------------------------


def test_toy_study_log_matches_golden_rows(toy):
    entries = build_study_log(toy, toy.projects[0])
    assert [e.study_id for e in entries] == ["S1", "S2", "S3"]
    s1 = entries[0]
    assert s1.design_type == "Observational (Abstract)"
    assert s1.tier_assignment == "core"
    assert s1.reasons_for_tiering == "Construct alignment"
    assert s1.bias_considerations == "Proxy for B → nondirectional risk"
    assert s1.measurement_definition_issues == "Partial misalignment for B"
    assert s1.notes == "Adequate for R2"


def test_excluded_unit_appears_in_study_log(toy):
    entries = build_study_log(toy, toy.projects[0])
    s3 = [e for e in entries if e.study_id == "S3"]
    assert s3 and s3[0].tier_assignment == "excluded"


def test_missing_mandatory_field_rejects_the_log(toy):
    edit(toy, BundleIndex(toy).units.get(Identifier("child", "C1", "S2")), bias_considerations="")
    with pytest.raises(OperationRejected) as err:
        build_study_log(toy, toy.projects[0])
    assert "E_MISSING_FIELD" in [d.code for d in err.value.diagnostics]


def test_bias_without_direction_tag_rejected(toy):
    s1 = BundleIndex(toy).units.get(Identifier("child", "C1", "S1"))
    edit(toy, s1, bias_considerations="Some bias exists.")
    with pytest.raises(OperationRejected) as err:
        build_study_log(toy, toy.projects[0])
    assert "E_BIAS_DIRECTION" in [d.code for d in err.value.diagnostics]


def test_zero_unit_project_logs_empty_but_warns():
    doc = toy_dict()
    doc["projects"][0]["unit_refs"] = []
    doc["projects"][0]["assignments"] = []
    bundle = parse_dict(doc)
    assert build_study_log(bundle, bundle.projects[0]) == []
    report = compliance_verdict(bundle)
    assert "W_NO_UNITS" in [d.code for d in report.findings]


# ---------------------------------------------------------------------------
# Tier table
# ---------------------------------------------------------------------------


def test_toy_tier_table_matches_golden_row(toy):
    rows = build_tier_table(toy, toy.projects[0])
    assert [r.study_id for r in rows] == ["S1", "S2"]
    s1 = rows[0]
    assert s1.methods_summary == "Association between A and C via m1–m3 mapping"
    assert s1.evidence_type == "Associational"
    assert s1.strengths == "Clear construct A; transparent m1"
    assert s1.limitations == "Proxy for B"


def test_all_excluded_project_has_empty_table():
    doc = toy_dict()
    for unit in doc["units"]:
        unit["interpretations"] = [
            {
                "construct_alignment": "mismatch",
                "measurement": "failed",
                "design": "sufficient",
                "reporting": "opaque",
                "speculation_required": False,
            }
        ]
        unit["declared_tier"] = "excluded"
    doc["projects"][0]["assignments"] = []
    bundle = parse_dict(doc)
    assert build_tier_table(bundle, bundle.projects[0]) == []


def test_row_counts_and_partition_over_random_bundles():
    rng = random.Random(55)
    for _ in range(60):
        bundle = parse_dict(random_bundle_dict(rng))
        for project in bundle.projects:
            log = build_study_log(bundle, project)
            table = build_tier_table(bundle, project)
            log_ids = [e.study_id for e in log]
            table_ids = {r.study_id for r in table}
            excluded_ids = {
                e.study_id for e in log if e.tier_assignment == "excluded"
            }
            assert len(table) == len(log) - len(excluded_ids)
            assert table_ids.isdisjoint(excluded_ids)
            assert set(log_ids) == table_ids | excluded_ids
            assert log_ids == sorted(log_ids)


# ---------------------------------------------------------------------------
# Reviewer block + memo
# ---------------------------------------------------------------------------


def test_toy_reviewer_block_validates_cleanly(toy):
    assert validate_reviewer_block(toy.reviewer_blocks[0], toy) == []


def test_empty_block_emits_all_six_codes(toy):
    block = edit(
        toy,
        toy.reviewer_blocks[0],
        methodological_findings=(),
        conceptual_insight="",
        anticipated_critique_text="",
        anticipated_critique_refs=(),
        disconfirming_model="",
        assumptions_ref=(),
    )
    codes = {d.code for d in validate_reviewer_block(block, toy)}
    assert codes == {
        "E_RB_FINDINGS",
        "E_RB_INSIGHT",
        "E_RB_CRITIQUE",
        "E_RB_CRITIQUE_UNANCHORED",
        "E_RB_DISCONFIRMING",
        "E_RB_ASSUMPTIONS",
    }


def test_unanchored_critique_is_the_only_finding(toy):
    block = edit(toy, toy.reviewer_blocks[0], anticipated_critique_refs=())
    codes = [d.code for d in validate_reviewer_block(block, toy)]
    assert codes == ["E_RB_CRITIQUE_UNANCHORED"]


def test_block_must_mirror_committed_assumptions(toy):
    block = toy.reviewer_blocks[0]
    block = edit(toy, block, assumptions_ref=block.assumptions_ref[:1])
    assert [d.code for d in validate_reviewer_block(block, toy)] == ["E_RB_ASSUMPTIONS"]


def test_memo_requires_all_five_sections(toy):
    memo = toy.memos[0]
    assert validate_memo(memo) == []
    sections = dict(memo.sections)
    sections.pop("uncertainty")
    memo = edit(toy, memo, sections=sections)
    assert [d.code for d in validate_memo(memo)] == ["E_MEMO_SECTION"]


# ---------------------------------------------------------------------------
# Compliance verdict
# ---------------------------------------------------------------------------


def test_complete_toy_bundle_is_compliant(toy):
    report = compliance_verdict(toy)
    assert report.verdict == "compliant"
    assert errors_of(report.findings) == []


def test_missing_study_log_fields_make_it_non_compliant(toy):
    for unit in list(toy.units):
        edit(toy, unit, bias_considerations="", tier_justification="")
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    codes = {d.code for d in report.findings}
    assert "E_NO_STUDY_LOG" in codes


def test_unresolved_contamination_is_non_compliant(toy):
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    # a sibling child appears and S2 borrows from it without contract
    toy.layers.append(
        type(toy.layers[-1])(
            id=Identifier("child", "C2", "C2"),
            kind="child",
            version="v1.0",
            parent_ref=Identifier("parent", "P", "P"),
        )
    )
    edit(toy, s2, notes=s2.notes + " Matches child:C2:C2 conventions.")
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert "R3_horizontal_borrowing" in {d.code for d in report.findings}


def test_uncommitted_project_is_non_compliant(toy):
    edit(toy, toy.projects[0], committed_route=None, assignments=())
    toy.reviewer_blocks = []  # mirrors the now-missing route
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert "E_NO_ROUTE" in {d.code for d in report.findings}


def test_authored_route_without_disconfirming_model_is_flagged(toy):
    route = BundleIndex(toy).routes.get(Identifier("child", "C1", "R4"))
    edit(toy, route, disconfirming_models=())
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert "E_NO_DISCONFIRMING" in {d.code for d in report.findings}


def test_verdict_monotonicity_under_added_fault(toy):
    assert compliance_verdict(toy).verdict == "compliant"
    toy.reviewer_blocks = []
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert "E_NO_REVIEWER_BLOCK" in {d.code for d in report.findings}


def test_upward_findings_sort_before_other_directions(toy):
    gp = toy.grandparent()
    law = next(l for l in gp.laws if l.id.local_name == "B")
    edit(toy, law, text=law.text + " via child:C1:S1.")
    child = type(toy.layers[-1])(
        id=Identifier("child", "C2", "C2"),
        kind="child",
        version="v1.0",
        parent_ref=Identifier("parent", "P", "P"),
    )
    toy.layers.append(child)
    s2 = BundleIndex(toy).units.get(Identifier("child", "C1", "S2"))
    edit(toy, s2, notes=s2.notes + " Echoes child:C2:C2.")
    report = compliance_verdict(toy)
    rules = [
        d.code
        for d in report.findings
        if d.code in ("R1_upward_content", "R3_horizontal_borrowing")
    ]
    assert rules == ["R1_upward_content", "R3_horizontal_borrowing"]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_study_log_markdown_has_exact_headers(toy):
    text = render_report(build_study_log(toy, toy.projects[0]), "markdown")
    header = text.splitlines()[0]
    assert header == "| " + " | ".join(STUDY_LOG_FIELDS) + " |"
    assert len(STUDY_LOG_FIELDS) == 7


def test_empty_tier_table_renders_header_only_csv():
    doc = toy_dict()
    for unit in doc["units"]:
        unit["interpretations"][0].update(construct_alignment="mismatch")
        unit["declared_tier"] = "excluded"
    doc["projects"][0]["assignments"] = []
    bundle = parse_dict(doc)
    text = render_report(build_tier_table(bundle, bundle.projects[0]), "csv")
    assert text == ",".join(TIER_TABLE_FIELDS) + "\r\n"


def test_structured_renders_round_trip(toy):
    project = toy.projects[0]
    for artifact in (
        build_study_log(toy, project),
        build_tier_table(toy, project),
        toy.reviewer_blocks[0],
        compliance_verdict(toy),
    ):
        text = render_report(artifact, "structured")
        again = parse_report(text)
        assert again == artifact
        assert render_report(again, "structured") == text


def test_csv_unsupported_for_non_tabular(toy):
    with pytest.raises(OperationRejected) as err:
        render_report(toy.reviewer_blocks[0], "csv")
    assert err.value.diagnostics[0].code == "E_FORMAT_UNSUPPORTED"


def test_render_determinism(toy):
    log = build_study_log(toy, toy.projects[0])
    assert render_report(log, "markdown") == render_report(log, "markdown")
    assert render_report(log, "csv") == render_report(log, "csv")


def test_reports_never_synthesize_narratives(toy):
    # every narrative cell equals a string already present in the bundle
    from recap_engine.bundle import serialize_bundle

    blob = serialize_bundle(toy)
    for entry in build_study_log(toy, toy.projects[0]):
        for value in (
            entry.reasons_for_tiering,
            entry.bias_considerations,
            entry.measurement_definition_issues,
            entry.notes,
        ):
            if value:
                assert value in blob
    for row in build_tier_table(toy, toy.projects[0]):
        for value in (row.methods_summary, row.strengths, row.limitations):
            if value:
                assert value in blob


def _two_bumps(toy):
    """The toy bundle after two recorded bumps, v1.0 -> v1.1 -> v1.2."""
    for i, stamp in enumerate(("2026-03-01T00:00:00Z", "2026-03-02T00:00:00Z")):
        gp = toy.grandparent()
        laws = copy.deepcopy(gp.laws) + (Law(id=Identifier("gp", "", f"LX{i}"), text="Added."),)
        entry = ChangelogEntry(
            from_version=gp.version,
            to_version=f"v1.{i + 1}",
            motivating_insight="Coverage gap seen across projects.",
            boundary_affected="Tier discipline boundary.",
            generalizability_reasoning="Independent of any domain.",
            timestamp=stamp,
        )
        bump_version(toy, entry, laws, timestamp=stamp)
    return toy


def test_recorded_bumps_that_do_not_advance_are_flagged(toy):
    bundle = _two_bumps(toy)
    assert compliance_verdict(bundle).verdict == "compliant"
    edit_payload(bundle, -2, lambda payload: payload["entry"].update(to_version="v1.3"))
    report = compliance_verdict(bundle)
    assert report.verdict == "non_compliant"
    assert [(d.code, d.location) for d in report.findings] == [("E_VERSION_ORDER", "events")]
    assert report.findings[0].message == "recorded bump v1.3 -> v1.2 does not advance"


def test_a_recorded_bump_that_does_not_decode_is_a_finding(toy):
    # Appended in memory, past the parser: the verdict reports it where the
    # freeze check reports a bad freeze record, instead of raising.
    toy.events.append(
        AuditEvent(sequence=toy.next_sequence(), timestamp="2026-06-01T00:00:00Z",
                   actor="tester", kind="version_bumped", payload={"entry": 5, "laws": "x"})
    )
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert [(d.code, d.location) for d in report.findings] == [
        ("E_PAYLOAD_SCHEMA", f"events[{len(toy.events) - 1}].payload")
    ]


def test_a_law_rewritten_between_recorded_bumps_is_flagged(toy):
    bundle = _two_bumps(toy)

    def rewrite(payload):
        next(law for law in payload["laws"] if law["id"] == "gp:A")["text"] = "An earlier wording."

    edit_payload(bundle, -2, rewrite)
    report = compliance_verdict(bundle)
    assert report.verdict == "non_compliant"
    assert [(d.code, d.location) for d in report.findings] == [("E_LAW_REWRITTEN", "gp:A")]


# ---------------------------------------------------------------------------
# Read-pass index
# ---------------------------------------------------------------------------


def test_bundle_index_agrees_with_the_linear_lookups(toy):
    # An in-memory duplicate of the first unit: the first declaration wins.
    toy.units.append(copy.deepcopy(toy.units[0]))
    index = BundleIndex(toy)

    def linear(records, name, key):
        return next(r for r in records if getattr(r, name) == key)

    for unit in toy.units:
        assert index.units[unit.study_id] is linear(toy.units, "study_id", unit.study_id)
    for route in toy.routes:
        assert index.routes[route.id] is linear(toy.routes, "id", route.id)
    for project in toy.projects:
        assert index.projects[project.id] is linear(toy.projects, "id", project.id)
        for assignment in project.assignments:
            first = next(a for a in project.assignments if a.unit_ref == assignment.unit_ref)
            assert index.assignment(project, assignment.unit_ref) is first
    for layer in toy.layers:
        assert index.layers[layer.id] is linear(toy.layers, "id", layer.id)
        assert index.layers_by_name[layer.local_name] is linear(
            toy.layers, "local_name", layer.local_name
        )
    child = linear(toy.layers, "local_name", "C1")
    assert [a.local_name for a in index.ancestors(child)] == ["P", "G"]
    assert index.ancestors(toy.grandparent()) == ()


def test_shared_index_gives_the_same_reports_and_is_not_kept(toy):
    index = BundleIndex(toy)
    for project in toy.projects:
        assert build_study_log(toy, project, index=index) == build_study_log(toy, project)
        assert build_tier_table(toy, project, index=index) == build_tier_table(toy, project)
        for block in toy.reviewer_blocks:
            assert validate_reviewer_block(block, toy, index=index) == validate_reviewer_block(
                block, toy
            )
    fields = set(vars(toy))
    compliance_verdict(toy)
    assert set(vars(toy)) == fields


# ---------------------------------------------------------------------------
# Markdown and structured renders of the non-tabular artifacts
# ---------------------------------------------------------------------------


def test_reviewer_block_markdown(toy):
    assert render_report(toy.reviewer_blocks[0], "markdown") == (
        "# Reviewer Block: child:C1:PRJ\n"
        "\n"
        "## Methodological findings\n"
        "- Construct A measured reliably.\n"
        "- Proxy B introduces potential attenuation.\n"
        "\n"
        "## Conceptual insight\n"
        "Operationalization of B remains unstable.\n"
        "\n"
        "## Anticipated critique\n"
        "Why was a stronger proxy not used?\n"
        "(references: child:C1:S1)\n"
        "\n"
        "## Disconfirming model\n"
        "C may influence B rather than vice versa.\n"
        "\n"
        "## Route assumptions\n"
        "child:C1:AS1, child:C1:AS2\n"
    )


def _non_compliant(toy):
    edit(toy, toy.projects[0], committed_route=None)
    report = compliance_verdict(toy)
    assert report.verdict == "non_compliant"
    assert ("E_NO_ROUTE", "child:C1:PRJ") in [(d.code, d.location) for d in report.findings]
    return report


def test_compliance_report_markdown_lists_each_finding(toy):
    report = _non_compliant(toy)
    lines = render_report(report, "markdown").splitlines()
    assert lines[0] == "verdict: non_compliant"
    assert lines[1:] == [d.render() for d in report.findings]
    assert lines[1].startswith("E_NO_ROUTE child:C1:PRJ ")


def test_structured_compliance_report_with_findings_parses_back(toy):
    report = _non_compliant(toy)
    again = parse_report(render_report(report, "structured"))
    assert again == report
    assert [(d.code, d.location, d.severity) for d in again.findings] == [
        (d.code, d.location, d.severity) for d in report.findings
    ]


def test_a_plain_list_renders_as_the_table_of_its_rows(toy):
    log = build_study_log(toy, toy.projects[0])
    for fmt in ("markdown", "csv", "structured"):
        assert render_report(list(log), fmt) == render_report(log, fmt)
    for rows in ([], ["not a row"]):
        with pytest.raises(OperationRejected) as err:
            render_report(rows, "markdown")
        assert [(d.code, d.location) for d in err.value.diagnostics] == [
            ("E_FORMAT_UNSUPPORTED", "artifact")
        ]
