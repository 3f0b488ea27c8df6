"""Acceptance criteria, one test per criterion, each timed against its
budget and reporting a PASS/FAIL line on the terminal."""

import copy
import random
import time

from genbundles import TimeSource, inject_faults, parse_dict, random_bundle_dict
from test_audit import random_ops_session
from test_cli import run_cli, write_corpus
from test_contamination import (
    FLOW_TRUTH_TABLE,
    FORM_ENDPOINTS,
    make_contract,
    make_flow,
    matrix_bundle,
)
from test_tiering import FULL_COVER, all_assessments, oracle_tier, _degradations
from toy import toy_bundle

from recap_engine.audit import replay
from recap_engine.bundle import decode_route_dict, serialize_bundle
from recap_engine.contamination import check_flow, scan_bundle
from recap_engine.diagnostics import OperationRejected, Severity
from recap_engine.identifiers import Identifier
from recap_engine.layers import bump_version
from recap_engine.model import BundleIndex, ChangelogEntry, Law, Tier
from recap_engine.records import replace
from recap_engine.reporting import (
    build_study_log,
    build_tier_table,
    compliance_verdict,
    parse_report,
    validate_reviewer_block,
)
from recap_engine.routing import committed_route, route_body_hash
from recap_engine.tiering import compute_tier, tier_unit


def run_criterion(capsys, number, description, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  AC-{number:02d}  {description}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS  AC-{number:02d}  {description}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert elapsed < budget, f"AC-{number:02d} took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------


def test_ac01_toy_example_golden(capsys):
    def body():
        bundle = toy_bundle()
        project = bundle.projects[0]

        tiers = {}
        rules = {}
        for local in ("S1", "S2", "S3"):
            unit = BundleIndex(bundle).units.get(Identifier("child", "C1", local))
            decision = tier_unit(unit)
            tiers[local] = decision.tier
            rules[local] = decision.rule_id
            assert unit.declared_tier == decision.tier
        assert tiers == {"S1": Tier.CORE, "S2": Tier.SUPPLEMENT, "S3": Tier.EXCLUDED}
        reasons = {
            u.study_id.local_name: u.tier_justification for u in bundle.units
        }
        assert reasons == {
            "S1": "Construct alignment",
            "S2": "Partial mismatch",
            "S3": "Definition opacity",
        }

        roles = {
            a.unit_ref.local_name: (a.route_ref.local_name, a.role)
            for a in project.assignments
        }
        assert roles["S1"] == ("R2", "primary_inference")
        assert roles["S2"][1] == "measurement_evaluation"
        assert project.committed_route.local_name == "R2"

        log = build_study_log(bundle, project)
        s1_row = next(e for e in log if e.study_id == "S1")
        assert (
            s1_row.study_id,
            s1_row.design_type,
            s1_row.tier_assignment,
            s1_row.bias_considerations,
            s1_row.measurement_definition_issues,
            s1_row.notes,
        ) == (
            "S1",
            "Observational (Abstract)",
            "core",
            "Proxy for B → nondirectional risk",
            "Partial misalignment for B",
            "Adequate for R2",
        )

        table = build_tier_table(bundle, project)
        t1 = next(r for r in table if r.study_id == "S1")
        assert (
            t1.methods_summary,
            t1.evidence_type,
            t1.strengths,
            t1.limitations,
        ) == (
            "Association between A and C via m1–m3 mapping",
            "Associational",
            "Clear construct A; transparent m1",
            "Proxy for B",
        )
        assert all(r.study_id != "S3" for r in table)

        assert validate_reviewer_block(bundle.reviewer_blocks[0], bundle) == []
        assert compliance_verdict(bundle).verdict == "compliant"

    run_criterion(capsys, 1, "toy-example golden reproduction", 1.0, body)


def test_ac02_tier_decision_table_oracle(capsys):
    def body():
        cases = 0
        for a in all_assessments():
            for covered, assumptions in ((True, FULL_COVER), (False, [])):
                assert compute_tier(a, assumptions) == oracle_tier(a, covered)
                cases += 1
        assert cases == 432

    run_criterion(capsys, 2, "432-case tier table vs brute-force oracle", 1.0, body)


def test_ac03_flow_matrix_oracle(capsys):
    def body():
        agreements = 0
        for (form, info), expectations in FLOW_TRUTH_TABLE.items():
            src, dst = FORM_ENDPOINTS[form]
            for has_contract, expected in zip((False, True), expectations):
                bundle = matrix_bundle()
                ref = None
                if has_contract:
                    bundle.contracts.append(make_contract(bundle, src, dst, info))
                    ref = bundle.contracts[0].id
                verdict = check_flow(make_flow(bundle, src, dst, info, ref), bundle)
                got = (
                    "allowed" if verdict.allowed else "violation",
                    None if verdict.allowed else verdict.direction,
                    None if verdict.allowed else verdict.rule,
                )
                assert got == expected, (form, info, has_contract)
                # upward content is never legalized by a contract
                if expected[1] == "upward" and info != "methodological_insight":
                    assert not verdict.allowed
                agreements += 1
        assert agreements == 72

    run_criterion(capsys, 3, "flow matrix vs hand-written truth table", 1.0, body)


def test_ac04_contamination_fault_injection(capsys):
    def body():
        rng = random.Random(20260101)
        for trial in range(200):
            doc = random_bundle_dict(rng)
            clean = parse_dict(copy.deepcopy(doc))
            assert scan_bundle(clean) == [], f"false positive in trial {trial}"
            k = rng.randint(0, 5)
            expected = inject_faults(rng, doc, k)
            bundle = parse_dict(doc)
            events = scan_bundle(bundle)
            assert len(events) == k, (trial, k, len(events))
            got = sorted((e.direction, e.rule_violated, e.site.container) for e in events)
            want = sorted((e["direction"], e["rule"], e["container"]) for e in expected)
            assert got == want, trial

    run_criterion(capsys, 4, "fault injection: 200 bundles, exact k events", 10.0, body)


def test_ac05_law_monotonicity(capsys):
    def body():
        rng = random.Random(5150)
        for trial in range(1000):
            bundle = parse_dict(random_bundle_dict(rng, n_parents=1, n_children=2))
            gp = bundle.grandparent()
            genesis = {law.id.render(): law.text for law in gp.laws}
            core_texts = {
                law.id.render(): law.text for law in gp.laws if law.immutable_core
            }
            clock = 0
            for step in range(rng.randint(1, 4)):
                clock += 1
                stamp = f"2026-07-01T00:00:{clock:02d}Z"
                current = [copy.deepcopy(l) for l in gp.laws]
                attack = rng.random()
                if attack < 0.25 and len(current) > 4:
                    new_laws = current[:-1]  # rescind attempt
                    expect_ok = False
                elif attack < 0.45:
                    victim = rng.choice(current)
                    softened = replace(victim, text=victim.text + " (softened)")
                    current[current.index(victim)] = softened
                    new_laws = current
                    expect_ok = False
                elif attack < 0.55:
                    victim = next(l for l in current if l.immutable_core)
                    current[current.index(victim)] = replace(victim, immutable_core=False)
                    new_laws = current
                    expect_ok = False
                else:
                    new_laws = current + [
                        Law(
                            id=Identifier("gp", "", f"N{trial}_{step}"),
                            text="An appended discipline.",
                        )
                    ]
                    expect_ok = True
                major, minor = gp.version[1:].split(".")
                entry = ChangelogEntry(
                    from_version=gp.version,
                    to_version=f"v{major}.{int(minor) + 1}",
                    motivating_insight="A recurring structural gap.",
                    boundary_affected="Meta-layer tier discipline.",
                    generalizability_reasoning="Domain-independent by construction.",
                    timestamp=stamp,
                )
                try:
                    bump_version(bundle, entry, new_laws, timestamp=stamp)
                    accepted = True
                except OperationRejected:
                    accepted = False
                assert accepted == expect_ok, (trial, step, attack)
                gp = bundle.grandparent()
                current_ids = {law.id.render(): law.text for law in gp.laws}
                assert set(genesis) <= set(current_ids)
                for key, text in core_texts.items():
                    assert current_ids[key] == text

    run_criterion(capsys, 5, "1000 bump sequences: append-only law sets", 10.0, body)


def test_ac06_freeze_and_one_route_properties(capsys):
    def body():
        from test_routing import (
            fresh_toy_uncommitted,
            revision,
            route_record,
        )
        from recap_engine.routing import (
            check_freeze_integrity,
            declare_route,
            freeze_route,
            revise_route,
        )

        rng = random.Random(606)
        clock = TimeSource()
        commands = 0
        PRJ = Identifier("child", "C1", "PRJ")
        while commands < 10_500:
            bundle = fresh_toy_uncommitted()
            project = bundle.projects[0]
            declared = 0
            frozen_hash = None
            revisions_seen = 0
            for _ in range(150):
                commands += 1
                action = rng.choice(["declare", "commit", "freeze", "revise"])
                try:
                    if action in ("declare", "commit"):
                        declared += 1
                        declare_route(
                            bundle,
                            PRJ,
                            decode_route_dict(route_record(f"Q{commands}")),
                            commit_route=action == "commit",
                            timestamp=clock.next(),
                        )
                    elif action == "freeze":
                        freeze_route(bundle, PRJ, timestamp=clock.next())
                    else:
                        route = committed_route(bundle, project)
                        if route is None:
                            continue
                        revise_route(
                            bundle,
                            PRJ,
                            revision(timestamp=clock.next()),
                            decode_route_dict(
                                route_record(
                                    route.id.local_name,
                                    objective=rng.choice(
                                        ["descriptive", "stability-mapping", "prognostic"]
                                    ),
                                )
                            ),
                        )
                except OperationRejected:
                    pass
                # never two committed routes
                assert project.committed_route is None or isinstance(
                    project.committed_route, Identifier
                )
                route = committed_route(bundle, project)
                if route is not None and route.frozen_at is not None:
                    current = route_body_hash(route)
                    if frozen_hash is None:
                        frozen_hash, revisions_seen = current, len(route.revisions)
                    elif current != frozen_hash:
                        assert len(route.revisions) == revisions_seen + 1
                        frozen_hash, revisions_seen = current, len(route.revisions)
                errors = [
                    d
                    for d in check_freeze_integrity(bundle)
                    if d.severity == Severity.ERROR
                ]
                assert errors == []
        assert commands >= 10_000

    run_criterion(capsys, 6, ">=10^4 commands: one-route and freeze laws", 30.0, body)


def test_ac07_event_sourcing_equivalence(capsys):
    def body():
        rng = random.Random(707)
        clock = TimeSource()
        for trial in range(1000):
            snapshot, live, accepted, rejected = random_ops_session(rng, clock, n_ops=5)
            new_events = live.events[len(snapshot.events):]
            assert len(new_events) == accepted
            replayed = replay(snapshot, new_events)
            assert serialize_bundle(replayed) == serialize_bundle(live), trial

    run_criterion(capsys, 7, "1000 sessions: replay(events) == live state", 30.0, body)


def test_ac08_conservatism_monotonicity(capsys):
    def body():
        checked = 0
        for a in all_assessments():
            for assumptions in (FULL_COVER, []):
                base = compute_tier(a, assumptions)
                for worse in _degradations(a):
                    assert compute_tier(worse, assumptions) <= base
                    checked += 1
                for i in range(len(assumptions)):
                    reduced = assumptions[:i] + assumptions[i + 1:]
                    assert compute_tier(a, reduced) <= base
                    checked += 1
        assert checked > 432

    run_criterion(capsys, 8, "single-step degradations never raise a tier", 1.0, body)


def test_ac09_reporting_partition(capsys):
    def body():
        rng = random.Random(909)
        for trial in range(500):
            bundle = parse_dict(random_bundle_dict(rng))
            for project in bundle.projects:
                log = build_study_log(bundle, project)
                table = build_tier_table(bundle, project)
                log_ids = {e.study_id for e in log}
                table_ids = {r.study_id for r in table}
                excluded = {e.study_id for e in log if e.tier_assignment == "excluded"}
                assert table_ids | excluded == log_ids
                assert table_ids.isdisjoint(excluded)
                assert len(log) == len(project.unit_refs)
                for unit_ref in project.unit_refs:
                    unit = BundleIndex(bundle).units.get(unit_ref)
                    if unit.declared_tier == Tier.EXCLUDED:
                        assert unit.study_id.local_name in log_ids

    run_criterion(capsys, 9, "500 bundles: study log = tier table + excluded", 10.0, body)


def test_ac10_cli_contract(tmp_path, capsys):
    def body():
        paths = write_corpus(tmp_path)
        assert len(paths) >= 12
        for name, (path, expected) in paths.items():
            code, out, err = run_cli("validate", str(path), capsys=capsys)
            assert code == expected, (name, code, expected)
        toy_path, _ = paths["compliant"]
        code, out, _ = run_cli(
            "report", str(toy_path), "study-log", "--format", "structured", capsys=capsys
        )
        assert code == 0
        rows = parse_report(out)
        assert [r.study_id for r in rows] == ["S1", "S2", "S3"]
        code, out, _ = run_cli(
            "validate", str(toy_path), "--format", "structured", capsys=capsys
        )
        assert code == 0 and parse_report(out).verdict == "compliant"
        code, _, _ = run_cli("explain", "R3_horizontal_borrowing", capsys=capsys)
        assert code == 0

    run_criterion(capsys, 10, "CLI corpus: exit codes and round-trips", 5.0, body)
