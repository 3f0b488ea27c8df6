import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from genbundles import edit
from toy import FREEZE_TS, toy_dict, toy_text, variant

import recap_engine
from recap_engine.cli import main
from recap_engine.model import BundleIndex
from recap_engine.reporting import parse_report


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


# ---------------------------------------------------------------------------
# Fixture corpus: the compliant golden bundle, each violation class, and
# malformed documents. Exit codes: 0 compliant, 1 violations, 2 parse/usage.
# ---------------------------------------------------------------------------


def _frozen_with_edit(field, value):
    def build():
        from recap_engine.bundle import parse_bundle, serialize_bundle

        bundle = parse_bundle(toy_text()).bundle
        route = BundleIndex(bundle).routes.get(bundle.projects[0].committed_route)
        edit(bundle, route, **{field: value})
        return serialize_bundle(bundle)

    return build


def corpus():
    fixtures = {}

    fixtures["compliant"] = (toy_text, 0)
    fixtures["malformed"] = (lambda: "{ not json", 2)
    fixtures["empty"] = (lambda: "", 2)
    fixtures["unresolved_ref"] = (
        lambda: json.dumps(
            variant(lambda d: d["projects"][0].update(committed_route="child:C1:R9"))
        ),
        2,
    )
    fixtures["duplicate_id"] = (
        lambda: json.dumps(variant(lambda d: d["units"].append(dict(d["units"][0])))),
        2,
    )

    def no_gp(d):
        d["layers"] = [l for l in d["layers"] if l["kind"] != "grandparent"]

    fixtures["no_grandparent"] = (lambda: json.dumps(variant(no_gp)), 2)

    fixtures["tier_mismatch"] = (
        lambda: json.dumps(variant(lambda d: d["units"][0].update(declared_tier="supplement"))),
        1,
    )
    fixtures["no_justification"] = (
        lambda: json.dumps(variant(lambda d: d["units"][0].update(tier_justification=""))),
        1,
    )

    def upward(d):
        gp = next(l for l in d["layers"] if l["kind"] == "grandparent")
        gp["laws"][4]["text"] += " Calibrated against child:C1:S1."

    fixtures["upward_contamination"] = (lambda: json.dumps(variant(upward)), 1)

    def downward(d):
        child = next(l for l in d["layers"] if l["id"] == "C1")
        child["laws"].append(
            {"id": "A", "text": "A means whatever m1 measures.",
             "immutable_core": False, "quarantined": False}
        )

    fixtures["downward_contamination"] = (lambda: json.dumps(variant(downward)), 1)

    def horizontal(d):
        d["layers"].append(
            {"id": "C2", "kind": "child", "version": "v1.0", "parent_ref": "P",
             "laws": [], "abstractions": [], "vocabulary": []}
        )
        d["units"][1]["notes"] += " Matches child:C2:C2 conventions."

    fixtures["horizontal_contamination"] = (lambda: json.dumps(variant(horizontal)), 1)

    def flow_redefine(d):
        d["flows"].append(
            {
                "id": "child:C1:FV",
                "source_layer": "C1",
                "dest_layer": "G",
                "info_class": "measurement",
                "payload": "m1 redefines A",
                "timestamp": "2026-02-11T00:00:00Z",
                "contract_ref": None,
                "quarantined": False,
            }
        )

    fixtures["m1_redefines_A"] = (lambda: json.dumps(variant(flow_redefine)), 1)

    fixtures["no_reviewer_block"] = (
        lambda: json.dumps(variant(lambda d: d.update(reviewer_blocks=[]))),
        1,
    )
    fixtures["no_memo"] = (lambda: json.dumps(variant(lambda d: d.update(memos=[]))), 1)

    def bare_study_log(d):
        for unit in d["units"]:
            unit["bias_considerations"] = ""

    fixtures["missing_study_log"] = (lambda: json.dumps(variant(bare_study_log)), 1)

    def excluded_assigned(d):
        d["projects"][0]["assignments"].append(
            {"unit_ref": "child:C1:S3", "route_ref": "child:C1:R2", "role": "contextual"}
        )

    fixtures["excluded_assigned"] = (lambda: json.dumps(variant(excluded_assigned)), 1)

    fixtures["silent_revision"] = (_frozen_with_edit("objective", "predictive"), 1)
    return fixtures


def write_corpus(tmp_path):
    paths = {}
    for name, (build, expected) in corpus().items():
        path = tmp_path / f"{name}.bundle"
        path.write_text(build(), encoding="utf-8")
        paths[name] = (path, expected)
    return paths


def test_corpus_has_at_least_twelve_bundles(tmp_path):
    assert len(write_corpus(tmp_path)) >= 12


def test_validate_exit_codes_across_corpus(tmp_path, capsys):
    for name, (path, expected) in write_corpus(tmp_path).items():
        code, out, err = run_cli("validate", str(path), capsys=capsys)
        assert code == expected, (name, code, expected, err)
        if expected == 0:
            assert out.strip() == "compliant"
        elif expected == 1:
            assert "non_compliant" in out


def test_validate_compliant_prints_compliant(toy_file, capsys):
    code, out, _ = run_cli("validate", str(toy_file), capsys=capsys)
    assert code == 0 and out.strip() == "compliant"


def test_tier_unit_s3_prints_rule(toy_file, capsys):
    code, out, _ = run_cli("tier", str(toy_file), "--unit", "S3", capsys=capsys)
    assert code == 0
    assert out.strip() == "excluded (R_STEP1_MISMATCH)"


def test_tier_all_units_lists_decisions(toy_file, capsys):
    code, out, _ = run_cli("tier", str(toy_file), capsys=capsys)
    assert code == 0
    assert "child:C1:S1  core (R_CORE)" in out
    assert "child:C1:S2  supplement (R_SUPPLEMENT_COVERED)" in out


def test_an_ambiguous_local_name_exits_two_and_lists_the_canonical_ids(tmp_path, capsys):
    import random

    from genbundles import random_bundle_dict

    path = tmp_path / "three.bundle"
    path.write_text(json.dumps(random_bundle_dict(random.Random(5), n_parents=1, n_children=3)))
    projects = "child:C1:PRJ, child:C2:PRJ, child:C3:PRJ"
    for argv, message in [
        (["route", str(path), "check", "--project", "PRJ"],
         f"project name 'PRJ' is ambiguous: {projects}"),
        (["report", str(path), "study-log", "--project", "PRJ"],
         f"project name 'PRJ' is ambiguous: {projects}"),
        (["tier", str(path), "--unit", "S1"],
         "unit name 'S1' is ambiguous: child:C1:S1, child:C2:S1, child:C3:S1"),
    ]:
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out, err.strip().splitlines()) == (2, "", [message])

    # A canonical id, or a local name that one declaration has, picks it.
    for argv in (["route", str(path), "check", "--project", "child:C2:PRJ"],
                 ["report", str(path), "study-log", "--project", "child:C3:PRJ"]):
        assert run_cli(*argv, capsys=capsys)[0] == 0
    for unit in ("child:C2:S1", "S3"):
        code, out, _ = run_cli("tier", str(path), "--unit", unit, capsys=capsys)
        assert code in (0, 1) and len(out.splitlines()) == 1


def test_tier_mismatch_exits_one(tmp_path, capsys):
    path = tmp_path / "mismatch.bundle"
    path.write_text(
        json.dumps(variant(lambda d: d["units"][0].update(declared_tier="supplement")))
    )
    code, _, err = run_cli("tier", str(path), capsys=capsys)
    assert code == 1
    assert "E_TIER_MISMATCH" in err


def test_scan_upward_fixture_prints_one_event(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    path, _ = paths["m1_redefines_A"]
    code, out, _ = run_cli("scan", str(path), capsys=capsys)
    assert code == 1
    assert "1 contamination event(s)" in out
    assert "R1_upward_content upward" in out


def test_scan_clean_bundle_exits_zero(toy_file, capsys):
    code, out, _ = run_cli("scan", str(toy_file), capsys=capsys)
    assert code == 0
    assert "0 contamination event(s)" in out


def test_scan_structured_output(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    path, _ = paths["m1_redefines_A"]
    code, out, _ = run_cli("scan", str(path), "--format", "structured", capsys=capsys)
    assert code == 1
    events = json.loads(out)["events"]
    assert len(events) == 1
    assert events[0]["rule_violated"] == "R1_upward_content"
    assert events[0]["direction"] == "upward"


def test_route_check_and_freeze(tmp_path, capsys):
    doc = toy_dict()  # unfrozen authored document
    path = tmp_path / "unfrozen.bundle"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("route", str(path), "check", capsys=capsys)
    assert code == 0 and "coherent" in out
    code, out, _ = run_cli(
        "route", str(path), "freeze", "--timestamp", FREEZE_TS, capsys=capsys
    )
    assert code == 0 and "frozen child:C1:R2" in out
    # freeze is persisted atomically; a second freeze is refused
    code, _, err = run_cli("route", str(path), "freeze", capsys=capsys)
    assert code == 1 and "E_ALREADY_FROZEN" in err
    from recap_engine.bundle import parse_bundle

    reparsed = parse_bundle(path.read_text())
    assert reparsed.bundle is not None
    assert reparsed.bundle.events[-1].kind == "route_frozen"


# Holds an exclusive flock on the file named by argv[1] until killed.
_LOCK_HOLDER = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(600)
"""


@pytest.fixture
def lock_holder(tmp_path):
    """A live process holding the lock of ``tmp_path/locked.bundle``."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOCK_HOLDER, str(tmp_path / "locked.bundle.lock")],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline() == "held\n"
        yield proc
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_route_freeze_respects_lock(tmp_path, capsys, lock_holder):
    path = tmp_path / "locked.bundle"
    path.write_text(json.dumps(toy_dict()))
    code, _, err = run_cli("route", str(path), "freeze", capsys=capsys)
    assert code == 2
    assert "locked" in err
    assert path.read_text() == json.dumps(toy_dict())


def test_route_freeze_proceeds_once_the_lock_holder_is_killed(tmp_path, capsys, lock_holder):
    path = tmp_path / "locked.bundle"
    path.write_text(json.dumps(toy_dict()))
    assert run_cli("route", str(path), "freeze", capsys=capsys)[0] == 2
    lock_holder.kill()
    lock_holder.wait()
    assert (tmp_path / "locked.bundle.lock").exists()  # left behind by the killed holder
    code, out, _ = run_cli("route", str(path), "freeze", "--timestamp", FREEZE_TS, capsys=capsys)
    assert code == 0 and "frozen child:C1:R2" in out
    assert path.read_text() != json.dumps(toy_dict())
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "command, code",
    [(["route", "BUNDLE", "freeze", "--timestamp", FREEZE_TS], "E_ALREADY_FROZEN"),
     (["version", "BUNDLE", "bump", "--changelog", "CHANGELOG"], "E_VERSION_STALE")],
    ids=["freeze", "bump"],
)
def test_a_write_that_lands_before_the_lock_is_taken_is_not_overwritten(
    tmp_path, capsys, monkeypatch, command, code
):
    import recap_engine.cli as cli

    path = tmp_path / "toy.bundle"
    path.write_text(json.dumps(toy_dict()) if command[0] == "route" else toy_text())
    changelog = tmp_path / "change.json"
    changelog.write_text(json.dumps({
        "from_version": "v1.0", "to_version": "v1.1", "motivating_insight": "m",
        "boundary_affected": "b", "generalizability_reasoning": "g",
        "timestamp": "2026-06-01T00:00:00Z",
    }))
    argv = [{"BUNDLE": str(path), "CHANGELOG": str(changelog)}.get(w, w) for w in command]
    enter, first = cli._BundleLock.__enter__, {}

    def competing_write_first(lock):
        # The same command from another writer commits between this
        # command's start and its lock.
        if not first:
            first["started"] = True
            first["exit"] = main(argv)
            first["text"] = path.read_text()
        return enter(lock)

    monkeypatch.setattr(cli._BundleLock, "__enter__", competing_write_first)
    exit_code, _, err = run_cli(*argv, capsys=capsys)
    assert first["exit"] == 0
    assert exit_code == 1 and code in err
    assert path.read_text() == first["text"]


def test_report_formats_and_round_trip(toy_file, capsys):
    code, out, _ = run_cli("report", str(toy_file), "study-log", capsys=capsys)
    assert code == 0 and out.startswith("| Study_ID |")
    code, out, _ = run_cli(
        "report", str(toy_file), "tier-table", "--format", "csv", capsys=capsys
    )
    assert code == 0 and out.startswith("Study_ID,Methods_Summary")
    code, out, _ = run_cli(
        "report", str(toy_file), "study-log", "--format", "structured", capsys=capsys
    )
    assert code == 0
    rows = parse_report(out)
    assert [r.study_id for r in rows] == ["S1", "S2", "S3"]
    code, out, _ = run_cli(
        "report", str(toy_file), "reviewer-block", "--format", "structured", capsys=capsys
    )
    assert code == 0
    block = parse_report(out)
    assert block.project_ref.render() == "child:C1:PRJ"
    code, _, _ = run_cli(
        "report", str(toy_file), "reviewer-block", "--format", "csv", capsys=capsys
    )
    assert code == 2  # csv only exists for tabular artifacts


def test_version_bump_via_changelog_file(tmp_path, capsys):
    bundle_path = tmp_path / "toy.bundle"
    bundle_path.write_text(toy_text())
    changelog = tmp_path / "change.json"
    changelog.write_text(
        json.dumps(
            {
                "from_version": "v1.0",
                "to_version": "v1.1",
                "motivating_insight": "Ambiguity coverage needed an explicit law.",
                "boundary_affected": "Tiering discipline.",
                "generalizability_reasoning": "Holds for any domain or instrument.",
                "timestamp": "2026-06-01T00:00:00Z",
            }
        )
    )
    code, out, _ = run_cli(
        "version", str(bundle_path), "bump", "--changelog", str(changelog), capsys=capsys
    )
    assert code == 0 and "v1.1" in out
    from recap_engine.bundle import parse_bundle

    reparsed = parse_bundle(bundle_path.read_text()).bundle
    assert reparsed.grandparent().version == "v1.1"
    assert reparsed.events[-1].kind == "version_bumped"


def test_version_bump_rejects_incomplete_changelog(tmp_path, capsys):
    bundle_path = tmp_path / "toy.bundle"
    bundle_path.write_text(toy_text())
    original = bundle_path.read_text()
    changelog = tmp_path / "change.json"
    changelog.write_text(json.dumps({"from_version": "v1.0", "to_version": "v1.1"}))
    code, _, err = run_cli(
        "version", str(bundle_path), "bump", "--changelog", str(changelog), capsys=capsys
    )
    assert code == 1
    assert "E_CHANGELOG_INCOMPLETE" in err
    assert bundle_path.read_text() == original  # rejected ops change nothing


def test_explain_known_and_unknown_codes(capsys):
    code, out, _ = run_cli("explain", "E_SECOND_ROUTE", capsys=capsys)
    assert code == 0 and "one inferential route" in out
    code, out, _ = run_cli("explain", "R_STEP1_MISMATCH", capsys=capsys)
    assert code == 0 and "mismatch" in out.lower()
    code, _, err = run_cli("explain", "E_NOT_A_CODE", capsys=capsys)
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli("frobnicate", capsys=capsys)
    assert code == 2


def test_structured_validate_round_trips(toy_file, capsys):
    code, out, _ = run_cli(
        "validate", str(toy_file), "--format", "structured", capsys=capsys
    )
    assert code == 0
    report = parse_report(out)
    assert report.verdict == "compliant"


def test_module_entry_point_runs_as_subprocess(toy_file):
    # The child imports the package from where this process found it, so the
    # test also runs from a checkout without an installed package.
    src = str(Path(recap_engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "recap_engine", "validate", str(toy_file)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "compliant"


def _imported(argv: list[str]) -> set[str]:
    """Every module a CLI run in a fresh interpreter imports after start-up
    (``site`` and what it loads are the environment's)."""
    src = str(Path(recap_engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "recap_engine", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("site") + 1:] if "site" in names else names)


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["scan"], ["report", "study-log"], ["report", "reviewer-block"], ["tier"]],
)
def test_read_only_commands_never_import_the_writer(toy_file, argv):
    imported = _imported([argv[0], str(toy_file), *argv[1:]])
    assert "recap_engine.bundle" in imported
    unwanted = {"recap_engine.writer", "recap_engine.audit", "dataclasses", "inspect", "datetime"}
    assert not imported & unwanted
    if argv[0] == "scan":
        assert "recap_engine.reporting" not in imported


def test_explain_loads_only_the_diagnostics():
    imported = _imported(["explain", "E_SYNTAX"])
    engine = {name for name in imported if name.startswith("recap_engine")}
    # records is the helper the Diagnostic record is built with.
    assert engine == {
        "recap_engine",
        "recap_engine.cli",
        "recap_engine.diagnostics",
        "recap_engine.records",
    }


def _bump_with(tmp_path, capsys, changelog_doc):
    bundle_path = tmp_path / "toy.bundle"
    bundle_path.write_text(toy_text())
    original = bundle_path.read_text()
    changelog = tmp_path / "change.json"
    changelog.write_text(json.dumps(changelog_doc))
    code, _, err = run_cli(
        "version", str(bundle_path), "bump", "--changelog", str(changelog), capsys=capsys
    )
    assert bundle_path.read_text() == original
    return code, err


def test_version_bump_rejects_a_changelog_array(tmp_path, capsys):
    code, err = _bump_with(tmp_path, capsys, [{"from_version": "v1.0"}])
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_version_bump_rejects_a_non_object_law(tmp_path, capsys):
    code, err = _bump_with(
        tmp_path,
        capsys,
        {
            "from_version": "v1.0",
            "to_version": "v1.1",
            "motivating_insight": "m",
            "boundary_affected": "b",
            "generalizability_reasoning": "g",
            "new_laws": ["gp:not_a_record"],
        },
    )
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "laws[0]" in err


def test_validate_deeply_nested_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.bundle"
    path.write_text("[" * 200000)
    code, _, err = run_cli("validate", str(path), capsys=capsys)
    assert code == 2
    assert err.strip().splitlines() == ["E_SYNTAX line 1 document nests too deeply"]


def test_unexpected_failure_prints_one_line_and_exits_two(toy_file, capsys, monkeypatch):
    def broken(bundle):
        raise RuntimeError("scanner fault")

    # The scan command imports scan_bundle from its module when it runs.
    monkeypatch.setattr("recap_engine.contamination.scan_bundle", broken)
    code, out, err = run_cli("scan", str(toy_file), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["internal error: RuntimeError: scanner fault"]


def test_freeze_syncs_the_file_before_the_rename_and_the_directory_after(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "unfrozen.bundle"
    path.write_text(json.dumps(toy_dict()))
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    code, _, _ = run_cli("route", str(path), "freeze", "--timestamp", FREEZE_TS, capsys=capsys)
    assert code == 0
    assert calls == [("fsync", "file"), ("replace", path.name), ("fsync", "dir")]


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_write_keeps_the_bundle_and_leaves_no_temporary_file(
    tmp_path, capsys, monkeypatch, failing
):
    path = tmp_path / "unfrozen.bundle"
    original = json.dumps(toy_dict())
    path.write_text(original)

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, failing, fail)
    code, out, err = run_cli(
        "route", str(path), "freeze", "--timestamp", FREEZE_TS, capsys=capsys
    )
    assert code == 2
    assert err.strip().splitlines() == ["internal error: OSError: disk full"]
    assert path.read_text() == original
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_validate_reports_a_malformed_bump_payload_as_a_parse_error(tmp_path, capsys):
    def add_bump(d):
        d["events"] = [{
            "sequence": 1, "timestamp": "2026-02-01T00:00:00Z", "actor": "a",
            "kind": "version_bumped", "affected": [],
            "payload": {"laws": [5], "entry": {
                "from_version": "v1.0", "to_version": "v1.1", "motivating_insight": "m",
                "boundary_affected": "b", "generalizability_reasoning": "g",
                "timestamp": "2026-02-01T00:00:00Z"}},
        }]

    path = tmp_path / "bump.bundle"
    path.write_text(json.dumps(variant(add_bump)))
    code, out, err = run_cli("validate", str(path), capsys=capsys)
    assert code == 2
    assert out == ""
    [line] = err.strip().splitlines()
    assert line.startswith("E_PAYLOAD_SCHEMA events[0].payload ")


@pytest.mark.parametrize(
    "laws, location",
    [
        (["gp:not_a_record"], "new_laws[0]: expected object"),
        ([{"id": "gp:L9", "text": 5}], "new_laws[0].text: expected string"),
        ({"id": "gp:L9"}, "new_laws: expected list"),
    ],
)
def test_version_bump_names_the_changelog_key_of_a_bad_law(tmp_path, capsys, laws, location):
    code, err = _bump_with(
        tmp_path,
        capsys,
        {
            "from_version": "v1.0",
            "to_version": "v1.1",
            "motivating_insight": "m",
            "boundary_affected": "b",
            "generalizability_reasoning": "g",
            "new_laws": laws,
        },
    )
    assert code == 2
    assert location in err and "layer_decl" not in err


# ---------------------------------------------------------------------------
# Totality at the boundary: undecodable input is a located diagnostic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["scan"], ["report", "study-log"], ["tier"], ["route", "check"]],
)
def test_a_file_that_is_not_utf8_is_a_located_syntax_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.bundle"
    # Line 3 holds the 0xff byte; \r\n and a lone \r each end one line.
    path.write_bytes(b'{\r\n"recap_version": "v1.0",\r"x": "\xff"}\n')
    code, out, err = run_cli(argv[0], str(path), *argv[1:], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["E_SYNTAX line 3 not valid UTF-8: invalid start byte"]


def test_a_changelog_that_is_not_utf8_is_a_located_syntax_error(tmp_path, capsys):
    bundle_path = tmp_path / "toy.bundle"
    bundle_path.write_text(toy_text())
    original = bundle_path.read_text()
    changelog = tmp_path / "change.json"
    changelog.write_bytes(b'{\n"from_version": "v1.0\xc3"}')
    code, out, err = run_cli(
        "version", str(bundle_path), "bump", "--changelog", str(changelog), capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["E_SYNTAX line 2 not valid UTF-8: invalid continuation byte"]
    assert bundle_path.read_text() == original


def test_crlf_files_read_as_text_mode_reads_them(tmp_path, capsys):
    path = tmp_path / "crlf.bundle"
    path.write_bytes(toy_text().replace("\n", "\r\n").encode("utf-8"))
    code, out, _ = run_cli("validate", str(path), capsys=capsys)
    assert (code, out) == (0, "compliant\n")
    path.write_bytes(b'{\r\r"recap_version": }')
    code, _, err = run_cli("validate", str(path), capsys=capsys)
    assert code == 2
    assert err.splitlines() == ["E_SYNTAX line 3 Expecting value"]


@pytest.mark.parametrize("argv", [["route", "freeze"], ["report", "study-log"], ["validate"]])
def test_a_lone_surrogate_escape_is_a_syntax_error_not_a_crash(tmp_path, capsys, argv):
    doc = toy_dict()
    doc["units"][0]["notes"] = "\ud800 stray half of a pair"
    path = tmp_path / "surrogate.bundle"
    text = json.dumps(doc, indent=2)  # ensure_ascii: the surrogate is an escape
    path.write_text(text)
    line = text[: text.index("\\ud800")].count("\n") + 1
    code, out, err = run_cli(argv[0], str(path), *argv[1:], capsys=capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"E_SYNTAX line {line} \\ud800 is a lone surrogate, which UTF-8 cannot encode"
    ]
    assert path.read_text() == text


def test_version_bump_names_the_changelog_key_of_a_bad_entry_field(tmp_path, capsys):
    code, err = _bump_with(
        tmp_path,
        capsys,
        {
            "from_version": "v1.0",
            "to_version": 2,
            "motivating_insight": "m",
            "boundary_affected": "b",
            "generalizability_reasoning": "g",
        },
    )
    assert code == 2
    assert err.splitlines() == [
        "bad changelog: malformed changelog_entry: to_version: expected string, got int"
    ]


def test_an_actor_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "unfrozen.bundle"
    path.write_text(json.dumps(toy_dict()))
    original = path.read_text()
    # How Python hands over an argv byte that is not UTF-8 (surrogateescape).
    code, out, err = run_cli(
        "route", str(path), "freeze", "--timestamp", FREEZE_TS, "--actor", "\udcff", capsys=capsys
    )
    assert (code, out) == (2, "")
    assert "argument --actor: not valid UTF-8" in err and "internal error" not in err
    assert path.read_text() == original


# ---------------------------------------------------------------------------
# Totality: any file bytes, any argv
# ---------------------------------------------------------------------------

_TOY = toy_text().encode("utf-8")
_CHANGELOG = json.dumps({
    "from_version": "v1.0", "to_version": "v1.1", "motivating_insight": "m",
    "boundary_affected": "b", "generalizability_reasoning": "g",
    "timestamp": "2026-06-01T00:00:00Z",
}).encode("utf-8")


def _damaged(document: bytes):
    """The document with one span replaced by random bytes, or cut short."""
    return st.one_of(
        st.builds(
            lambda at, cut, junk: document[:at] + junk + document[at + cut:],
            st.integers(0, len(document)), st.integers(0, 8), st.binary(max_size=8),
        ),
        st.integers(0, len(document)).map(lambda at: document[:at]),
    )


_CONTENT = st.one_of(st.just(_TOY), _damaged(_TOY), _damaged(_TOY), st.binary(max_size=64))
_CHANGELOG_CONTENT = st.one_of(st.just(_CHANGELOG), _damaged(_CHANGELOG), st.binary(max_size=32))
#: Per command, option lists its parser accepts; BUNDLE, CHANGELOG and
#: MISSING stand for the files.
_OPTIONS = {
    "validate": [[], ["--format", "structured"]],
    "tier": [[], ["--unit", "S3"], ["--unit", "S9"]],
    "route": [["check"], ["freeze", "--timestamp", FREEZE_TS], ["freeze"],
              ["check", "--project", "PRJ"], ["freeze", "--actor", "\udcff"]],
    "scan": [[], ["--format", "structured"]],
    "report": [["study-log"], ["tier-table", "--format", "csv"],
               ["reviewer-block", "--format", "structured"], ["study-log", "--project", "C9"]],
    "version": [["bump", "--changelog", "CHANGELOG"], ["bump", "--changelog", "MISSING"],
                ["bump", "--changelog", "BUNDLE"]],
}
_WORDS = sorted({w for options in _OPTIONS.values() for o in options for w in o}
                | set(_OPTIONS) | {"explain", "E_SYNTAX", "-h", "", "BUNDLE", "MISSING"})
_WELL_FORMED = st.sampled_from(sorted(_OPTIONS)).flatmap(
    lambda command: st.sampled_from(_OPTIONS[command]).map(
        lambda options: [command, "BUNDLE", *options]
    )
)
_ARGV = st.one_of(
    _WELL_FORMED,
    _WELL_FORMED,
    st.lists(st.sampled_from(_WORDS) | st.text(max_size=6), max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(content=_CONTENT, changelog=_CHANGELOG_CONTENT, argv=_ARGV)
def test_cli_exits_0_1_or_2_without_a_traceback_on_any_input(content, changelog, argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "BUNDLE": os.path.join(tmp, "b.bundle"),
            "CHANGELOG": os.path.join(tmp, "c.json"),
            "MISSING": os.path.join(tmp, "absent.bundle"),
        }
        Path(paths["BUNDLE"]).write_bytes(content)
        Path(paths["CHANGELOG"]).write_bytes(changelog)
        args = [paths.get(word, word) for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    assert not any(line.startswith("internal error") for line in text.splitlines()), text
