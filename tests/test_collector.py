"""The engine and Python's cyclic collector: ``parse_bundle`` pauses the
collector and leaves it as it found it, and no engine path leaves
reference cycles behind, so what a caller drops is freed by refcount. The
process entry runs a command with the collector off and freezes it before
exit; ``cli.main`` leaves it as it found it."""

import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import set_paths
from genbundles import TimeSource, inject_borrowings, random_bundle_dict
from test_audit import random_ops_session
from toy import over_long_integer_text, toy_text, variant

from recap_engine import bundle as bundle_module
from recap_engine.audit import find_declaration, replay
from recap_engine.bundle import CODECS, encode, parse_bundle, serialize_bundle
from recap_engine.cli import main
from recap_engine.contamination import scan_bundle, trace_downstream
from recap_engine.reporting import build_study_log, build_tier_table, compliance_verdict
from recap_engine.reporting import render_report
from recap_engine.writer import json_text


_DEFAULT_HOT = bundle_module._HOT


def _big_contaminated_text() -> str:
    """320 units, past the default ``bundle._HOT``, with lateral borrowings
    for the scan to find."""
    doc = random_bundle_dict(random.Random(5), n_children=4, n_units=80)
    assert inject_borrowings(doc)
    return json.dumps(doc)


def _garbage_left() -> int:
    """What the cyclic collector finds after the engine has parsed, scanned,
    reported, serialized and replayed, with the collector paused."""
    texts = [toy_text(), _big_contaminated_text()]
    rng, clock = random.Random(11), TimeSource()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            bundle = parse_bundle(text).bundle
            verdict = compliance_verdict(bundle)
            events = scan_bundle(bundle)
            for event in events:
                trace_downstream(event, bundle)
            json_text({"events": [encode(e) for e in events]})  # scan --format structured
            for fmt in ("markdown", "structured"):
                render_report(verdict, fmt)
                for block in bundle.reviewer_blocks:
                    render_report(block, fmt)
            for project in bundle.projects:
                for fmt in ("markdown", "csv", "structured"):
                    render_report(build_study_log(bundle, project), fmt)
                    render_report(build_tier_table(bundle, project), fmt)
            serialize_bundle(bundle)
            for unit in bundle.units:
                find_declaration(bundle, unit.study_id.render())
        # The session catches each rejection with a bare ``except
        # OperationRejected:``; ``pytest.raises`` would keep the traceback.
        snapshot, live, accepted, rejected = random_ops_session(rng, clock)
        replay(snapshot, live.events[len(snapshot.events):])
        del bundle, snapshot, live
        garbage = gc.collect()
    finally:
        gc.enable()
    assert accepted and rejected
    return garbage


def test_the_engine_leaves_no_cyclic_garbage(paths):
    assert _garbage_left() == 0


def test_the_engine_leaves_no_cyclic_garbage_as_classes_turn_hot(monkeypatch):
    # Every class starts cold at the default threshold: the big text turns
    # some hot mid-parse, so generating a decoder, walk or writer must
    # leave no cycle behind either.
    set_paths(monkeypatch, "general")
    monkeypatch.setattr(bundle_module, "_HOT", _DEFAULT_HOT)
    assert _garbage_left() == 0
    assert any(codec.fast is not None for codec in CODECS.values())


_TEXTS = {
    "toy": toy_text,
    "malformed": lambda: "{",
    "over-long integer": over_long_integer_text,
    "nested past the recursion limit": lambda: "[" * 200000,
    "unresolved reference": lambda: json.dumps(variant(
        lambda d: d["projects"][0]["assignments"].append(
            {"unit_ref": "child:C1:S1", "route_ref": "child:C1:R9", "role": "sensitivity"}
        )
    )),
}


@pytest.mark.parametrize("name", list(_TEXTS))
def test_an_enabled_collector_makes_one_young_collection_per_parse_and_stays_enabled(name):
    text = _TEXTS[name]()
    made = []

    def count(phase, info):
        if phase == "start":
            made.append(info["generation"])

    gc.callbacks.append(count)
    try:
        parse_bundle(text)
    finally:
        gc.callbacks.remove(count)
    assert gc.isenabled()
    assert made == [0]


@pytest.mark.parametrize("name", list(_TEXTS))
def test_parse_leaves_a_disabled_collector_disabled_and_collects_nothing(name):
    text = _TEXTS[name]()
    gc.disable()
    try:
        # Held objects raise the young generation's count well past what a
        # parse allocates, so a collection, which zeroes it, would show.
        held = [[] for _ in range(50_000)]
        before = gc.get_count()[0]
        parse_bundle(text)
        after = gc.get_count()[0]
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert after >= before
    del held


def test_an_interrupted_parse_reenables_the_collector(monkeypatch):
    def interrupt(text):
        raise KeyboardInterrupt

    text = toy_text()
    monkeypatch.setattr(json, "loads", interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            parse_bundle(text)
        assert gc.isenabled()
    finally:
        gc.enable()


def _in_a_fresh_process(code: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=False)


def test_the_process_entry_runs_a_command_with_no_collection(tmp_path):
    # Past bundle._HOT, so the command also compiles generated decoders
    # and walks: allocation enough to set off collections were the
    # collector on.
    path = tmp_path / "large.bundle"
    doc = random_bundle_dict(random.Random(5), n_children=4, n_units=75)
    assert len(doc["units"]) > _DEFAULT_HOT
    path.write_text(json.dumps(doc), encoding="utf-8")
    done = _in_a_fresh_process("\n".join([
        "import gc, sys",
        "from recap_engine.__main__ import run",
        "made = []",
        "gc.callbacks.append(lambda phase, info: phase == 'start' and made.append(info))",
        f"sys.argv = ['recap-engine', 'validate', {str(path)!r}]",
        "try:",
        "    run()",
        "except SystemExit as exc:",
        "    code = exc.code",
        # The exit collection walks only what was made after the freeze.
        "left = len(gc.get_objects())",
        "print(code, len(made), gc.isenabled(), gc.get_freeze_count() > 100 * left)",
    ]))
    assert done.returncode == 0, done.stderr[-500:]
    lines = done.stdout.splitlines()
    assert lines[0] == "non_compliant"  # no project of the bundle has its memos
    assert lines[-1] == "1 0 False True"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(toy_file, capsys, enabled):
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["validate", str(toy_file)]) == 0
        assert main(["scan", str(toy_file)]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out == "compliant\n0 contamination event(s)\n"


def test_importing_the_entry_runs_no_command():
    done = _in_a_fresh_process("\n".join([
        "import gc, sys",
        "import recap_engine.__main__",
        "print(gc.isenabled(), gc.get_freeze_count(), 'recap_engine.cli' in sys.modules)",
    ]))
    assert (done.returncode, done.stdout, done.stderr) == (0, "True 0 False\n", "")
