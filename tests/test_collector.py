"""The engine and Python's cyclic collector: ``parse_bundle`` pauses the
collector and leaves it as it found it, and no engine path leaves
reference cycles behind, so what a caller drops is freed by refcount."""

import gc
import json
import random

import pytest
from genbundles import TimeSource, inject_borrowings, random_bundle_dict
from test_audit import random_ops_session
from toy import over_long_integer_text, toy_text, variant

from recap_engine.audit import find_declaration, replay
from recap_engine.bundle import parse_bundle, serialize_bundle
from recap_engine.contamination import scan_bundle, trace_downstream
from recap_engine.reporting import build_study_log, build_tier_table, compliance_verdict
from recap_engine.reporting import render_report


def _big_contaminated_text() -> str:
    """320 units, past the default ``bundle._HOT``, with lateral borrowings
    for the scan to find."""
    doc = random_bundle_dict(random.Random(5), n_children=4, n_units=80)
    assert inject_borrowings(doc)
    return json.dumps(doc)


def test_the_engine_leaves_no_cyclic_garbage(decoders, writers):
    texts = [toy_text(), _big_contaminated_text()]
    rng, clock = random.Random(11), TimeSource()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            bundle = parse_bundle(text).bundle
            compliance_verdict(bundle)
            for event in scan_bundle(bundle):
                trace_downstream(event, bundle)
            for project in bundle.projects:
                # Structured renders are left out: they use the stdlib's
                # indenting JSON encoder, which leaves a closure cycle on
                # every call.
                for fmt in ("markdown", "csv"):
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
    assert garbage == 0


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

