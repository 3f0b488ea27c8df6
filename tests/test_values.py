"""Records below the bundle are values, and the writer reuses their text.

Every record class a bundle holds is frozen, with its lists as tuples and
its maps and free JSON read-only, so nothing below the bundle changes in
place. ``serialize_bundle`` keeps the text of each top-level record it
last rendered and renders only the records a write replaced; these tests
check that the reused text is always the text a cold render gives.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import TimeSource
from test_audit import _session_bundles, random_ops_session
from toy import toy_bundle

from recap_engine import records, writer
from recap_engine.audit import replay
from recap_engine.bundle import CODECS, encode, parse_bundle, serialize_bundle
from recap_engine.identifiers import Identifier
from recap_engine.model import JSON, LIST, MAP, RECORD, ProjectBundle
from recap_engine.records import FrozenDict, FrozenList, FrozenRecordError


def oracle(bundle) -> str:
    """A cold render, which shares nothing with the writer's kept texts."""
    return json.dumps(encode(bundle), indent=2, ensure_ascii=False) + "\n"


def _classes_below(cls: type) -> set[type]:
    """Every record class reachable from ``cls`` through its specs."""
    found: set[type] = set()
    for _, _, spec in CODECS[cls].fields:
        item = spec.of if spec.kind == LIST else spec
        if item.kind == RECORD and item.of not in found:
            found |= {item.of} | _classes_below(item.of)
    return found


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------


def test_every_record_class_below_the_bundle_is_frozen():
    classes = _classes_below(ProjectBundle)
    assert len(classes) >= 18  # LayerDecl and EvidentialUnit down to AuditEvent
    for cls in classes:
        probe = object.__new__(cls)
        for f in records.fields(cls):
            with pytest.raises(FrozenRecordError):
                setattr(probe, f.name, None)
    # The bundle's fields stay assignable: a write gives it new tuples.
    bundle = toy_bundle()
    bundle.units += (bundle.units[0],)
    bundle.recap_version = "v1.0"


def _refuses_change(value) -> None:
    """Assignment, append and item assignment on ``value`` all raise."""
    if records.is_record(value) and not isinstance(value, Identifier):
        for name in vars(value):
            with pytest.raises(FrozenRecordError):
                setattr(value, name, None)
    if isinstance(value, (tuple, FrozenList, FrozenDict)):
        with pytest.raises((AttributeError, TypeError)):
            value.append(None)
        with pytest.raises((FrozenRecordError, TypeError)):
            value[0] = None


def _check_values(record, codec) -> int:
    """Check every value below ``record`` by its spec; the number checked."""
    _refuses_change(record)
    checked = 1
    for name, _, spec in codec.fields:
        value = record.__dict__[name]
        if spec.kind == LIST:
            assert value.__class__ is tuple, (codec.name, name)
            _refuses_change(value)
            if spec.of.kind == RECORD:
                checked += sum(_check_values(item, CODECS[spec.of.of]) for item in value)
        elif spec.kind == MAP or spec.kind == JSON:
            checked += _check_json(value)
        elif spec.kind == RECORD and value is not None:
            checked += _check_values(value, CODECS[spec.of])
    return checked


def _check_json(value) -> int:
    if isinstance(value, dict):
        assert value.__class__ is FrozenDict
        _refuses_change(value)
        return 1 + sum(_check_json(item) for item in value.values())
    if isinstance(value, list):
        assert value.__class__ is FrozenList
        _refuses_change(value)
        return 1 + sum(_check_json(item) for item in value)
    return 0


def test_no_value_below_a_bundle_can_change_in_place():
    bundles = [toy_bundle()] + [b for pair in _session_bundles() for b in pair]
    checked = 0
    for bundle in bundles:
        codec = CODECS[ProjectBundle]
        for name, _, spec in codec.fields[1:]:
            item = CODECS[spec.of.of]
            checked += sum(_check_values(record, item) for record in getattr(bundle, name))
    assert checked > 1000


def test_records_built_from_lists_and_dicts_hold_tuples_and_read_only_json():
    bundle = toy_bundle()
    unit = records.replace(bundle.units[0], measurement_refs=[bundle.units[1].study_id])
    assert unit.measurement_refs == (bundle.units[1].study_id,)
    event = records.replace(bundle.events[0], payload={"a": [1, {"b": [2]}]}, affected=["x"])
    assert event.affected == ("x",)
    assert event.payload == {"a": [1, {"b": [2]}]}
    assert repr(event.payload) == "{'a': [1, {'b': [2]}]}"
    with pytest.raises(FrozenRecordError):
        event.payload["a"][1]["b"].append(3)
    with pytest.raises(TypeError):
        records.replace(unit, colour="red")


# ---------------------------------------------------------------------------
# The writer's kept texts
# ---------------------------------------------------------------------------


def _top_level_ids(bundle) -> set[int]:
    return {id(r) for name in vars(bundle) if isinstance(getattr(bundle, name), tuple)
            for r in getattr(bundle, name)}


def test_writing_a_second_bundle_keeps_no_text_of_the_first():
    first, second = toy_bundle(), toy_bundle()
    serialize_bundle(first)
    assert {id(r) for r, _ in writer._texts.values()} == _top_level_ids(first)
    serialize_bundle(second)
    kept = {id(r) for r, _ in writer._texts.values()}
    assert kept == _top_level_ids(second)
    assert not kept & _top_level_ids(first)


def test_a_record_swapped_in_without_commit_is_written():
    bundle = toy_bundle()
    serialize_bundle(bundle)
    units = bundle.units
    unit = units[1]
    bundle.units = units[:1] + (records.replace(unit, notes=unit.notes + " Re-read."),) + units[2:]
    assert " Re-read." in serialize_bundle(bundle)
    assert serialize_bundle(bundle) == oracle(bundle)
    bundle.units += (records.replace(unit, study_id=Identifier("child", "C1", "S9")),)
    bundle.contracts = ()
    assert serialize_bundle(bundle) == oracle(bundle)
    assert '"study_id": "child:C1:S9"' in serialize_bundle(bundle)


def test_a_record_repeated_in_a_list_is_written_at_each_place():
    bundle = toy_bundle()
    serialize_bundle(bundle)
    bundle.units += (bundle.units[0],)
    assert serialize_bundle(bundle) == oracle(bundle)


def _check_step(snapshot, live) -> None:
    """After one step of a session: the text kept for ``live`` is a cold
    render of its re-parsed form, and replaying its log gives the same
    text. Neither check renders through the kept texts."""
    text = serialize_bundle(live)
    assert text == oracle(parse_bundle(text).bundle)
    replayed = replay(snapshot, live.events[len(snapshot.events):])
    assert oracle(replayed) == text


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kept_texts_match_a_cold_render_and_replay_after_every_step(seed):
    # random_ops_session itself checks that a rejected step leaves the
    # bytes unchanged, through the kept texts.
    steps = []
    random_ops_session(random.Random(seed), TimeSource(), n_ops=10,
                       step=lambda snapshot, live: steps.append(_check_step(snapshot, live)))
    assert steps
