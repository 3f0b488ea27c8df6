"""Gate tests for the record codec.

The type-swap sweep sets every path of the toy document, one at a time, to
each of a handful of JSON values of the wrong shape and compares the parser's
diagnostics against a stored fixture. The fixture was captured from the
hand-written per-record decoder that the schema-driven codec replaced, so a
mismatch means the codec changed a code, a location, a message or an order.

Regenerate the fixture (only when a diagnostic change is intended and listed
in CHANGES.md) with ``PYTHONPATH=src:tests python tests/test_codec.py``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from toy import toy_bundle, toy_dict

from recap_engine import model, records
from recap_engine.bundle import CODECS, decode, encode, parse_bundle
from recap_engine.identifiers import KIND_TO_NAMESPACE

FIXTURE = Path(__file__).parent / "fixtures" / "type_swap_diagnostics.json"

SWAP_VALUES = (None, True, 0, "x", [], {})


def _paths(node, prefix=()):
    """Every key and index path of a JSON tree, pre-order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _swapped(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def sweep() -> list[list]:
    """[path, value index, [[code, location, message], ...]] per document."""
    doc = toy_dict()
    rows = []
    for path in _paths(doc):
        for v, value in enumerate(SWAP_VALUES):
            result = parse_bundle(json.dumps(_swapped(doc, path, value)))
            diags = [[d.code, d.location, d.message] for d in result.diagnostics]
            rows.append([".".join(map(str, path)), v, diags])
    return rows


def test_type_swap_diagnostics_match_fixture(paths):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = sweep()
    assert len(actual) == len(expected) == 2322
    mismatches = [
        (exp[0], SWAP_VALUES[exp[1]], exp[2], act[2])
        for exp, act in zip(expected, actual)
        if exp != act
    ]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# Completeness: every persisted field has a spec, and records round-trip
# ---------------------------------------------------------------------------

#: Model records that are derived or transient, never persisted.
NOT_PERSISTED = {
    model.Spec,
    model.InsightProposal,
    model.StudyLogEntry,
    model.TierTableRow,
    model.ComplianceReport,
}


def test_every_persisted_field_has_a_spec():
    classes = {
        obj
        for obj in vars(model).values()
        if isinstance(obj, type)
        and records.is_record(obj)
        and obj.__module__ == model.__name__
    }
    persisted = classes - NOT_PERSISTED
    assert persisted == set(CODECS)
    for cls in persisted:
        for f in records.fields(cls):
            assert isinstance(f.spec, model.Spec), f"{cls.__name__}.{f.name}"


def test_every_expected_kind_is_declared_by_exactly_one_record():
    specs = [spec for codec in CODECS.values() for _, _, spec in codec.fields]
    declared = [spec.declares for spec in specs if spec.declares]
    assert all(spec.identity for spec in specs if spec.declares)
    assert len(declared) == len(set(declared)) == 10
    items = [spec.of if spec.kind == model.LIST else spec for spec in specs]
    expected = {kind for spec in items for kind in spec.expect} - {"any"}
    assert expected and expected <= set(declared)


def _records(cls, obj, ns, owner):
    """(class, record dict, namespace, owner) for obj and every nested record."""
    yield cls, obj, ns, owner
    if cls is model.LayerDecl:
        ns, owner = KIND_TO_NAMESPACE[obj["kind"]], obj["id"].rsplit(":", 1)[-1]
    for name, key, spec in CODECS[cls].fields:
        if spec.kind == model.LIST and spec.of.kind == model.RECORD:
            for item in obj[key]:
                yield from _records(spec.of.of, item, ns, owner)


#: Records of the classes the toy bundle does not hold.
EXTRA_RECORDS = [
    (model.ReTierEvent, {"timestamp": "2026-02-01T00:00:00Z", "source_of_information": "s",
                         "justification": "j", "implications_for_route": "i",
                         "old_tier": "supplement", "new_tier": "core"}),
    (model.RouteRevision, {"timestamp": "2026-02-01T00:00:00Z", "justification": "j",
                           "downstream_implications": "d", "change_description": "c"}),
    (model.BoundaryContract, {"id": "child:C1:K", "info_type": "content",
                              "origin_layer": "child:C2:C2", "destination_layer": "child:C1:C1",
                              "legal_justification": "l", "no_reinterpretation_clause": True,
                              "documentation_ref": "doc"}),
    (model.ChangelogEntry, {"from_version": "v1.0", "to_version": "v1.1",
                            "motivating_insight": "m", "boundary_affected": "b",
                            "generalizability_reasoning": "g", "timestamp": "t"}),
    (model.ContaminationEvent, {"id": "CONT-0001", "rule_violated": "R3_horizontal_borrowing",
                                "direction": "horizontal", "nature": "content",
                                "site": {"container": "child:C1:S1", "field": "notes",
                                         "token": "child:C2:X"},
                                "location": "units[0].notes", "risks_introduced": "r",
                                "decisions_affected": ["tier:child:C1:S1"],
                                "corrective_action": "quarantined",
                                "versioned_update": "event:3", "timestamp": "t",
                                "resolved": True}),
]


def _all_records():
    records = list(_records(model.ProjectBundle, encode(toy_bundle()), "child", ""))[1:]
    return records + [(cls, record, "child", "") for cls, record in EXTRA_RECORDS]


def test_every_toy_record_round_trips_through_the_codec():
    records = _all_records()
    for cls, record, ns, owner in records:
        assert encode(decode(cls, record, owner=owner, ns=ns)) == record, cls.__name__
    # The bundle document itself is decoded by parse_bundle, and event
    # payloads by decode_payload.
    payloads = {*model.EVENT_PAYLOADS.values(), model.ResolutionEffect, model.RouteBody}
    assert {cls for cls, *_ in records} | {model.ProjectBundle, model.ContaminationSite} | (
        payloads
    ) == set(CODECS)


def test_decoded_records_share_no_list_or_map_with_their_input():
    for cls, record, ns, owner in _all_records():
        decoded = decode(cls, record, owner=owner, ns=ns)
        for name, key, spec in CODECS[cls].fields:
            if spec.kind in (model.LIST, model.MAP) and key in record:
                assert getattr(decoded, name) is not record[key], f"{cls.__name__}.{name}"


if __name__ == "__main__":  # pragma: no cover
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = sweep()
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} rows to {FIXTURE}")
