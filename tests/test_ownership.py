"""Every declaration sits in a declared layer.

An id names its owning layer by its namespace and owner (``child:C1:S1``
is layer C1's). The parse gives ``E_UNKNOWN_LAYER`` at each declaration
whose id names a layer the bundle does not declare, and ``E_SYNTAX`` at a
project's ``layer_ref`` that is not the layer its id names; the write check
refuses a write that declares such an id. So the contamination scan and
the reference graph always find a record's owner.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import random_bundle_dict
from toy import toy_bundle, variant

from recap_engine.bundle import parse_bundle
from recap_engine.cli import main
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import Identifier
from recap_engine.model import BundleIndex
from recap_engine.records import replace
from recap_engine.routing import declare_route


def _diagnostics(doc: dict) -> list[tuple[str, str, str]]:
    result = parse_bundle(json.dumps(doc))
    return [(d.code, d.location, d.message) for d in result.diagnostics]


def _stray_unit(doc: dict) -> None:
    """A copy of the first unit under the undeclared child layer C9, whose
    notes cite a unit and the project of the declared child C1."""
    unit = copy.deepcopy(doc["units"][0])
    unit["study_id"] = "child:C9:S9"
    unit["notes"] = "Read with child:C1:S2 under child:C1:PRJ."
    doc["units"].append(unit)


def test_a_unit_under_an_undeclared_layer_is_one_unknown_layer_error():
    doc = variant(_stray_unit)
    where = f"units[{len(doc['units']) - 1}].study_id"
    assert _diagnostics(doc) == [("E_UNKNOWN_LAYER", where, "no declared layer owns child:C9:S9")]


def test_a_project_whose_layer_ref_is_not_its_ids_layer_is_one_syntax_error():
    doc = random_bundle_dict(random.Random(3), n_parents=2, n_children=4)
    i = next(i for i, p in enumerate(doc["projects"]) if p["id"] == "child:C1:PRJ")
    doc["projects"][i]["layer_ref"] = "C2"
    assert _diagnostics(doc) == [
        ("E_SYNTAX", f"projects[{i}].layer_ref", "child:C1:PRJ belongs to layer child:C1:C1")
    ]


def test_an_ownerless_unit_and_project_each_get_unknown_layer():
    """The records the reference graph once gave the grandparent's laws."""
    doc = random_bundle_dict(random.Random(5004), n_parents=2, n_children=3, n_units=2)
    parent = next(layer for layer in doc["layers"] if layer["kind"] == "parent")
    unit = copy.deepcopy(doc["units"][0])
    unit["study_id"] = "child:C99:S1"
    unit["measurement_refs"] = [f"parent:{parent['id']}:mx"]
    unit["explicit_assumptions"] = []
    doc["units"].append(unit)
    project = copy.deepcopy(doc["projects"][0])
    project["id"] = "child:C99:PRJ"
    project["assignments"] = [{"unit_ref": "child:C99:S1", "route_ref": doc["routes"][0]["id"],
                               "role": "contextual"}]
    doc["projects"].append(project)
    assert _diagnostics(doc) == [
        ("E_UNKNOWN_LAYER", f"projects[{len(doc['projects']) - 1}].id",
         "no declared layer owns child:C99:PRJ"),
        ("E_UNKNOWN_LAYER", f"units[{len(doc['units']) - 1}].study_id",
         "no declared layer owns child:C99:S1"),
    ]


def test_a_parse_error_elsewhere_is_reported_alone():
    """Ownership is judged only on a bundle that has no other error."""
    def stray_and_broken(doc):
        _stray_unit(doc)
        doc["units"][0]["declared_tier"] = "gold"

    assert [code for code, _, _ in _diagnostics(variant(stray_and_broken))] == ["E_SYNTAX"]


#: Section -> the identity field of its records, and the list of records
#: nested in each that declare ids of their own.
_DECLARING = {
    "units": ("study_id", "explicit_assumptions"),
    "routes": ("id", "assumptions"),
    "contracts": ("id", None),
}


def _with_contract(doc: dict) -> dict:
    c1, c2 = [layer["id"] for layer in doc["layers"] if layer["kind"] == "child"][:2]
    doc["contracts"].append({
        "id": f"child:{c1}:K1", "info_type": "measurement", "origin_layer": c2,
        "destination_layer": c1, "legal_justification": "A reviewed transfer.",
        "no_reinterpretation_clause": True, "documentation_ref": "shared memo record",
    })
    return doc


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), section=st.sampled_from(sorted(_DECLARING)),
       pick=st.integers(0, 9))
def test_moving_a_record_into_an_undeclared_layer_flags_each_id_it_declares(seed, section, pick):
    rng = random.Random(seed)
    doc = _with_contract(random_bundle_dict(rng, n_children=rng.randint(2, 4),
                                            n_units=rng.randint(1, 3)))
    records = doc[section]
    moved = copy.deepcopy(records[pick % len(records)])
    at = f"{section}[{len(records)}]"
    key, nested = _DECLARING[section]
    places = [(moved, key, f"{at}.{key}")]
    places += [(item, "id", f"{at}.{nested}[{j}].id")
               for j, item in enumerate(moved.get(nested, ()) if nested else ())]
    expected = []
    for record, name, where in places:
        record[name] = f"child:Z9:{record[name].rsplit(':', 1)[-1]}"
        expected.append(("E_UNKNOWN_LAYER", where, f"no declared layer owns {record[name]}"))
    records.append(moved)
    assert _diagnostics(doc) == expected


@pytest.mark.parametrize("command", ["validate", "scan"])
def test_the_cli_reports_a_stray_unit_as_a_parse_error(tmp_path, capsys, command):
    doc = variant(_stray_unit)
    path = tmp_path / "stray.bundle"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    where = f"units[{len(doc['units']) - 1}].study_id"
    assert code == 2
    assert f"E_UNKNOWN_LAYER {where} no declared layer owns child:C9:S9" in err.splitlines()
    assert "internal error" not in out + err


def test_a_route_declared_under_an_undeclared_layer_is_refused():
    bundle = toy_bundle()
    before = bundle.__dict__.copy()
    index = BundleIndex.of(bundle)
    project = next(iter(index.projects.values()))
    route = bundle.routes[0]
    assumptions = tuple(replace(a, id=Identifier("child", "C9", f"A{i}"))
                        for i, a in enumerate(route.assumptions))
    stray = replace(route, id=Identifier("child", "C9", "R9"), assumptions=assumptions,
                    frozen_at=None, revisions=())
    with pytest.raises(OperationRejected) as err:
        declare_route(bundle, project.id, stray, commit_route=False)
    found = [(d.code, d.location) for d in err.value.diagnostics]
    assert found == [("E_UNKNOWN_LAYER", "child:C9:R9")] + [
        ("E_UNKNOWN_LAYER", a.id.render()) for a in assumptions]
    assert bundle.__dict__ == before


def _second_c1_layer(doc: dict) -> None:
    """The toy with a second child layer whose id names owner Z for local
    name C1, and its project's layer_ref written in full."""
    doc["layers"].append({"id": "child:Z:C1", "kind": "child", "version": "v1.0",
                          "parent_ref": "P", "laws": [], "abstractions": []})
    doc["projects"][0]["layer_ref"] = "child:C1:C1"


def test_a_layer_id_under_another_owner_is_one_syntax_error(paths):
    doc = variant(_second_c1_layer)
    where = f"layers[{len(doc['layers']) - 1}].id"
    assert _diagnostics(doc) == [
        ("E_SYNTAX", where, "layer id child:Z:C1 does not name its layer 'C1' as owner")
    ]


def test_the_cli_reports_a_layer_id_under_another_owner_as_a_parse_error(tmp_path, capsys):
    doc = variant(_second_c1_layer)
    path = tmp_path / "two_c1.bundle"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"E_SYNTAX layers[{len(doc['layers']) - 1}].id" in err
    assert "internal error" not in out + err
