"""Record classes behave as the dataclasses they replaced.

Each check builds the same class twice, once with ``dataclasses`` as the
reference and once with :func:`recap_engine.records.record`, and compares
what the two do; the engine's own records and the hand-written
:class:`Identifier` are checked directly.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

import recap_engine
from recap_engine import records
from recap_engine.diagnostics import Diagnostic, Severity
from recap_engine.identifiers import Identifier
from recap_engine.layers import EffectiveConstraintSet
from recap_engine.model import ChangelogEntry, InsightProposal, Law, Spec
from recap_engine.records import field, record


def _pair(frozen: bool):
    """(reference dataclass, record) with the same fields and defaults."""

    @dataclasses.dataclass(frozen=frozen)
    class Row:
        name: str
        size: int = 0
        tags: list = dataclasses.field(default_factory=list)

    reference = Row

    @record(frozen=frozen)
    class Row:  # noqa: F811 - the same class, built as a record
        name: str
        size: int = 0
        tags: list = field(factory=list)

    return reference, Row


CALLS = [
    (("a",), {}),
    (("a", 2), {}),
    (("a", 2, ["x"]), {}),
    ((), {"name": "a"}),
    (("a",), {"tags": ["y"]}),
    ((), {"tags": ["y"], "size": 3, "name": "a"}),
]

BAD_CALLS = [
    ((), {}),  # missing
    (("a",), {"colour": "red"}),  # unexpected
    (("a",), {"name": "b"}),  # duplicate
    (("a", 1, [], 4), {}),  # too many positional
]


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("args, kwargs", CALLS)
def test_init_repr_eq_and_field_order_match_the_dataclass(frozen, args, kwargs):
    reference, cls = _pair(frozen)
    expected, got = reference(*args, **kwargs), cls(*args, **kwargs)
    assert repr(got) == repr(expected).replace(reference.__qualname__, cls.__qualname__)
    assert list(vars(got).items()) == list(vars(expected).items())
    assert got == cls(*args, **kwargs)
    assert not got != cls(*args, **kwargs)
    assert got != cls("other")


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_bad_arguments_raise_type_error_like_the_dataclass(frozen, args, kwargs):
    reference, cls = _pair(frozen)
    with pytest.raises(TypeError):
        reference(*args, **kwargs)
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


def test_records_of_different_classes_are_never_equal():
    _, first = _pair(False)
    _, second = _pair(False)
    assert first("a") == first("a")
    assert first("a") != second("a")
    assert first("a").__eq__(second("a")) is NotImplemented
    assert first("a") != ("a", 0, [])


def test_factory_values_are_fresh_per_instance():
    _, cls = _pair(False)
    one, two = cls("a"), cls("a")
    one.tags.append("x")
    assert two.tags == []
    gp = Identifier("gp", "", "G")
    assert InsightProposal("i", gp, gp, "s").referenced_terms is not InsightProposal(
        "i", gp, gp, "s"
    ).referenced_terms
    sets = EffectiveConstraintSet(Identifier("child", "C1", "C1")), EffectiveConstraintSet(
        Identifier("child", "C1", "C1")
    )
    assert sets[0].laws is not sets[1].laws and sets[0].correspondences is not sets[1].correspondences


def test_mutable_records_are_unhashable_and_assignable():
    # Records below the bundle are frozen; a changelog entry is not.
    entry = ChangelogEntry("v1.0", "v1.1", "insight", "boundary", "reasoning", "t")
    with pytest.raises(TypeError):
        hash(entry)
    entry.to_version = "v1.2"
    assert entry.to_version == "v1.2"
    assert list(vars(entry)) == [
        "from_version", "to_version", "motivating_insight", "boundary_affected",
        "generalizability_reasoning", "timestamp",
    ]


@pytest.mark.parametrize(
    "value",
    [
        Diagnostic("E_SYNTAX", "line 1", "bad"),
        Spec("str"),
        Identifier("child", "C1", "U1"),
        Law(Identifier("gp", "", "L1"), "text"),
    ],
)
def test_frozen_values_reject_assignment_and_hash_by_value(value):
    with pytest.raises(AttributeError):
        value.__setattr__("location", "elsewhere")
    with pytest.raises(AttributeError):
        del value.location
    assert hash(value) == hash(copy.copy(value))
    assert len({value, copy.deepcopy(value)}) == 1


def test_frozen_record_hash_is_the_dataclass_hash():
    reference, cls = _pair(True)
    assert hash(cls("a", 2, ("x",))) == hash(reference("a", 2, ("x",)))


def test_engine_record_reprs():
    diag = Diagnostic("E_SYNTAX", "line 1", "bad")
    assert repr(diag) == (
        "Diagnostic(code='E_SYNTAX', location='line 1', message='bad', "
        "severity=<Severity.ERROR: 0>)"
    )
    assert diag == Diagnostic("E_SYNTAX", "line 1", "bad", Severity.ERROR)
    ident = Identifier("gp", "", "one_route")
    assert repr(ident) == "Identifier(namespace='gp', owner='', local_name='one_route')"
    assert repr(Law(ident, "t")) == (
        f"Law(id={ident!r}, text='t', immutable_core=False, quarantined=False)"
    )


def test_fields_lists_specs_in_declaration_order():
    names = [f.name for f in records.fields(Law)]
    assert names == ["id", "text", "immutable_core", "quarantined"]
    assert all(isinstance(f.spec, Spec) for f in records.fields(Law))
    assert records.is_record(Law) and records.is_record(Law(Identifier("gp", "", "L"), "t"))
    assert not records.is_record(Identifier)
    with pytest.raises(TypeError):
        records.fields(Identifier)


# ---------------------------------------------------------------------------
# Identifier: a tuple carrying its text; ordered, frozen, copyable and picklable
# ---------------------------------------------------------------------------


def test_identifier_orders_like_its_field_tuple():
    idents = [
        Identifier("parent", "P1", "a"),
        Identifier("child", "C2", "b"),
        Identifier("gp", "", "z"),
        Identifier("child", "C1", "c"),
        Identifier("child", "C1", "a"),
    ]
    key = lambda i: (i.namespace, i.owner, i.local_name)  # noqa: E731
    assert sorted(idents) == sorted(idents, key=key)
    assert Identifier("child", "C1", "a") <= Identifier("child", "C1", "a")
    assert Identifier("gp", "", "a") > Identifier("child", "Z", "z")
    with pytest.raises(TypeError):
        Identifier("gp", "", "a") < ("gp", "", "a")


def test_identifier_equality_and_hash():
    one, two = Identifier("child", "C1", "U1"), Identifier("child", "C1", "U1")
    assert one == two and hash(one) == hash(two) and one is not two
    assert one != Identifier("child", "C2", "U1") and one != Identifier("parent", "C1", "U1")
    assert one != ("child", "C1", "U1")
    assert {one: 1}.get(two) == 1


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_identifier_copies_are_equal_and_frozen(copier):
    ident = Identifier("parent", "P1", "K1")
    clone = copier(ident)
    assert clone == ident and hash(clone) == hash(ident) and clone.render() == "parent:P1:K1"
    with pytest.raises(AttributeError):
        clone.owner = "P2"


# ---------------------------------------------------------------------------
# The package resolves its exports on first use
# ---------------------------------------------------------------------------

#: The package's public names before they were resolved lazily.
PUBLIC_NAMES = [
    "Assessment", "BundleIndex", "Diagnostic", "ENGINE_VERSION", "EvidentialUnit",
    "Identifier", "OperationRejected", "ParseResult", "ProjectBundle", "Route", "Severity",
    "Tier", "append_event", "build_study_log", "build_tier_table", "bump_version",
    "check_flow", "check_law_evolution", "check_route_coherence", "check_tier_declaration",
    "compliance_verdict", "compute_tier", "declare_route", "explain_code", "freeze_route",
    "load_bundle", "parse_bundle", "render_report", "replay", "resolve_constraints",
    "revise_route", "scan_bundle", "serialize_bundle", "tier_unit", "trace_downstream",
    "validate_insight", "validate_reviewer_block",
]


def test_star_import_and_dir_give_the_public_names():
    assert recap_engine.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(recap_engine))
    namespace: dict = {}
    exec("from recap_engine import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    from recap_engine.contamination import scan_bundle

    assert namespace["scan_bundle"] is scan_bundle
    with pytest.raises(AttributeError):
        recap_engine.no_such_name
