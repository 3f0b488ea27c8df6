"""``bundle.citations`` is the one walk over what a record cites: the parse
resolves it, and the write check blames a write for the references it
puts in. So an undeclared id put at any place the walk yields is reported
there, by a parse of the written bundle and by the write check alike.

The walk has two paths, the general ``bundle._cite`` and the walks
generated from the plans (``codegen.generate_citer``); every test here
runs on both (the ``paths`` fixture), and a differential holds them to
one list."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paths_fixture, set_paths
from genbundles import TimeSource, inject_borrowings, inject_faults, parse_dict
from genbundles import random_bundle_dict
from test_audit import random_ops_session
from toy import toy_bundle

from recap_engine import codegen
from recap_engine.bundle import CODECS, citations, clone, decode, encode, parse_bundle
from recap_engine.bundle import serialize_bundle, write_errors
from recap_engine.diagnostics import Severity

# One path for all of a hypothesis test's examples.
paths = paths_fixture("module")

GHOST = "child:C9:zz_undeclared"


def _steps(where) -> list[tuple[str, int]]:
    """The (list field, index) steps from the bundle to a position."""
    steps = []
    while where is not None:
        where, label, i = where
        steps.append((label, i))
    return steps[::-1]


def _with_ghost(bundle, ref):
    """A clone of ``bundle`` whose record holding ``ref`` is replaced by a
    copy that holds GHOST there: as the reference, or as the whole text."""
    _, expect, where, label, at = ref
    (section, i), *steps = _steps(where)
    top = getattr(bundle, section)[i]
    obj = cursor = encode(top)
    for name, j in steps:
        cursor = cursor[name][j]
    *heads, key = label.split(".")
    for head in heads:
        cursor = cursor[head]
    value = f"Cites {GHOST}." if expect == ("any",) else GHOST
    if at is None:
        cursor[key] = value
    else:
        cursor[key][at] = value
    after = clone(bundle)
    setattr(after, section, getattr(bundle, section)[:i] + (decode(top.__class__, obj),)
            + getattr(bundle, section)[i + 1:])
    return after


def _check(bundle, ref):
    _, _, where, label, at = ref
    path = ".".join(f"{name}[{i}]" for name, i in _steps(where))
    where = f"{path}.{label}" if at is None else f"{path}.{label}[{at}]"
    after = _with_ghost(bundle, ref)
    expected = [("E_UNRESOLVED_REF", where, f"unresolved reference {GHOST}")]
    parsed = parse_bundle(serialize_bundle(after))
    assert [(d.code, d.location, d.message) for d in parsed.diagnostics
            if d.severity == Severity.ERROR] == expected
    assert [(d.code, d.location, d.message) for d in write_errors(bundle, after)] == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), borrow=st.booleans(), pick=st.integers(0, 10**6))
def test_an_undeclared_id_at_any_cited_place_is_unresolved_there(paths, seed, borrow, pick):
    doc = random_bundle_dict(random.Random(seed))
    if borrow:
        inject_borrowings(doc)  # texts citing ids, among other places
    bundle = parse_dict(doc)
    refs = citations(bundle, None)
    _check(bundle, refs[pick % len(refs)])


TOY = toy_bundle()


@pytest.mark.parametrize("ref", citations(TOY, None), ids=lambda ref: f"{_steps(ref[2])}.{ref[3]}")
def test_an_undeclared_id_at_each_place_the_toy_cites_is_unresolved_there(paths, ref):
    _check(TOY, ref)


def test_the_walk_yields_references_in_field_order_nested_in_place_texts_last(paths):
    doc = random_bundle_dict(random.Random(4))
    assert inject_borrowings(doc)
    bundle = parse_dict(doc)
    unit = next(u for u in bundle.units if u.explicit_assumptions[-1:]
                and u.explicit_assumptions[-1].id.local_name == "DAB")
    u = (None, "units", 0)
    walked = citations(unit, u)
    assert [(ident.render(), where, label, at) for ident, _, where, label, at in walked] == [
        ("child:C2:PRJ", (u, "explicit_assumptions", 0), "text", None),
        ("parent:P1:mx", u, "measurement_refs", 0),
        ("child:C2:mz", u, "measurement_refs", 1),
        ("child:C2:PRJ", u, "limitations", None),
    ]
    block = citations(TOY.reviewer_blocks[0], (None, "reviewer_blocks", 0))
    assert [label for _, _, _, label, _ in block] == [
        "project_ref", "anticipated_critique.referenced_decisions", "assumptions_ref",
        "assumptions_ref",
    ]


# ---------------------------------------------------------------------------
# The two paths give one list
# ---------------------------------------------------------------------------


def _walks(records: list[tuple]) -> tuple[list[list[tuple]], ...]:
    """What each of ``records``, ``(record, where)`` pairs, cites: by
    :func:`citations` with the walks generated, by the generated walk of its
    own class called directly, and by the general walk alone. Each path is
    set once for all the records."""
    with pytest.MonkeyPatch.context() as mp:
        set_paths(mp, "generated")
        generated = [citations(record, where) for record, where in records]
        own, citers = [], {}
        for record, where in records:
            codec = CODECS[record.__class__]
            if codec not in citers:
                citers[codec] = codegen.generate_citer(codec)
            own.append([])
            citers[codec](record, where, own[-1])
    with pytest.MonkeyPatch.context() as mp:
        set_paths(mp, "general")
        general = [citations(record, where) for record, where in records]
    return generated, own, general


def _assert_one_list(bundle) -> None:
    records = [(bundle, None)] + [
        (record, (None, section, i))
        for section in ("layers", "projects", "units", "routes", "reviewer_blocks")
        for i, record in enumerate(getattr(bundle, section))
    ]
    generated, own, general = _walks(records)
    assert generated == own == general
    # The same tuples: each expected-kinds tuple is the plan's own object.
    assert all(a[1] is b[1] is c[1] for a, b, c in zip(generated[0], own[0], general[0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), faults=st.integers(0, 5), borrow=st.booleans())
def test_the_generated_and_general_walks_agree_on_generated_bundles(seed, faults, borrow):
    rng = random.Random(seed)
    doc = random_bundle_dict(rng)
    if borrow:
        inject_borrowings(doc)
    inject_faults(rng, doc, faults)
    _assert_one_list(parse_dict(doc))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_the_generated_and_general_walks_agree_on_states_a_session_leaves(seed):
    snapshot, live, _, _ = random_ops_session(random.Random(seed), TimeSource(), n_ops=6)
    _assert_one_list(snapshot)
    _assert_one_list(live)
