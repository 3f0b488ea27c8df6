"""A bundle holds its lists as tuples, so a state of a bundle is the tuples
it holds: nothing edits one in place, the kept index recognises a state by
the identity of its tuples, and the write check compares the records of
two states by identity."""

import pytest

from test_kept_index import _flow
from toy import toy_bundle

from recap_engine import bundle as bundle_module
from recap_engine.bundle import clone, write_errors
from recap_engine.contamination import record_flow, scan_bundle
from recap_engine.model import _LISTS, BundleIndex, ProjectBundle
from recap_engine.reporting import compliance_verdict


def test_a_parsed_bundles_lists_refuse_in_place_edits():
    bundle = toy_bundle()
    for name in _LISTS:
        items = getattr(bundle, name)
        assert items.__class__ is tuple, name
        with pytest.raises(AttributeError):
            items.append(None)
        with pytest.raises(TypeError):
            items[0:0] = [None]
    with pytest.raises(TypeError):
        bundle.units[0] = bundle.units[1]


def test_a_list_given_to_a_bundle_is_held_as_a_tuple():
    toy = toy_bundle()
    built = ProjectBundle("v1.0", units=list(toy.units), flows=[])
    assert built.units.__class__ is tuple and built.units == toy.units
    assert built.flows == () and built.layers == ()
    built.routes = list(toy.routes)
    built.projects += tuple(toy.projects)
    assert built.routes.__class__ is tuple and built.routes == toy.routes
    assert built.projects.__class__ is tuple and built.projects == toy.projects
    assert not any(isinstance(value, list) for value in vars(built).values())


def test_a_clone_shares_the_kept_index_until_its_first_write():
    bundle = toy_bundle()
    kept = BundleIndex.of(bundle)
    copy = clone(bundle)
    assert all(getattr(copy, name) is getattr(bundle, name) for name in _LISTS)
    assert BundleIndex.of(copy) is kept
    assert BundleIndex.of(kept.state) is kept
    record_flow(copy, _flow(1))
    fresh = BundleIndex.of(copy)
    assert fresh is not kept and _flow(1).id in {f.id for f in fresh.state.flows}
    assert BundleIndex.of(bundle) is not fresh


def test_a_scan_and_a_verdict_build_one_index(monkeypatch):
    # The scanner judges flows on the index's state; were that state not
    # recognised, the verdict would build a second index and detect again.
    bundle = toy_bundle()
    record_flow(bundle, _flow(1))
    built = []
    init = BundleIndex.__init__

    def counted(self, bundle):
        built.append(bundle)
        init(self, bundle)

    monkeypatch.setattr(BundleIndex, "__init__", counted)
    events = scan_bundle(bundle)
    report = compliance_verdict(bundle)
    assert bundle.flows and events and report.verdict == "non_compliant"
    assert len(built) == 1


def _walks(monkeypatch, before, after) -> tuple[list, int]:
    """The write check's diagnostics, and how many top-level records it
    walked for what they cite (a walk of the whole bundle, which looks for
    the citations of a dropped id, is not one of them)."""
    walked = []
    citations = bundle_module.citations

    def counted(record, path):
        if record.__class__ is not ProjectBundle:
            walked.append(record)
        return citations(record, path)

    monkeypatch.setattr(bundle_module, "citations", counted)
    return write_errors(before, after), len(walked)


def test_removing_a_record_walks_that_record_alone(monkeypatch):
    bundle = toy_bundle()
    bundle.flows += tuple(_flow(n) for n in range(400))
    for removed in (0, len(bundle.flows) // 2, len(bundle.flows) - 1):
        after = clone(bundle)
        after.flows = bundle.flows[:removed] + bundle.flows[removed + 1:]
        assert _walks(monkeypatch, bundle, after) == ([], 1)


def test_a_repeated_record_is_matched_once_per_occurrence(monkeypatch):
    bundle = toy_bundle()
    bundle.flows += (_flow(1),)
    after = clone(bundle)
    after.flows += (bundle.flows[-1],)  # the same record, declared twice
    diags, walked = _walks(monkeypatch, bundle, after)
    assert [(d.code, d.location) for d in diags] == [("E_DUP_ID", "child:C1:FX1")]
    assert walked == 1
