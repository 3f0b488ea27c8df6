"""The index kept per bundle state (``BundleIndex.of``) and the detection it
holds: reused only while the bundle holds the very same records, and never
changed by what a caller does with the results."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import edit
from toy import toy_bundle

from recap_engine.bundle import clone
from recap_engine.contamination import _detect, detect_contamination, record_flow
from recap_engine.identifiers import Identifier
from recap_engine.model import BundleIndex, FlowEvent
from recap_engine.records import replace
from recap_engine.tiering import declare_tier, tier_unit

_MAPS = ("layers", "layers_by_name", "grandparent", "units", "routes", "projects",
         "contracts", "contracts_between", "reviewer_blocks", "memos")


def _ids(value):
    """``value`` with every record replaced by its id(), so that two maps
    compare equal only if they hold the very same records."""
    if isinstance(value, dict):
        return {key: _ids(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ids(item) for item in value]
    return id(value)


def maps(index: BundleIndex) -> dict:
    out = {name: _ids(getattr(index, name)) for name in _MAPS}
    bundle = index.state
    out["ancestors"] = [_ids(index.ancestors(layer)) for layer in bundle.layers]
    out["owners"] = [id(index.owner(unit.study_id)) for unit in bundle.units]
    out["active"] = [_ids(index.active_units(project)) for project in bundle.projects]
    out["assignments"] = [
        id(index.assignment(project, a.unit_ref)) for project in bundle.projects
        for a in project.assignments
    ]
    return out


def _flow(n: int) -> FlowEvent:
    # Content moving up from the child to its parent: one R1 finding per
    # recorded flow.
    return FlowEvent(
        id=Identifier("child", "C1", f"FX{n}"),
        source_layer=Identifier("child", "C1", "C1"),
        dest_layer=Identifier("parent", "P", "P"),
        info_class="content",
        payload=f"Reading {n} moved up.",
        timestamp=f"2026-06-01T00:{n:02d}:00Z",
    )


def _step(bundle, kind: str, n: int, i: int):
    """Step ``i`` of a session; returns the bundle to go on with."""
    if kind == "commit_flow":
        record_flow(bundle, _flow(i))
    elif kind == "commit_tier":
        unit = bundle.units[n % len(bundle.units)]
        declare_tier(bundle, unit.study_id, tier_unit(unit).tier, f"Re-read {n}.",
                     timestamp=f"2026-06-01T00:{i:02d}:00Z")
    elif kind == "slice":
        bundle.flows[:] = bundle.flows[::-1]
    elif kind == "item":
        k = n % len(bundle.units)
        bundle.units[k] = replace(bundle.units[k], notes=f"note {n}")
    elif kind == "equal_copy":
        k = n % len(bundle.layers)
        bundle.layers[k] = replace(bundle.layers[k])
    elif kind == "replace_list":
        bundle.routes = list(bundle.routes[1:])
    elif kind == "same_records":
        bundle.units = list(bundle.units)
    elif kind == "clone":
        bundle = clone(bundle)
    return bundle


_KINDS = ("commit_flow", "commit_tier", "slice", "item", "equal_copy", "replace_list",
          "same_records", "clone", "read")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 50)), max_size=8))
def test_the_kept_index_always_indexes_the_current_state(steps):
    bundle = toy_bundle()
    BundleIndex.of(bundle)
    for i, (kind, n) in enumerate(steps):
        bundle = _step(bundle, kind, n, i)
        kept = BundleIndex.of(bundle)
        assert maps(kept) == maps(BundleIndex(bundle))
        assert detect_contamination(bundle) == list(_detect(BundleIndex(bundle)))
        assert BundleIndex.of(bundle) is kept


def test_a_state_is_scanned_once():
    bundle = toy_bundle()
    record_flow(bundle, _flow(1))
    first = detect_contamination(bundle)
    assert first
    index = BundleIndex.of(bundle)
    assert index.contamination is not None
    again = detect_contamination(bundle)
    assert BundleIndex.of(bundle) is index and again == first


def test_editing_returned_events_leaves_the_next_result_unchanged():
    bundle = toy_bundle()
    record_flow(bundle, _flow(1))
    first = detect_contamination(bundle)
    expected = detect_contamination(bundle)
    event = first[0]
    event.id = "EDITED"
    event.resolved = True
    event.site.container = "child:C1:ELSEWHERE"
    event.site.token = "gp:X"
    event.decisions_affected.append("tier:child:C1:S1")
    assert detect_contamination(bundle) == expected
    assert detect_contamination(bundle)[0].site is not detect_contamination(bundle)[0].site


def test_an_equal_valued_copy_of_a_record_gives_a_new_index():
    bundle = toy_bundle()
    kept = BundleIndex.of(bundle)
    copy = replace(bundle.units[0])
    assert copy == bundle.units[0]
    bundle.units[0] = copy
    fresh = BundleIndex.of(bundle)
    assert fresh is not kept
    assert fresh.units[copy.study_id] is copy


def test_a_dropped_bundle_releases_the_kept_index_and_its_records():
    bundle = toy_bundle()
    edit(bundle, bundle.units[0], notes="only this bundle holds me")
    BundleIndex.of(bundle)
    detect_contamination(bundle)
    bundle_ref, record_ref = weakref.ref(bundle), weakref.ref(bundle.units[0])
    del bundle
    gc.collect()
    assert bundle_ref() is None
    assert record_ref() is None
