"""A bundle means one thing whatever the order of its lists.

Shuffling every top-level list but ``events`` (whose order is the log's),
and every list of ids inside a record, leaves the verdict, the multiset of
its findings (code, message) and the multiset of scan events (direction,
rule, site, decisions affected) as they were. Locations and event numbers
name places in the lists, so they are not compared.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from genbundles import inject_faults, parse_dict, random_bundle_dict
from test_golden_scan_verdict import _add_contracts

from recap_engine.contamination import scan_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.identifiers import parse_identifier
from recap_engine.reporting import compliance_verdict


def _shuffle_ids(rng: random.Random, value) -> None:
    """Shuffle, in place, each list of canonical ids at any depth of ``value``."""
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, list) and item and all(
            isinstance(x, str) and parse_identifier(x) for x in item
        ):
            rng.shuffle(item)
        elif isinstance(item, (dict, list)):
            _shuffle_ids(rng, item)


def _shuffled(rng: random.Random, doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for key, value in doc.items():
        if isinstance(value, list) and key != "events":
            rng.shuffle(value)
            _shuffle_ids(rng, value)
    return doc


def _order(doc: dict) -> dict:
    """Each top-level list's records by their id, or project they belong to."""
    return {key: [r.get("id") or r.get("study_id") or r.get("project_ref") for r in value]
            for key, value in doc.items() if isinstance(value, list) and key != "events"}


def _meaning(doc: dict):
    bundle = parse_dict(doc)
    events = Counter(
        (e.direction, e.rule_violated, e.site.container, e.site.field, e.site.token,
         tuple(e.decisions_affected))
        for e in scan_bundle(bundle)
    )
    try:
        report = compliance_verdict(bundle)
    except OperationRejected as exc:
        return "rejected", Counter((d.code, d.message) for d in exc.diagnostics), events
    return report.verdict, Counter((d.code, d.message) for d in report.findings), events


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), faults=st.sampled_from((0, 1, 3, 6)),
       contracts=st.booleans(), order=st.integers(0, 2**16))
def test_shuffling_lists_changes_no_verdict_finding_or_scan_event(seed, faults, contracts, order):
    rng = random.Random(seed)
    doc = random_bundle_dict(rng)
    inject_faults(rng, doc, faults)
    if contracts:
        _add_contracts(rng, doc)
    other = _shuffled(random.Random(order), doc)
    assert _meaning(other) == _meaning(doc), (
        f"first order: {_order(doc)}\nsecond order: {_order(other)}"
    )
