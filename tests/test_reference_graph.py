"""Edge-set gate for the reference graph.

The fixture holds, for the golden scan/verdict corpus (the toy and its 40
seeded bundles) and 60 more seeded genbundles bundles, a digest of the
sorted edges ``build_reference_graph`` returns. The extra bundles vary in
size and fault count; some hold quarantined or superseded declarations.
None assigns one unit in two projects: there the graph gains the edges of
every assignment, which the graph the fixture was captured from (one
assignment per unit) lacks.

Regenerate the fixture (only when an output change is intended and listed
in CHANGES.md) with ``PYTHONPATH=src:tests python tests/test_reference_graph.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from genbundles import inject_faults, parse_dict, random_bundle_dict
from test_golden_scan_verdict import _bundles as golden_bundles

from recap_engine.contamination import build_reference_graph

FIXTURE = Path(__file__).parent / "fixtures" / "reference_graph_edges.json"

N_EXTRA = 60


def _make_inert(rng: random.Random, doc: dict) -> None:
    """Quarantine a unit, a route, a parent abstraction and a law, and
    supersede another unit, where there are such."""
    units = doc["units"]
    for unit, flag in zip(rng.sample(units, min(2, len(units))), ("quarantined", "superseded")):
        unit[flag] = True
    rng.choice(doc["routes"])["quarantined"] = True
    parent = next(layer for layer in doc["layers"] if layer["kind"] == "parent")
    rng.choice(parent["abstractions"])["quarantined"] = True
    gp = doc["layers"][0]
    rng.choice([law for law in gp["laws"] if not law["immutable_core"]])["quarantined"] = True


def _bundles():
    yield from golden_bundles()
    for seed in range(N_EXTRA):
        rng = random.Random(5000 + seed)
        doc = random_bundle_dict(rng, n_parents=rng.randint(1, 3), n_children=rng.randint(2, 6),
                                 n_units=rng.randint(1, 4))
        inject_faults(rng, doc, rng.choice((0, 1, 3, 6)))
        if seed % 3 == 0:
            _make_inert(rng, doc)
        yield f"extra{seed}", parse_dict(doc)


def _digest(graph: dict[str, set[str]]) -> list:
    """[edge count, sha256 of the sorted edges]."""
    edges = sorted([src, dst] for src, dsts in graph.items() for dst in dsts)
    return [len(edges), hashlib.sha256(json.dumps(edges).encode()).hexdigest()]


def capture() -> dict[str, list]:
    return {name: _digest(build_reference_graph(bundle)) for name, bundle in _bundles()}


def test_reference_graph_matches_edge_set_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = capture()
    assert list(actual) == list(expected)
    for name, digest in expected.items():
        assert actual[name] == digest, name


def test_edge_set_corpus_holds_inert_records():
    extras = [bundle for name, bundle in _bundles() if name.startswith("extra")]
    assert len(extras) >= 40
    units = [unit for bundle in extras for unit in bundle.units]
    assert any(unit.quarantined for unit in units) and any(unit.superseded for unit in units)
    assert any(route.quarantined for bundle in extras for route in bundle.routes)


if __name__ == "__main__":
    FIXTURE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in capture().items())
        + "\n}\n",
        encoding="utf-8",
    )
