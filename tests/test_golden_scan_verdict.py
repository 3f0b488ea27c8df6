"""Golden gate for the contamination scan and the compliance verdict.

The fixture holds, for the toy bundle and 40 seeded random bundles with
0, 1, 3 or 6 injected faults (half of them with boundary contracts added),
every scan event (id, order, site, location, ``decisions_affected``) and
every verdict finding (code, location, message, severity, order). It was
captured from the engine before the scan and the verdict moved onto one
reference graph and one read-pass index, so a mismatch means that change
altered an output.

Regenerate the fixture (only when an output change is intended and listed
in CHANGES.md) with ``PYTHONPATH=src:tests python tests/test_golden_scan_verdict.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from genbundles import inject_faults, parse_dict, random_bundle_dict
from toy import toy_bundle

from recap_engine.contamination import scan_bundle
from recap_engine.diagnostics import OperationRejected
from recap_engine.reporting import compliance_verdict

FIXTURE = Path(__file__).parent / "fixtures" / "scan_verdict_golden.json"

FAULT_COUNTS = (0, 1, 3, 6)
N_RANDOM = 40
INFO_TYPES = ("content", "measurement", "assumption")


def _add_contracts(rng: random.Random, doc: dict) -> None:
    """Boundary contracts between random child pairs: some authorize a
    transfer, some are near misses, some are incomplete."""
    children = [layer["id"] for layer in doc["layers"] if layer["kind"] == "child"]
    for n in range(rng.randint(1, 3)):
        src, dst = rng.sample(children, 2)
        doc["contracts"].append(
            {
                "id": f"child:{src}:K{n + 1}",
                "info_type": rng.choice(INFO_TYPES),
                "origin_layer": src,
                "destination_layer": dst,
                "legal_justification": rng.choice(("", "A reviewed transfer.")),
                "no_reinterpretation_clause": rng.random() < 0.8,
                "documentation_ref": "shared memo record",
            }
        )


def _bundles():
    yield "toy", toy_bundle()
    for seed in range(N_RANDOM):
        rng = random.Random(seed)
        doc = random_bundle_dict(rng)
        inject_faults(rng, doc, FAULT_COUNTS[seed % len(FAULT_COUNTS)])
        if seed % 2:
            _add_contracts(rng, doc)
        yield f"seed{seed}", parse_dict(doc)


def _verdict(bundle) -> dict:
    try:
        report = compliance_verdict(bundle)
    except OperationRejected as exc:
        return {"rejected": [[d.code, d.location, d.message] for d in exc.diagnostics]}
    return {
        "verdict": report.verdict,
        "findings": [
            [d.code, d.location, d.message, d.severity.label()] for d in report.findings
        ],
    }


def capture() -> list[dict]:
    rows = []
    for name, bundle in _bundles():
        events = [
            {
                "id": e.id,
                "rule": e.rule_violated,
                "direction": e.direction,
                "nature": e.nature,
                "site": [e.site.container, e.site.field, e.site.token],
                "location": e.location,
                "decisions_affected": e.decisions_affected,
            }
            for e in scan_bundle(bundle)
        ]
        rows.append({"bundle": name, "events": events, **_verdict(bundle)})
    return rows


def test_scan_and_verdict_match_golden_fixture(paths):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = capture()
    assert len(actual) == len(expected) == N_RANDOM + 1
    for exp, act in zip(expected, actual):
        assert act == exp, exp["bundle"]


def test_golden_fixture_exercises_the_scan():
    rows = json.loads(FIXTURE.read_text(encoding="utf-8"))
    events = [e for row in rows for e in row["events"]]
    assert sum(1 for row in rows if len(row["events"]) >= 3) >= 10
    assert any(e["decisions_affected"] for e in events)
    assert {e["rule"] for e in events} >= {
        "R1_upward_content",
        "R2_downward_rewrite",
        "R3_horizontal_borrowing",
    }


if __name__ == "__main__":
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in capture()) + "\n]\n",
        encoding="utf-8",
    )
