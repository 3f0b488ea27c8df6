"""Differential gate for the bundle decoder, and its totality properties.

The fixture holds, for a seeded corpus of generated documents each given
one to three field mutations, the parser's full diagnostics (code,
location, message, in order) and, when the document parses, a digest of
the decoded bundle. It was captured from the decoder before its fields
were decoded by per-spec closures, so a mismatch means that change altered
a diagnostic, its order, or a decoded value.

The mutations cover bare names in identifier and layer fields, null and
missing keys, identity ids in the wrong namespace or owned by another
layer, a bad item first or last in every list kind, unresolved and
wrong-kind references, and the ``anticipated_critique.*`` key paths.

Regenerate the fixture (only when a diagnostic change is intended and listed
in CHANGES.md) with ``PYTHONPATH=src:tests python tests/test_decode_differential.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genbundles import inject_faults, random_bundle_dict
from test_codec import _paths, _swapped
from toy import toy_dict

from recap_engine.bundle import CODECS, ParseResult, encode, parse_bundle
from recap_engine.model import IDENT, LAYER, LIST, RECORD, ProjectBundle

FIXTURE = Path(__file__).parent / "fixtures" / "decode_differential.json"
N_DOCS = 240

# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


def _add_sections(rng: random.Random, doc: dict) -> None:
    """A reviewer block, a memo, a contract and audit events, so every
    record kind of the bundle is present to be mutated."""
    children = [l["id"] for l in doc["layers"] if l["kind"] == "child"]
    c1, c2 = children[0], children[1]
    doc["reviewer_blocks"].append(
        {
            "project_ref": f"child:{c1}:PRJ",
            "methodological_findings": ["Construct measured reliably.", "Proxy attenuates."],
            "conceptual_insight": "The proxy remains unstable.",
            "anticipated_critique": {
                "text": "Why was a stronger proxy not used?",
                "referenced_decisions": [f"child:{c1}:R1"],
            },
            "disconfirming_model": "The reverse direction may hold.",
            "assumptions_ref": [f"child:{c1}:AS1"],
        }
    )
    doc["memos"].append(
        {
            "project_ref": f"child:{c1}:PRJ",
            "sections": {
                "uncertainty": "Concentrated in the proxy.",
                "boundary_evaluation": "Bounded.",
            },
        }
    )
    doc["contracts"].append(
        {
            "id": f"child:{c1}:K1",
            "info_type": "measurement",
            "origin_layer": c2,
            "destination_layer": f"child:{c1}:{c1}" if rng.random() < 0.3 else c1,
            "legal_justification": "A reviewed transfer.",
            "no_reinterpretation_clause": True,
            "documentation_ref": "shared memo record",
        }
    )
    gp = next(l for l in doc["layers"] if l["kind"] == "grandparent")
    unit = doc["units"][0]["study_id"] if doc["units"] else f"child:{c1}:S1"
    doc["events"] = [
        {
            "sequence": 1,
            "timestamp": "2026-03-01T00:00:00Z",
            "actor": "cli",
            "kind": "tier_declared",
            "payload": {"unit": unit, "tier": "core", "justification": "Fits."},
            "affected": [unit],
        },
        {
            "sequence": 2,
            "timestamp": "2026-03-01T00:00:01Z",
            "actor": "cli",
            "kind": "version_bumped",
            "payload": {
                "entry": {
                    "from_version": "v1.0",
                    "to_version": "v1.1",
                    "motivating_insight": "m",
                    "boundary_affected": "b",
                    "generalizability_reasoning": "g",
                    "timestamp": "2026-03-01T00:00:01Z",
                },
                "laws": copy.deepcopy(gp["laws"]),
            },
            "affected": ["gp:G"],
        },
    ]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _fields(doc: dict) -> list[tuple[tuple, object]]:
    """(path, spec) of every record field of the document, present or not,
    in document order; a key path (``anticipated_critique.text``) is one
    field."""
    out = []

    def record(cls, obj, path):
        for _, key, spec in CODECS[cls].fields:
            fpath = path + ((key,) if key.__class__ is str else tuple(key))
            out.append((fpath, spec))
            inner = spec.of if spec.kind == LIST else spec
            if inner.kind != RECORD:
                continue
            try:
                value = _get(obj, fpath[len(path):])
            except (KeyError, IndexError, TypeError):
                continue
            items = enumerate(value) if spec.kind == LIST and isinstance(value, list) else ()
            if spec.kind == RECORD and isinstance(value, dict):
                record(inner.of, value, fpath)
            for i, item in items:
                if isinstance(item, dict):
                    record(inner.of, item, fpath + (i,))

    out.append((("recap_version",), CODECS[ProjectBundle].specs["recap_version"]))
    for _, key, spec in CODECS[ProjectBundle].fields[1:]:
        for i, item in enumerate(doc.get(key, [])):
            if isinstance(item, dict):
                record(spec.of.of, item, (key, i))
    return out


def _ids_by_kind(doc: dict) -> dict[str, list[str]]:
    ids: dict[str, list[str]] = {}
    for path, spec in _fields(doc):
        if not spec.identity or spec.kind != IDENT:
            continue
        try:
            value = _get(doc, path)
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(value, str) and value.count(":") >= 1:
            ids.setdefault(path[-2] if isinstance(path[-2], str) else path[-3], []).append(value)
    return ids


_BAD_ITEM = {"str": 7, "enum": "not_a_member", "ident": "not valid!", "record": "x"}
_FOREIGN = {
    "child": lambda p: [f"parent:{p[1]}:{p[2]}", f"child:Q9:{p[2]}", f"gp:{p[2]}"],
    "parent": lambda p: [f"child:{p[1]}:{p[2]}", f"parent:Q9:{p[2]}"],
    "gp": lambda p: [f"child:C1:{p[1]}", f"parent:P1:{p[1]}"],
}
_CRITIQUES = (
    None,
    "x",
    [],
    {},
    {"text": 5},
    {"referenced_decisions": "child:C1:R1"},
    {"text": "t", "referenced_decisions": ["R1", 3]},
)


_OPS = ("bare", "null", "missing", "foreign_id", "bad_first", "bad_last",
        "unresolved", "wrong_kind", "duplicate", "text_ref", "critique")


def _mutate(rng: random.Random, doc: dict, op: str | None = None, at: tuple = ()) -> str | None:
    """Apply one mutation to ``doc``, by default a random one at a random
    site; its description, or None when the site does not exist or does
    not take that mutation. ``at`` picks the field path to mutate."""
    fields = _fields(doc)
    op = op or rng.choice(_OPS)

    def pick(sites: list):
        if not at:
            return rng.choice(sites)
        chosen = [site for site in sites if (site[0] if isinstance(site[0], tuple) else site) == at]
        if not chosen:
            raise KeyError(at)
        return chosen[0]

    try:
        if op in ("null", "missing"):
            path, _ = pick(fields)
            parent = _get(doc, path[:-1])
            if op == "null":
                parent[path[-1]] = None
            else:
                del parent[path[-1]]
        elif op == "bare":
            refs = [(p, s) for p, s in fields if s.kind in (IDENT, LAYER)
                    or (s.kind == LIST and s.of.kind == IDENT)]
            path, spec = pick(refs)
            if spec.kind == LIST:
                items = _get(doc, path)
                if not items:
                    return None
                path = path + (rng.randrange(len(items)),)
            value = _get(doc, path)
            if not isinstance(value, str):
                return None
            bare = value.rsplit(":", 1)[-1]
            _get(doc, path[:-1])[path[-1]] = bare if bare != value else "Q9"
        elif op == "foreign_id":
            ids = [p for p, s in fields if s.identity and s.kind == IDENT]
            path = pick(ids)
            value = _get(doc, path)
            if not isinstance(value, str):
                return None
            parts = value.split(":")
            if parts[0] not in _FOREIGN:
                parts = ["child", "C1", value]
            _get(doc, path[:-1])[path[-1]] = rng.choice(_FOREIGN[parts[0]](parts))
        elif op == "duplicate":
            ids = _ids_by_kind(doc)
            kind = rng.choice(sorted(ids))
            if len(ids[kind]) < 2:
                return None
            path = next(p for p, s in fields if s.identity and _get(doc, p) == ids[kind][-1])
            _get(doc, path[:-1])[path[-1]] = ids[kind][0]
        elif op in ("bad_first", "bad_last"):
            lists = [(p, s) for p, s in fields if s.kind == LIST]
            path, spec = pick(lists)
            items = _get(doc, path)
            if not isinstance(items, list):
                return None
            bad = _BAD_ITEM[spec.of.kind]
            if op == "bad_first":
                items.insert(0, bad)
            else:
                items.append(bad)
        elif op in ("unresolved", "wrong_kind"):
            refs = [(p, s) for p, s in fields if s.kind == IDENT and s.expect]
            refs += [(p, s.of) for p, s in fields if s.kind == LIST and s.of.kind == IDENT]
            path, spec = pick(refs)
            if op == "unresolved":
                target = rng.choice(["child:C1:NOPE", "parent:P1:NOPE", "gp:NOPE", "child:Q9:S1"])
            else:
                ids = _ids_by_kind(doc)
                candidates = [v for kind, vs in ids.items() for v in vs]
                if not candidates:
                    return None
                target = rng.choice(candidates)
            node = _get(doc, path)
            if isinstance(node, list):
                if not node:
                    node.append(target)
                else:
                    node[rng.randrange(len(node))] = target
            else:
                _get(doc, path[:-1])[path[-1]] = target
        elif op == "text_ref":
            path, spec = pick([(p, s) for p, s in fields if s.text])
            if spec.kind == LIST:
                items = _get(doc, path)
                if not items:
                    return None
                path = path + (rng.randrange(len(items)),)
            value = _get(doc, path)
            if not isinstance(value, str):
                return None
            _get(doc, path[:-1])[path[-1]] = value + " See child:Q9:S1 and gp:NOPE."
        else:
            if not doc["reviewer_blocks"]:
                return None
            block = doc["reviewer_blocks"][0]
            pick = rng.randrange(len(_CRITIQUES) + 1)
            if pick == len(_CRITIQUES):
                block.pop("anticipated_critique", None)
                path = ("reviewer_blocks", 0, "anticipated_critique")
                op = "critique-missing"
            else:
                block["anticipated_critique"] = copy.deepcopy(_CRITIQUES[pick])
                path = ("reviewer_blocks", 0, "anticipated_critique", pick)
    except (KeyError, IndexError, TypeError):
        return None
    return f"{op} {'.'.join(map(str, path))}"


def corpus():
    """(seed, mutation descriptions, document) for every corpus document."""
    for seed in range(N_DOCS):
        rng = random.Random(seed)
        doc = random_bundle_dict(rng)
        inject_faults(rng, doc, rng.randint(0, 3))
        _add_sections(rng, doc)
        mutations = []
        for _ in range(rng.randint(1, 3)):
            done = _mutate(rng, doc)
            if done is not None:
                mutations.append(done)
        yield seed, mutations, doc
    # Then, on one document, each mutation once at the first instance of
    # every field it applies to.
    for op in _OPS[:-3]:
        seen = set()
        for path, _ in _fields(_sweep_doc()):
            field = tuple(k for k in path if k.__class__ is str)
            if field in seen:
                continue
            seen.add(field)
            doc = _sweep_doc()
            done = _mutate(random.Random(len(seen)), doc, op, path)
            if done is not None:
                yield f"sweep {done}", [done], doc


def _sweep_doc() -> dict:
    rng = random.Random(N_DOCS)
    doc = random_bundle_dict(rng, n_parents=2, n_children=3)
    _add_sections(rng, doc)
    return doc


def _digest(bundle) -> str:
    text = json.dumps(encode(bundle), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def capture() -> list[dict]:
    rows = []
    for seed, mutations, doc in corpus():
        result = parse_bundle(json.dumps(doc))
        rows.append(
            {
                "seed": seed,
                "mutations": mutations,
                "diagnostics": [[d.code, d.location, d.message] for d in result.diagnostics],
                "bundle": None if result.bundle is None else _digest(result.bundle),
            }
        )
    return rows


def test_decoder_diagnostics_match_the_differential_fixture(paths):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = capture()
    assert len(actual) == len(expected) > N_DOCS
    for exp, act in zip(expected, actual):
        assert act == exp, exp["seed"]


def test_differential_corpus_covers_every_mutation_kind():
    rows = json.loads(FIXTURE.read_text(encoding="utf-8"))
    ops = {m.split()[0] for row in rows for m in row["mutations"]}
    assert ops >= {"bare", "null", "missing", "foreign_id", "bad_first", "bad_last",
                   "unresolved", "wrong_kind", "duplicate", "text_ref", "critique",
                   "critique-missing"}
    codes = {d[0] for row in rows for d in row["diagnostics"]}
    assert codes >= {"E_SYNTAX", "E_UNRESOLVED_REF", "E_DUP_ID", "E_PAYLOAD_SCHEMA"}
    messages = [d[2] for row in rows for d in row["diagnostics"]]
    assert any(" expected " in m and " is a " in m for m in messages)  # wrong kind
    assert 20 <= sum(row["bundle"] is not None for row in rows) <= N_DOCS - 40


# ---------------------------------------------------------------------------
# parse_bundle is total
# ---------------------------------------------------------------------------

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
_TOY = toy_dict()
_TOY_PATHS = list(_paths(_TOY))


def _parses_or_reports(text: str) -> None:
    result = parse_bundle(text)
    assert isinstance(result, ParseResult)
    assert result.bundle is not None or result.errors()


# The paths fixture sets the decode path once for all examples.
_ONCE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=_ONCE)
@given(value=_JSON | st.dictionaries(st.sampled_from(list(_TOY)), _JSON, max_size=10))
def test_parse_bundle_never_raises_on_arbitrary_json(paths, value):
    _parses_or_reports(json.dumps(value))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=_ONCE)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, len(_TOY_PATHS) - 1),
            _JSON | st.sampled_from(["C1", "gp:X", "child:C1:S1"]),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_parse_bundle_never_raises_on_mutated_toy_documents(paths, edits):
    doc = _TOY
    for index, value in edits:
        try:
            doc = _swapped(doc, _TOY_PATHS[index], value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed the path
    _parses_or_reports(json.dumps(doc))


if __name__ == "__main__":
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in capture()) + "\n]\n",
        encoding="utf-8",
    )
