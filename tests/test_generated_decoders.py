"""The two decode paths: a class's generated decoder (``codegen.generate``)
and the general, reporting one (``bundle._Decoder.record``). A generated decoder
must build the very record the general path builds, and refuse, so that
the general path reports, wherever that path would report anything. The
decode-differential and type-swap fixtures run on each path alone; these
tests compare the two on mutated documents, check that a refused record is
reported once, and that a small bundle generates nothing. A class's
citation walk and writer are generated only once its decoder is."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_audit
from conftest import set_paths
from genbundles import TimeSource, inject_faults, parse_dict, random_bundle_dict
from test_audit import random_ops_session
from test_decode_differential import _add_sections, _mutate
from test_serialize import oracle
from toy import toy_dict

from recap_engine import bundle
from recap_engine.bundle import CODECS, parse_bundle, serialize_bundle
from recap_engine.reporting import compliance_verdict


def _both(text: str) -> dict:
    """The parse of ``text`` by each path: (diagnostics, serialized bundle)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for mode in ("general", "generated"):
            set_paths(mp, mode)
            result = parse_bundle(text)
            diags = [(d.code, d.location, d.message) for d in result.diagnostics]
            out[mode] = diags, result.bundle and serialize_bundle(result.bundle)
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 3))
def test_the_generated_and_general_paths_agree_on_mutated_documents(seed, mutations):
    rng = random.Random(seed)
    doc = random_bundle_dict(rng)
    inject_faults(rng, doc, rng.randint(0, 2))
    _add_sections(rng, doc)
    for _ in range(mutations):
        _mutate(rng, doc)
    both = _both(json.dumps(doc))
    assert both["generated"] == both["general"]


@pytest.mark.parametrize("path, value", [
    (("units", 1, "interpretations", 0, "design"), "bogus"),
    (("units", 1, "explicit_assumptions", 0, "covers"), []),
    (("layers", 1, "abstractions", 0, "kind"), 7),
    (("routes", 1, "assumptions", 0, "supporting_units", 0), 3),
])
def test_a_refused_record_is_reported_once(path, value):
    # The second record of a list, with one bad field in a nested record:
    # its generated decoder refuses it, the general path reports it.
    doc = toy_dict()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    both = _both(json.dumps(doc))
    diags, written = both["generated"]
    assert written is None and diags
    assert len(set(diags)) == len(diags)
    where = "{}[{}].{}[{}].{}".format(*path[:5]) + (f"[{path[5]}]" if len(path) > 5 else "")
    assert {location for _, location, _ in diags} == {where}
    assert both["general"] == both["generated"]


def _generated_in_a_fresh_process(lines: list[str]) -> list[str]:
    """What ``lines`` print, run in a fresh interpreter, followed by the
    classes with a generated decoder, walk and writer, one line each, and
    whether the generator was loaded."""
    code = "\n".join([
        "import json, random, sys", "from recap_engine.bundle import CODECS", *lines,
        *(f"print(sorted(c.name for c in CODECS.values() if c.{name} is not None))"
          for name in ("fast", "cite", "write")),
        "print('recap_engine.codegen' in sys.modules)", "",
    ])
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": f"{root / 'src'}:{root / 'tests'}", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_a_small_bundle_generates_no_decoder():
    # A read command on a small bundle must not pay for compiling one, nor
    # a citation walk, nor for compiling the generator.
    printed = _generated_in_a_fresh_process([
        "from genbundles import random_bundle_dict",
        "from toy import toy_text",
        "from recap_engine.bundle import parse_bundle",
        "assert parse_bundle(toy_text()).ok",
        "doc = random_bundle_dict(random.Random(5), n_parents=2, n_children=5, n_units=8)",
        "assert parse_bundle(json.dumps(doc)).ok",
    ])
    assert printed == ["[]", "[]", "[]", "False"]


def test_a_read_command_past_the_threshold_generates_decoders_and_walks_but_no_writer(tmp_path):
    path = tmp_path / "large.bundle"
    doc = random_bundle_dict(random.Random(5), n_children=4, n_units=75)
    assert len(doc["units"]) == 300 > bundle._HOT
    path.write_text(json.dumps(doc), encoding="utf-8")
    printed = _generated_in_a_fresh_process([
        "from recap_engine.cli import main",
        f"print(main(['validate', {str(path)!r}]))",
    ])
    code, decoded, walked, written, loaded = printed[-5:]
    assert code in ("0", "1")
    assert "evidential_unit" in decoded and "evidential_unit" in walked
    assert written == "[]" and loaded == "True"


def test_a_class_walks_its_citations_generated_once_its_decoder_is(paths):
    parsed = parse_bundle(json.dumps(toy_dict()))
    assert parsed.ok
    walked = {codec.cls for codec in CODECS.values() if codec.cite is not None}
    if paths == "general":
        assert walked == set()
    else:
        assert {type(parsed.bundle.units[0]), type(parsed.bundle.layers[0])} <= walked


def _hot_rule_holds() -> None:
    """A class has a generated walk or writer only once its decoder is."""
    for codec in CODECS.values():
        assert codec.fast is not None or (codec.cite is None and codec.write is None), codec.name


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_class_has_a_generated_walk_or_writer_only_once_its_decoder_is(seed):
    def parse(doc):
        live = parse_dict(doc)
        _hot_rule_holds()
        return live

    def step(snapshot, live):
        _hot_rule_holds()
        for run in (compliance_verdict, serialize_bundle):
            run(live)
            _hot_rule_holds()

    with pytest.MonkeyPatch.context() as mp:
        set_paths(mp, "general")
        mp.setattr(bundle, "_HOT", 3)  # so that classes turn hot in the session
        mp.setattr(test_audit, "parse_dict", parse)
        random_ops_session(random.Random(seed), TimeSource(), step=step)
        assert any(codec.write is not None for codec in CODECS.values())


def test_bundles_written_as_classes_turn_hot_match_the_oracle(monkeypatch):
    # Classes turn hot one by one as the bundles are parsed and written, so
    # records of hot classes are decoded and written by generated code next
    # to records of classes still cold, and a holder may turn hot before or
    # after what it holds.
    set_paths(monkeypatch, "general")
    monkeypatch.setattr(bundle, "_HOT", 3)
    rng = random.Random(4040)
    for k in range(10):
        doc = random_bundle_dict(rng, n_parents=2, n_children=4)
        inject_faults(rng, doc, k)
        live = parse_dict(doc)
        assert serialize_bundle(live) == oracle(live), k
    hot = [codec for codec in CODECS.values() if codec.fast is not None]
    assert hot and len(hot) < len(CODECS)
    assert any(codec.write is not None for codec in hot)
