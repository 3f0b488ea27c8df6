"""The two decode paths: a class's generated decoder (``codegen.generate``)
and the general, reporting one (``bundle._Decoder.record``). A generated decoder
must build the very record the general path builds, and refuse, so that
the general path reports, wherever that path would report anything. The
decode-differential and type-swap fixtures run on each path alone; these
tests compare the two on mutated documents, check that a refused record is
reported once, and that a small bundle generates nothing. A class's
citation walk is generated once its decoder is."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import set_decoders
from genbundles import inject_faults, random_bundle_dict
from test_decode_differential import _add_sections, _mutate
from toy import toy_dict

from recap_engine import bundle
from recap_engine.bundle import parse_bundle, serialize_bundle


def _both(text: str) -> dict:
    """The parse of ``text`` by each path: (diagnostics, serialized bundle)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for mode in ("general", "generated"):
            set_decoders(mp, mode)
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


def test_a_small_bundle_generates_no_decoder():
    # A read command on a small bundle must not pay for compiling one, nor
    # a citation walk, nor for compiling the generator.
    code = (
        "import json, random, sys\n"
        "from genbundles import random_bundle_dict\n"
        "from toy import toy_text\n"
        "from recap_engine.bundle import _CITERS, CODECS, parse_bundle\n"
        "assert parse_bundle(toy_text()).ok\n"
        "doc = random_bundle_dict(random.Random(5), n_parents=2, n_children=5, n_units=8)\n"
        "assert parse_bundle(json.dumps(doc)).ok\n"
        "print(sorted(c.name for c in CODECS.values() if c.fast is not None))\n"
        "print(sorted(cls.__name__ for cls in _CITERS))\n"
        "print('recap_engine.codegen' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": f"{root / 'src'}:{root / 'tests'}", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\nFalse\n"


def test_a_class_walks_its_citations_generated_once_its_decoder_is(decoders):
    parsed = parse_bundle(json.dumps(toy_dict()))
    assert parsed.ok
    walked = set(bundle._CITERS)
    if decoders == "general":
        assert walked == set()
    else:
        assert {type(parsed.bundle.units[0]), type(parsed.bundle.layers[0])} <= walked
