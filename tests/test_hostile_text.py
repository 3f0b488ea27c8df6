"""Hostile JSON text. The documents are written here token by token, not by
``json.dumps``: integer literals of 4,000-6,000 digits and ``NaN``,
``Infinity`` and ``-Infinity`` (which ``json`` reads) are spliced into any
value position of the toy, or of the toy with a log of every event kind.

- ``parse_bundle`` never raises, and a document holding an integer literal
  longer than ``int()`` converts is exactly one E_SYNTAX at line 1.
- A document that parses is judged, scanned and written without raising,
  and the written text is stable: written, parsed and written again, it is
  the same text.
- The read commands exit 0, 1 or 2 and never print an internal error.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from test_payloads import TOY_LOG
from toy import toy_dict

from recap_engine.bundle import parse_bundle, serialize_bundle
from recap_engine.cli import main
from recap_engine.contamination import scan_bundle
from recap_engine.reporting import compliance_verdict

_DOCUMENTS = (toy_dict(), TOY_LOG)


def _positions(value, path: tuple = ()):
    """The path of ``value`` and of every value inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _positions(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _positions(item, path + (i,))


_SITES = [list(_positions(doc)) for doc in _DOCUMENTS]
#: The sites whose literal a parse keeps: a payload key no field names. They
#: are drawn twice as often, so some documents parse.
_KEPT = [[site for site in sites if site[-1:] == ("engine_version",)] for sites in _SITES]
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}


def _quote(text: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in text) + '"'


def _text(value, path: tuple, spliced: dict, comma: str, colon: str) -> str:
    """``value`` as JSON text, with the literal ``spliced`` maps a path to
    written in place of the value there."""
    if path in spliced:
        return spliced[path]
    if isinstance(value, dict):
        items = (_quote(k) + colon + _text(v, path + (k,), spliced, comma, colon)
                 for k, v in value.items())
        return "{" + comma.join(items) + "}"
    if isinstance(value, list):
        items = (_text(v, path + (i,), spliced, comma, colon) for i, v in enumerate(value))
        return "[" + comma.join(items) + "]"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "null" if value is None else str(value)


_LONG = st.builds(
    lambda sign, first, digits, n: sign + first + (digits * n)[: n - 1],
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.text("0123456789", min_size=1, max_size=8),
    st.integers(4000, 6000),
)
_LITERAL = st.sampled_from(["NaN", "Infinity", "-Infinity"]) | _LONG


@st.composite
def _hostile(draw) -> tuple[str, bool]:
    """A hostile document's text, and whether it holds an integer literal
    longer than ``int()`` converts."""
    d = draw(st.integers(0, len(_DOCUMENTS) - 1))
    site = st.sampled_from(_SITES[d])
    if _KEPT[d]:
        site |= st.sampled_from(_KEPT[d])
    sites = draw(st.lists(site, min_size=1, max_size=3, unique=True))
    spliced = {site: draw(_LITERAL) for site in sites}
    comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": "), (",\n  ", " : ")]))
    written = [literal for site, literal in spliced.items()
               if not any(site[:k] in spliced for k in range(len(site)))]
    limit = sys.get_int_max_str_digits()
    over_long = any(len(literal.lstrip("-")) > limit for literal in written
                    if literal.lstrip("-").isdigit())
    return _text(_DOCUMENTS[d], (), spliced, comma, colon), over_long


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_hostile())
def test_hostile_text_parses_and_what_parses_is_judged_and_written_stably(case):
    text, over_long = case
    result = parse_bundle(text)
    if over_long:
        assert [(d.code, d.location) for d in result.diagnostics] == [("E_SYNTAX", "line 1")]
        assert result.bundle is None
        return
    if result.bundle is None:
        assert result.diagnostics
        return
    compliance_verdict(result.bundle)
    scan_bundle(result.bundle)
    written = serialize_bundle(result.bundle)
    again = parse_bundle(written)
    assert again.bundle is not None, again.diagnostics
    assert serialize_bundle(again.bundle) == written


def test_a_literal_in_a_key_no_field_names_is_written_as_read():
    # A payload key no field names is kept as read (``engine_version``), so
    # the writer must reproduce each literal there.
    payload = ("events", 0, "payload", "engine_version")
    assert payload in _KEPT[1]
    for literal in ("NaN", "Infinity", "-Infinity", "-" + "7" * 4000):
        result = parse_bundle(_text(TOY_LOG, (), {payload: literal}, ",", ":"))
        assert result.bundle is not None, result.diagnostics
        written = serialize_bundle(result.bundle)
        assert f'"engine_version": {literal}' in written
        assert serialize_bundle(parse_bundle(written).bundle) == written


_READS = [
    ["validate"], ["validate", "--format", "structured"], ["scan"],
    ["scan", "--format", "structured"], ["tier"], ["report", "study-log"],
    ["report", "tier-table", "--format", "csv"],
    ["report", "reviewer-block", "--format", "structured"], ["route", "check"],
]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_hostile())
def test_read_commands_never_print_an_internal_error_on_hostile_text(case):
    text, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hostile.bundle")
        Path(path).write_text(text, encoding="utf-8")
        for command, *options in _READS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path, *options])
            printed = out.getvalue() + err.getvalue()
            assert code in (0, 1, 2)
            assert "Traceback" not in printed
            assert not any(line.startswith("internal error") for line in printed.splitlines())
