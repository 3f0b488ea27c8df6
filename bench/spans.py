"""In-memory spans around calls into the engine's public functions.

The traced run swaps each listed function for a timing wrapper in every
``recap_engine`` module that binds it, so calls the engine makes internally
(``compliance_verdict`` calling ``scan_bundle``, the scanner calling
``trace_downstream``) are spanned as well. Nothing inside ``src/`` changes;
:meth:`Tracer.uninstrument` puts the original functions back.

A span is ``[name, start_ns, end_ns, parent_index, op_id, raised]`` where
``raised`` is the exception class name or ``""``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

#: (module, function) pairs spanned in the traced run; span name is
#: ``module.function``.
TRACED = (
    ("bundle", "parse_bundle"),
    ("bundle", "serialize_bundle"),
    ("tiering", "check_tier_declaration"),
    ("tiering", "check_retier_chain"),
    ("tiering", "declare_tier"),
    ("tiering", "apply_retier"),
    ("tiering", "split_unit"),
    ("routing", "check_route_coherence"),
    ("routing", "check_freeze_integrity"),
    ("routing", "declare_route"),
    ("routing", "freeze_route"),
    ("routing", "revise_route"),
    ("layers", "law_history"),
    ("layers", "validate_grandparent_laws"),
    ("layers", "check_law_evolution"),
    ("layers", "bump_version"),
    ("contamination", "scan_bundle"),
    ("contamination", "build_reference_graph"),
    ("contamination", "trace_downstream"),
    ("contamination", "record_flow"),
    ("contamination", "resolve_contamination"),
    ("reporting", "compliance_verdict"),
    ("reporting", "build_study_log"),
    ("reporting", "build_tier_table"),
    ("reporting", "render_report"),
    ("audit", "replay"),
)

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                  self.op_id, ""]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list, exc: BaseException | None) -> None:
        record[END] = time.perf_counter_ns()
        if exc is not None:
            record[RAISED] = type(exc).__name__
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        except BaseException as exc:
            self._close(record, exc)
            raise
        self._close(record, None)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record, exc)
                raise
            self._close(record, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def instrument(self) -> None:
        """Span every function in :data:`TRACED`, wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "recap_engine" or name.startswith("recap_engine."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"recap_engine.{module_name}"], fn_name)
            wrapped = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstrument(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op, raised."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def by_op(spans: list[list]) -> dict[int, list[int]]:
    """Span indexes grouped by op id, ops with id < 0 left out."""
    out: dict[int, list[int]] = {}
    for i, record in enumerate(spans):
        if record[OP] >= 0:
            out.setdefault(record[OP], []).append(i)
    return out


def duration_ms(record: list) -> float:
    return (record[END] - record[START]) / 1e6


def ancestor_named(spans: list[list], index: int, names: set[str]) -> int:
    """Index of the nearest enclosing span whose name is in ``names``, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return parent
        parent = spans[parent][PARENT]
    return -1
