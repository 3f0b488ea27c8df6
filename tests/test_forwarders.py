"""The write operations live in ``operations`` and the write check in
``audit``, which only writes load. Each moved name stays reachable at the
module it moved from, which forwards it on first use (PEP 562) and keeps it
in its globals, so code that reads or replaces it there still works."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import recap_engine
from recap_engine import audit, bundle, contamination, layers, operations, routing, tiering

#: (module it moved from, name, module it lives in now).
MOVED = [
    *[(tiering, name, operations) for name in ("declare_tier", "apply_retier", "split_unit")],
    *[(routing, name, operations) for name in ("declare_route", "freeze_route", "revise_route")],
    *[(contamination, name, operations) for name in (
        "record_flow", "flag_contamination", "resolve_contamination", "validate_insight")],
    *[(layers, name, operations) for name in ("bump_version", "check_changelog_entry")],
    *[(bundle, name, audit) for name in ("write_errors", "clone", "declared_ids")],
]


@pytest.mark.parametrize("old, name, new", MOVED, ids=[f"{o.__name__}.{n}" for o, n, _ in MOVED])
def test_a_moved_name_is_forwarded_and_kept_by_its_old_module(monkeypatch, old, name, new):
    moved = getattr(new, name)
    monkeypatch.delitem(vars(old), name, raising=False)
    assert getattr(old, name) is moved
    assert vars(old)[name] is moved  # kept: the next read does not forward again
    namespace: dict = {}
    exec(f"from {old.__name__} import {name}", namespace)
    assert namespace[name] is moved
    # A replacement put in the module's globals, as a tracer does, is what is read.
    monkeypatch.setitem(vars(old), name, len)
    assert getattr(old, name) is len


@pytest.mark.parametrize("old", [tiering, routing, contamination, layers, bundle],
                         ids=lambda module: module.__name__)
def test_a_name_no_module_moved_is_still_missing(old):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(old, "no_such_name")
    with pytest.raises(AttributeError):  # forwarded only from the module it moved from
        getattr(old, "commit")


def test_the_package_exports_the_moved_operations_from_operations():
    for name in ("declare_route", "freeze_route", "revise_route", "validate_insight",
                 "bump_version"):
        assert getattr(recap_engine, name) is getattr(operations, name)


def test_importing_the_read_modules_loads_no_write_code():
    src = str(Path(recap_engine.__file__).parents[1])
    code = ("import sys, recap_engine.bundle, recap_engine.tiering, recap_engine.routing, "
            "recap_engine.layers, recap_engine.contamination, recap_engine.reporting; "
            "print(' '.join(sorted(sys.modules)))")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = set(proc.stdout.split())
    assert "recap_engine.contamination" in loaded
    assert not loaded & {"recap_engine.operations", "recap_engine.audit"}
