"""Guard: every module-level name the package defines is read somewhere, by
the package, its tests or the benchmark. A name nothing reads is dead code.

A name is read when it occurs as a whole word (a maximal run of word
characters) more often than the module binds it at top level.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "recap_engine"

#: Names Python reads for the package rather than by name: the package's
#: lazy attribute hooks, and the renderers ``reporting._render`` dispatches
#: to by the type each one registers for.
READ_BY_PYTHON = {
    "__getattr__",
    "__dir__",
    "_render_list",
    "_render_reviewer_block",
    "_render_compliance_report",
}


def _bindings(tree: ast.Module) -> Counter:
    """How often each name is bound by a top-level statement."""
    names: Counter = Counter()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] += 1
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_module_level_name_is_read_somewhere():
    words: Counter = Counter()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == Path(__file__).name:  # its allow-list reads nothing
                continue
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, bound in sorted(_bindings(ast.parse(path.read_text(encoding="utf-8"))).items())
        if name not in READ_BY_PYTHON and words[name] <= bound
    ]
    assert unread == []
