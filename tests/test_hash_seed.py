"""What the CLI prints does not depend on hash values.

Ids, and the tuples that hold them, hash by their strings, whose hashes
change with ``PYTHONHASHSEED``. A set or dict iterated in hash order
would show that in the output: each command runs here under two hash
seeds, on the toy and on two seeded bundles with injected faults, and
must print the same bytes and exit with the same code.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from genbundles import inject_faults, random_bundle_dict
from toy import toy_dict

import recap_engine

_COMMANDS = {
    "validate": ["validate", "{path}", "--format", "structured"],
    "scan": ["scan", "{path}"],
    "study-log": ["report", "{path}", "study-log", "--format", "structured", "--project", "{project}"],
}


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    """The toy, a small faulty bundle, and one large enough that its record
    classes get generated decoders and citation walks, each with the id
    of its last project."""
    root = tmp_path_factory.mktemp("bundles")
    docs = {"toy": toy_dict()}
    for seed, k, sizes in ((5, 3, {}), (71, 5, {"n_children": 6, "n_units": 50})):
        rng = random.Random(seed)
        docs[f"seed-{seed}"] = doc = random_bundle_dict(rng, n_parents=2, **sizes)
        inject_faults(rng, doc, k)
    files = {}
    for name, doc in docs.items():
        path = root / f"{name}.bundle"
        path.write_text(json.dumps(doc, indent=2, ensure_ascii=False), encoding="utf-8")
        files[name] = {"path": path, "project": doc["projects"][-1]["id"]}
    return files


def _run(argv: list[str], hash_seed: str) -> tuple[int, str]:
    src = str(Path(recap_engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "recap_engine", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("bundle", ["toy", "seed-5", "seed-71"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_output_is_the_same_under_two_hash_seeds(bundle_files, bundle, command):
    argv = [arg.format(**bundle_files[bundle]) for arg in _COMMANDS[command]]
    code, out = _run(argv, "0")
    assert code in (0, 1) and out
    assert _run(argv, "4242") == (code, out)
