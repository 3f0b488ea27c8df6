"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

1. Known-answer checker: one op of every workload runs against the engine
   with each check wrapped. The check must pass on the engine's real output
   and fail on a deliberately wrong copy of it: a flipped verdict, a dropped
   contamination event, a replay byte mismatch, a wrong CLI exit code.
2. Count repeat: two traced runs per workload with the same seed must
   report identical counts.

Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import answers
import run
import workloads

#: (check, how its input is made wrong, workload whose op calls it)
CORRUPTIONS = {
    "check_validate": ("flipped verdict",
                       lambda seen: dict(seen, verdict="non_compliant"), "validate_clean"),
    "check_scan": ("dropped contamination event",
                   lambda seen: dict(seen, events=seen["events"][1:]), "scan_contaminated"),
    "check_session": ("replay byte mismatch",
                      lambda seen: dict(seen, replayed=seen["replayed"] + " "), "mutate_replay"),
    "check_cli": ("wrong CLI exit code",
                  lambda seen: dict(seen, exit=1 - seen["exit"]), "cli_small"),
}
COUNTS = ("bundle.decls", "contamination.events", "reporting.findings", "reporting.rows",
          "audit.accept_ratio", "tiering.units", "routing.projects",
          "contamination.graphs_per_event")
SEED = 7


def checker_selftest() -> list[str]:
    failures = []
    results: dict[str, list[tuple[list, list]]] = {}
    for name, (_, corrupt, _) in CORRUPTIONS.items():
        real = getattr(answers, name)

        def wrapped(answer, seen, real=real, corrupt=corrupt, name=name):
            good = real(answer, seen)
            results.setdefault(name, []).append((good, real(answer, corrupt(seen))))
            return good

        setattr(answers, name, wrapped)
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / "selftest"
    for name, (label, _, workload_name) in CORRUPTIONS.items():
        workload = workloads.WORKLOADS[workload_name]()
        eng = run.import_engine()
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.setup(eng, SEED, False, str(workdir))
            for i in range(workload.pool):
                run.run_op(workload, eng, i, workloads.NoTracer())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for good, bad in results.get(name, []):
            if good:
                failures.append(f"{name} rejects the engine's real output: {good[:2]}")
            if not bad:
                failures.append(f"{name} accepts a {label}")
        verdict = "FAIL" if not results.get(name) else "ok"
        print(f"{verdict:4} {name}: {len(results.get(name, []))} real outputs pass, "
              f"each with a {label} fails", flush=True)
    return failures


def count_repeat() -> list[str]:
    failures = []
    for name in workloads.WORKLOADS:
        seen = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", str(SEED),
                 "--seconds", "3", "--trace", "1"],
                capture_output=True, text=True, check=False,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            seen.append({key: result["metrics"][key]["value"] for key in COUNTS})
        differ = [key for key in COUNTS if seen[0][key] != seen[1][key]]
        print(f"{'FAIL' if differ else 'ok':4} {name}: counts repeat across two traced runs"
              + (f" except {differ}" if differ else ""), flush=True)
        failures += [f"{name}: {key} {seen[0][key]} then {seen[1][key]}" for key in differ]
    return failures


def main() -> int:
    failures = checker_selftest() + count_repeat()
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
