"""Known-answer checks, run outside the timed region of every op.

Each check compares what the engine produced, reduced to plain data by the
workload, with the answer the generator derived on its own. It returns a
list of human-readable problems; an empty list means the op was correct.
"""

from __future__ import annotations


def check_validate(answer: dict, seen: dict) -> list[str]:
    """A compliant bundle: verdict, no errors, report row counts, and the
    serializer writing back the canonical text the bundle was parsed from."""
    problems = []
    if seen["verdict"] != answer["verdict"]:
        problems.append(f"verdict {seen['verdict']!r}, expected {answer['verdict']!r}")
    if seen["errors"]:
        problems.append(f"{seen['errors']} error finding(s) on a compliant bundle")
    for key in ("study_log_rows", "tier_table_rows", "rendered_rows"):
        want = answer["study_log_rows"] + answer["tier_table_rows"] if key == "rendered_rows" else answer[key]
        if seen[key] != want:
            problems.append(f"{key} {seen[key]}, expected {want}")
    if seen["serialized"] != answer["text"]:
        problems.append("serialized bytes differ from the canonical input")
    return problems


def check_scan(answer: dict, seen: dict) -> list[str]:
    """Exactly the injected (direction, rule, container) multiset, and a
    non-compliant verdict."""
    problems = []
    got, want = sorted(seen["events"]), answer["findings"]
    if got != want:
        missing = [f for f in want if f not in got]
        extra = [f for f in got if f not in want]
        problems.append(
            f"{len(got)} events, expected {len(want)}; missing {missing[:3]}, extra {extra[:3]}"
        )
    if seen["verdict"] != "non_compliant":
        problems.append(f"verdict {seen['verdict']!r} on a faulted bundle")
    return problems


def check_session(answer: dict, seen: dict) -> list[str]:
    """Each mutation's outcome matches its mark, rejected mutations leave
    the bytes alone, and replay reproduces the live bytes."""
    problems = []
    for i, (want, got) in enumerate(zip(answer["marks"], seen["outcomes"])):
        if want != got:
            problems.append(f"op {i} ({answer['kinds'][i]}) {'accepted' if got else 'rejected'}, "
                            f"expected {'accepted' if want else 'rejected'}")
    if len(seen["outcomes"]) != len(answer["marks"]):
        problems.append(f"{len(seen['outcomes'])} outcomes for {len(answer['marks'])} planned ops")
    changed = [i for i, same in seen["rejected_unchanged"] if not same]
    if changed:
        problems.append(f"rejected op(s) {changed} changed the serialized bytes")
    if seen["replayed"] != seen["live"]:
        problems.append("replayed bytes differ from live bytes")
    return problems


def check_cli(answer: dict, seen: dict) -> list[str]:
    """Exit code, the verdict line, and no traceback."""
    problems = []
    if seen["exit"] != answer["exit"]:
        problems.append(f"exit {seen['exit']}, expected {answer['exit']}")
    lines = seen["stdout"].splitlines()
    if answer["line"] == "first":
        got = lines[0] if lines else ""
    elif answer["line"] == "last":
        got = lines[-1] if lines else ""
    else:
        got = str(len([l for l in lines if l.startswith("|")]) - 2)
    if got != answer["text"]:
        problems.append(f"output line {got!r}, expected {answer['text']!r}")
    if "Traceback" in seen["stderr"]:
        problems.append("traceback on stderr")
    return problems
