"""The four benchmark workloads.

All four are closed loops: one client runs one op at a time and the next
op starts only when the previous one returns. Each workload builds a small
pool of seeded inputs in ``setup`` and cycles through it; an op returns the
evidential units it processed, the known-answer problems it found (empty
when correct) and the exact counts the traced run reports.

Every call into the engine goes through a module attribute
(``eng.reporting.compliance_verdict``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import answers
import scalegen

RULE_CODES = frozenset(scalegen.FAULT_RULES)


class Timer:
    """Op stopwatch whose paused blocks (known-answer checks) do not count.

    While paused, the tracer's op id is -1 so spans recorded by the checks
    stay out of the per-layer numbers.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.paused_ns = 0

    @contextmanager
    def paused(self):
        start = time.perf_counter_ns()
        op_id, self.tracer.op_id = self.tracer.op_id, -1
        try:
            yield
        finally:
            self.tracer.op_id = op_id
            self.paused_ns += time.perf_counter_ns() - start


class NoTracer:
    op_id = -1

    def span(self, name: str):
        return nullcontext()


class Workload:
    name = ""
    #: Distinct inputs per run; the traced run spans at least one full cycle.
    pool = 1

    def setup(self, eng, seed: int, trace: bool, workdir: str) -> None:
        raise NotImplementedError

    def op(self, eng, i: int, timer: Timer, tracer, inputs=None) -> tuple[int, list[str], dict]:
        """Op ``i`` on input ``i`` of ``inputs`` (default: the pool)."""
        raise NotImplementedError

    def extra_inputs(self) -> list:
        """Inputs of the traced run's scaling phase (empty: no such phase)."""
        return []


# ---------------------------------------------------------------------------
# validate_clean
# ---------------------------------------------------------------------------


def _validate(eng, text: str, answer: dict, timer: Timer) -> tuple[list[str], dict]:
    result = eng.bundle.parse_bundle(text)
    bundle = result.bundle
    if bundle is None:
        return [f"parse failed: {result.diagnostics[:3]}"], {}
    report = eng.reporting.compliance_verdict(bundle)
    study_rows = table_rows = 0
    rendered = []
    for project in bundle.projects:
        log = eng.reporting.build_study_log(bundle, project)
        table = eng.reporting.build_tier_table(bundle, project)
        rendered.append(eng.reporting.render_report(log, "markdown"))
        rendered.append(eng.reporting.render_report(table, "markdown"))
        study_rows += len(log)
        table_rows += len(table)
    serialized = eng.bundle.serialize_bundle(bundle)
    with timer.paused():
        errors = sum(1 for d in report.findings if d.severity == 0)
        seen = {
            "verdict": report.verdict,
            "errors": errors,
            "study_log_rows": study_rows,
            "tier_table_rows": table_rows,
            "rendered_rows": sum(md.count("\n") - 2 for md in rendered),
            "serialized": serialized,
        }
        counts = {
            "findings": len(report.findings),
            "rows": study_rows + table_rows,
            "events": sum(1 for d in report.findings if d.code in RULE_CODES),
        }
        return answers.check_validate(answer, seen), counts


class ValidateClean(Workload):
    name = "validate_clean"
    pool = 6
    #: (projects, units per project) of the small-project and large-project
    #: classes; one op validates one bundle of each class.
    SMALL = (60, 3)
    LARGE = (2, 120)

    def _pair(self, rng: random.Random, scale: int) -> list[dict]:
        pair = []
        for shape, (projects, units) in (("small", self.SMALL), ("large", self.LARGE)):
            if shape == "small":
                projects *= scale
            else:
                units *= scale
            doc, answer = scalegen.clean_bundle(rng, projects, units)
            answer["text"] = scalegen.dumps(doc)
            answer["decls"] = scalegen.count_declarations(doc)
            pair.append({"shape": shape, "answer": answer})
        return pair

    def setup(self, eng, seed, trace, workdir):
        rng = random.Random(seed)
        self.inputs = [self._pair(rng, 1) for _ in range(self.pool)]
        self.doubled = [self._pair(rng, 2) for _ in range(2)] if trace else []

    def extra_inputs(self):
        return self.doubled

    def op(self, eng, i, timer, tracer, inputs=None):
        items = inputs or self.inputs
        pair = items[i % len(items)]
        problems, counts = [], {"findings": 0, "rows": 0, "events": 0, "decls": 0, "bytes": 0}
        units = 0
        for item in pair:
            answer = item["answer"]
            with tracer.span(f"shape.{item['shape']}"):
                found, got = _validate(eng, answer["text"], answer, timer)
            problems += found
            for key, value in got.items():
                counts[key] += value
            counts["decls"] += answer["decls"]
            counts["bytes"] += len(answer["text"].encode("utf-8"))
            units += answer["units"]
        return units, problems, counts


# ---------------------------------------------------------------------------
# scan_contaminated
# ---------------------------------------------------------------------------


class ScanContaminated(Workload):
    name = "scan_contaminated"
    pool = 10
    SIZE = (40, 5)
    DENSITY = 0.25
    #: Fault density of the traced run's second input set.
    HIGH_DENSITY = 0.5

    def _bundle(self, rng: random.Random, density: float) -> dict:
        doc, answer = scalegen.clean_bundle(rng, *self.SIZE)
        findings = scalegen.inject_faults(rng, doc, density)
        text = scalegen.dumps(doc)
        return {"text": text, "findings": findings, "units": answer["units"],
                "decls": scalegen.count_declarations(doc)}

    def setup(self, eng, seed, trace, workdir):
        rng = random.Random(seed)
        self.inputs = [self._bundle(rng, self.DENSITY) for _ in range(self.pool)]
        self.dense = [self._bundle(rng, self.HIGH_DENSITY) for _ in range(2)] if trace else []

    def extra_inputs(self):
        return self.dense

    def op(self, eng, i, timer, tracer, inputs=None):
        items = inputs or self.inputs
        item = items[i % len(items)]
        result = eng.bundle.parse_bundle(item["text"])
        bundle = result.bundle
        if bundle is None:
            return item["units"], [f"parse failed: {result.diagnostics[:3]}"], {}
        events = eng.contamination.scan_bundle(bundle)
        report = eng.reporting.compliance_verdict(bundle)
        with timer.paused():
            seen = {
                "events": [(e.direction, e.rule_violated, e.site.container) for e in events],
                "verdict": report.verdict,
            }
            counts = {"events": len(events), "findings": len(report.findings), "rows": 0,
                      "decls": item["decls"], "bytes": len(item["text"].encode("utf-8"))}
            return item["units"], answers.check_scan(item, seen), counts


# ---------------------------------------------------------------------------
# mutate_replay
# ---------------------------------------------------------------------------


def apply_step(eng, bundle, step: dict) -> None:
    """Run one planned mutation through the engine's public operation."""
    model, ident = eng.model, eng.identifiers.parse_identifier
    kind, args, stamp = step["kind"], step["args"], step["timestamp"]
    if kind == "declare_tier":
        eng.tiering.declare_tier(bundle, ident(args["unit"]), model.Tier.from_label(args["tier"]),
                                 args["justification"], timestamp=stamp)
    elif kind == "apply_retier":
        record = dict(args["event"])
        record["old_tier"] = model.Tier.from_label(record["old_tier"])
        record["new_tier"] = model.Tier.from_label(record["new_tier"])
        eng.tiering.apply_retier(
            bundle, ident(args["unit"]), model.ReTierEvent(**record),
            new_interpretations=[model.Assessment(**a) for a in args["interpretations"]],
            justification="Re-read of the source.", timestamp=stamp)
    elif kind == "split_unit":
        eng.tiering.split_unit(bundle, ident(args["unit"]), [ident(n) for n in args["names"]],
                               timestamp=stamp)
    elif kind == "declare_route":
        eng.routing.declare_route(bundle, ident(args["project"]),
                                  eng.bundle.decode_route_dict(args["route"]),
                                  commit_route=args["commit"], timestamp=stamp)
    elif kind == "freeze_route":
        eng.routing.freeze_route(bundle, ident(args["project"]), timestamp=stamp)
    elif kind == "revise_route":
        eng.routing.revise_route(bundle, ident(args["project"]),
                                 model.RouteRevision(**args["revision"]),
                                 eng.bundle.decode_route_dict(args["body"]), timestamp=stamp)
    elif kind == "record_flow":
        record = args["flow"]
        flow = model.FlowEvent(
            id=ident(record["id"]), source_layer=ident(record["source_layer"]),
            dest_layer=ident(record["dest_layer"]), info_class=record["info_class"],
            payload=record["payload"], timestamp=stamp)
        eng.contamination.record_flow(bundle, flow, timestamp=stamp)
    elif kind == "resolve_contamination":
        event = model.ContaminationEvent(
            id="CONT-0001", rule_violated="R3_horizontal_borrowing", direction="horizontal",
            nature="content", site=model.ContaminationSite(**args["site"]),
            risks_introduced=args["risks"])
        eng.contamination.resolve_contamination(bundle, event, args["action"], timestamp=stamp)
    elif kind == "bump_version":
        eng.layers.bump_version(bundle, model.ChangelogEntry(**args["entry"]),
                                [eng.bundle.decode_law_dict(law) for law in args["laws"]],
                                timestamp=stamp)
    else:
        raise ValueError(f"unknown planned op {kind!r}")


class MutateReplay(Workload):
    name = "mutate_replay"
    pool = 12
    SIZE = (16, 10)
    #: Planned mutations per session, and how many of them are valid. A
    #: fixed mix keeps every session's cost alike: each accepted mutation
    #: costs one serialization.
    OPS = (15, 10)

    def setup(self, eng, seed, trace, workdir):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.pool):
            session = scalegen.mutation_session(rng, *self.SIZE, *self.OPS)
            doc = session["doc"]
            self.inputs.append({
                "text": scalegen.dumps(doc),
                "plan": session["plan"],
                "marks": [step["accept"] for step in session["plan"]],
                "kinds": [step["kind"] for step in session["plan"]],
                "units": len(doc["units"]),
                "decls": scalegen.count_declarations(doc),
            })

    def op(self, eng, i, timer, tracer, inputs=None):
        item = self.inputs[i % len(self.inputs)]
        rejected_type = eng.diagnostics.OperationRejected
        live = eng.bundle.parse_bundle(item["text"]).bundle
        with timer.paused():
            snapshot = eng.bundle.parse_bundle(item["text"]).bundle
        current = item["text"]
        outcomes, unchanged = [], []
        for k, step in enumerate(item["plan"]):
            try:
                apply_step(eng, live, step)
            except rejected_type:
                outcomes.append(False)
                with timer.paused():
                    unchanged.append((k, eng.bundle.serialize_bundle(live) == current))
                continue
            outcomes.append(True)
            current = eng.bundle.serialize_bundle(live)
        new_events = live.events[len(snapshot.events):]
        replayed = eng.audit.replay(snapshot, new_events)
        with timer.paused():
            seen = {"outcomes": outcomes, "rejected_unchanged": unchanged, "live": current,
                    "replayed": eng.bundle.serialize_bundle(replayed)}
            counts = {"accepted": sum(outcomes), "attempted": len(outcomes),
                      "replayed_events": len(new_events), "decls": item["decls"],
                      "bytes": len(item["text"].encode("utf-8"))}
            return item["units"], answers.check_session(item, seen), counts


# ---------------------------------------------------------------------------
# cli_small
# ---------------------------------------------------------------------------


class CliSmall(Workload):
    name = "cli_small"
    pool = 4
    SIZE = (5, 8)

    def setup(self, eng, seed, trace, workdir):
        rng = random.Random(seed)
        doc, answer = scalegen.clean_bundle(rng, *self.SIZE)
        clean = os.path.join(workdir, "clean.bundle")
        with open(clean, "w", encoding="utf-8") as out:
            out.write(scalegen.dumps(doc))
        doc, _ = scalegen.clean_bundle(rng, *self.SIZE)
        findings = scalegen.inject_faults(rng, doc, 0.25)
        faulted = os.path.join(workdir, "faulted.bundle")
        with open(faulted, "w", encoding="utf-8") as out:
            out.write(scalegen.dumps(doc))
        self.units = answer["units"]
        self.env = dict(os.environ, PYTHONPATH=eng.src, RECAP_NO_COLOR="1")
        self.inputs = [
            (["validate", clean], {"exit": 0, "line": "first", "text": "compliant"}),
            (["scan", faulted],
             {"exit": 1, "line": "last", "text": f"{len(findings)} contamination event(s)"}),
            (["report", clean, "study-log", "--project", "child:C1:PRJ"],
             {"exit": 0, "line": "rows", "text": str(self.SIZE[1])}),
            (["validate", faulted], {"exit": 1, "line": "first", "text": "non_compliant"}),
        ]

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                              text=True, timeout=120, check=False)

    def op(self, eng, i, timer, tracer, inputs=None):
        args, answer = self.inputs[i % len(self.inputs)]
        done = self.run(["-m", "recap_engine", *args])
        with timer.paused():
            seen = {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
            return self.units, answers.check_cli(answer, seen), {"bytes": 0}

    def probe(self, tracer) -> None:
        """Traced run only: the interpreter alone, then interpreter plus
        package import, as spans outside the op."""
        with tracer.span("cli.interpreter"):
            self.run(["-c", "pass"])
        with tracer.span("cli.import"):
            self.run(["-c", "import recap_engine.cli"])


WORKLOADS = {w.name: w for w in (ValidateClean, ScanContaminated, MutateReplay, CliSmall)}
