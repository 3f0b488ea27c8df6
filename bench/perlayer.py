"""Per-layer metrics and the scaling report, computed from a traced run.

Time metrics are summed per op and reported as the median over the traced
ops. Count metrics are taken over the first full cycle of the input pool,
so two runs with the same seed report the same counts whatever their op
totals. Metrics of a layer a workload does not exercise read 0.
"""

from __future__ import annotations

import statistics
import sys

import spans
from spans import NAME, PARENT, RAISED, duration_ms

ENGINE_SPANS = frozenset(f"{m}.{f}" for m, f in spans.TRACED)
MUTATIONS = frozenset({
    "tiering.declare_tier", "tiering.apply_retier", "tiering.split_unit",
    "routing.declare_route", "routing.freeze_route", "routing.revise_route",
    "contamination.record_flow", "contamination.resolve_contamination", "layers.bump_version",
})

#: Layer -> (span names, count only calls made outside any engine span).
LAYERS = {
    "bundle.parse": ({"bundle.parse_bundle"}, False),
    "bundle.serialize": ({"bundle.serialize_bundle"}, False),
    "tiering.check": ({"tiering.check_tier_declaration", "tiering.check_retier_chain"}, False),
    "routing.coherence": ({"routing.check_route_coherence", "routing.check_freeze_integrity"}, False),
    "layers.law_check": ({"layers.law_history", "layers.validate_grandparent_laws",
                          "layers.check_law_evolution"}, False),
    "layers.bump": ({"layers.bump_version"}, False),
    "contamination.scan": ({"contamination.scan_bundle"}, False),
    "contamination.trace": ({"contamination.trace_downstream"}, False),
    "reporting.verdict": ({"reporting.compliance_verdict"}, False),
    "reporting.study_log": ({"reporting.build_study_log"}, True),
    "reporting.tier_table": ({"reporting.build_tier_table"}, True),
    "reporting.render": ({"reporting.render_report"}, True),
    "audit.replay": ({"audit.replay"}, False),
}
#: Work inside the verdict that has its own layer metric; the rest of the
#: verdict's time is ``reporting.verdict_other``.
VERDICT_PARTS = LAYERS["tiering.check"][0] | LAYERS["routing.coherence"][0] \
    | LAYERS["layers.law_check"][0] | LAYERS["contamination.scan"][0]

#: Layers in the scaling report.
SCALED = ("bundle.parse", "bundle.serialize", "tiering.check", "routing.coherence",
          "layers.law_check", "contamination.scan", "reporting.verdict",
          "reporting.verdict_other", "reporting.study_log", "reporting.tier_table",
          "reporting.render")
#: A per-unit cost ratio above this is flagged superlinear.
FLAG = 1.5


class Op:
    """The spans of one op, with the nesting questions the metrics ask."""

    def __init__(self, all_spans: list[list], indexes: list[int]) -> None:
        self.spans = all_spans
        self.indexes = indexes

    def inside_engine(self, i: int) -> bool:
        return spans.ancestor_named(self.spans, i, ENGINE_SPANS) >= 0

    def named(self, names, top: bool = False, under: str | None = None) -> list[int]:
        out = []
        for i in self.indexes:
            if self.spans[i][NAME] not in names:
                continue
            if top and self.inside_engine(i):
                continue
            if under is not None and spans.ancestor_named(self.spans, i, {under}) < 0:
                continue
            out.append(i)
        return out

    def total(self, names, top: bool = False, under: str | None = None) -> float:
        return sum(duration_ms(self.spans[i]) for i in self.named(names, top, under))

    def layer_times(self, under: str | None = None) -> dict[str, float]:
        times = {name: self.total(names, top, under) for name, (names, top) in LAYERS.items()}
        other = 0.0
        for v in self.named({"reporting.compliance_verdict"}, under=under):
            parts = sum(duration_ms(self.spans[i]) for i in self.indexes
                        if self.spans[i][PARENT] == v and self.spans[i][NAME] in VERDICT_PARTS)
            other += duration_ms(self.spans[v]) - parts
        times["reporting.verdict_other"] = other
        return times

    def mean(self, names, top: bool = False, raised: str | None = None) -> float | None:
        values = [duration_ms(self.spans[i]) for i in self.named(names, top)
                  if raised is None or self.spans[i][RAISED] == raised]
        return sum(values) / len(values) if values else None


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def per_layer(workload, all_spans: list[list], untraced: list, traced: list, extra: list,
              extra_base: int) -> dict:
    """Per-layer metrics of a traced run. Traced ops have ids 0, 1, ...;
    the scaling phase's ops have ids ``extra_base``, ``extra_base + 1``, ..."""
    grouped = spans.by_op(all_spans)
    ops = [Op(all_spans, grouped.get(i, [])) for i in range(len(traced))]
    extra_ops = [Op(all_spans, grouped.get(extra_base + i, [])) for i in range(len(extra))]
    times = [op.layer_times() for op in ops]
    counts = [r.counts for r in traced]
    cycle = range(min(workload.pool, len(traced)))

    def t(layer: str) -> float:
        return _median(row[layer] for row in times)

    def c(key: str) -> float:
        return _median(counts[i].get(key, 0) for i in cycle)

    parse_rate = []
    for op, row, count in zip(ops, times, counts):
        if row["bundle.parse"] > 0:
            parse_rate.append(count.get("bytes", 0) / 1e6 / (row["bundle.parse"] / 1e3))
    accepted = sum(counts[i].get("accepted", 0) for i in cycle)
    attempted = sum(counts[i].get("attempted", 0) for i in cycle)
    replay_rate = [count.get("replayed_events", 0) / (row["audit.replay"] / 1e3)
                   for row, count in zip(times, counts) if row["audit.replay"] > 0]

    cli = {"interpreter": [], "import": [], "command": []}
    for op, record in zip(ops, traced):
        interp = op.total({"cli.interpreter"})
        with_import = op.total({"cli.import"})
        if with_import:
            cli["interpreter"].append(interp)
            cli["import"].append(with_import - interp)
            cli["command"].append(record.wall_ms - with_import)

    metrics = {
        "bundle.parse_ms": (t("bundle.parse"), "ms"),
        "bundle.parse_mb_per_s": (_median(parse_rate), "MB/s"),
        "bundle.serialize_ms": (t("bundle.serialize"), "ms"),
        "bundle.decls": (c("decls"), "count"),
        "tiering.check_ms": (t("tiering.check"), "ms"),
        "tiering.units": (_median(len(ops[i].named({"tiering.check_tier_declaration"}))
                                  for i in cycle), "count"),
        "routing.coherence_ms": (t("routing.coherence"), "ms"),
        "routing.projects": (_median(len(ops[i].named({"routing.check_route_coherence"}))
                                     for i in cycle), "count"),
        "layers.law_check_ms": (t("layers.law_check"), "ms"),
        "layers.bump_ms": (t("layers.bump"), "ms"),
        "contamination.scan_ms": (t("contamination.scan"), "ms"),
        "contamination.graph_ms": (_median(op.mean({"contamination.build_reference_graph"})
                                           for op in ops), "ms"),
        "contamination.trace_ms": (t("contamination.trace"), "ms"),
        "contamination.events": (c("events"), "count"),
        "contamination.graphs_per_event": (_graphs_per_trace([ops[i] for i in cycle]), "ratio"),
        "reporting.verdict_ms": (t("reporting.verdict"), "ms"),
        "reporting.verdict_other_ms": (t("reporting.verdict_other"), "ms"),
        "reporting.study_log_ms": (t("reporting.study_log"), "ms"),
        "reporting.tier_table_ms": (t("reporting.tier_table"), "ms"),
        "reporting.render_ms": (t("reporting.render"), "ms"),
        "reporting.findings": (c("findings"), "count"),
        "reporting.rows": (c("rows"), "count"),
        "audit.mutation_ms": (_median(op.mean(MUTATIONS, top=True, raised="") for op in ops), "ms"),
        "audit.rejected_ms": (_median(op.mean(MUTATIONS, top=True, raised="OperationRejected")
                                      for op in ops), "ms"),
        "audit.accept_ratio": (accepted / attempted if attempted else 0.0, "ratio"),
        "audit.replay_ms": (t("audit.replay"), "ms"),
        "audit.replay_events_per_s": (_median(replay_rate), "1/s"),
        "cli.interpreter_ms": (_median(cli["interpreter"]), "ms"),
        "cli.import_ms": (_median(cli["import"]), "ms"),
        "cli.command_ms": (_median(cli["command"]), "ms"),
        "trace.overhead_ratio": (_median(r.ms for r in traced) / _median(r.ms for r in untraced),
                                 "ratio"),
    }
    metrics.update(scaling(workload, ops, extra_ops, times))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def scaling(workload, ops: list[Op], extra_ops: list[Op], times: list[dict]) -> dict:
    """Per-unit cost ratios, printed as a report and returned as metrics.

    ``scaling.shape.*``: large-project class over small-project class on
    ``validate_clean``. ``scaling.double.*``: bundles of twice the units
    over the workload's own, both classes pooled. ``scaling.density``: the
    scan at the higher fault density over the workload's own density.
    """
    out = {f"scaling.shape.{layer}": (0.0, "ratio") for layer in SCALED}
    out.update({f"scaling.double.{layer}": (0.0, "ratio") for layer in SCALED})
    out["scaling.density.contamination.scan"] = (0.0, "ratio")
    lines = []
    if workload.name == "validate_clean" and ops:
        small_units = workload.SMALL[0] * workload.SMALL[1]
        large_units = workload.LARGE[0] * workload.LARGE[1]
        small = [op.layer_times("shape.small") for op in ops]
        large = [op.layer_times("shape.large") for op in ops]
        units = len(ops) * (small_units + large_units)
        extra_times = [op.layer_times() for op in extra_ops]
        extra_units = len(extra_ops) * 2 * (small_units + large_units)
        lines.append(
            f"validate_clean per-unit cost ratios: shape = {workload.LARGE[0]} x "
            f"{workload.LARGE[1]} units over {workload.SMALL[0]} x {workload.SMALL[1]}; "
            f"double = twice the units over the workload's own"
        )
        for layer in SCALED:
            s = sum(row[layer] for row in small) / small_units
            g = sum(row[layer] for row in large) / large_units
            shape = g / s if s else 0.0
            base = sum(row[layer] for row in times) / units
            grown = sum(row[layer] for row in extra_times) / extra_units if extra_units else 0.0
            double = grown / base if base else 0.0
            out[f"scaling.shape.{layer}"] = (shape, "ratio")
            out[f"scaling.double.{layer}"] = (double, "ratio")
            flag = "  SUPERLINEAR" if max(shape, double) > FLAG else ""
            lines.append(f"  {layer:<26} shape {shape:6.2f}  double {double:6.2f}{flag}")
    if workload.name == "scan_contaminated" and extra_ops:
        base = _median(row["contamination.scan"] for row in times)
        dense = _median(op.layer_times()["contamination.scan"] for op in extra_ops)
        ratio = dense / base if base else 0.0
        k = workload.HIGH_DENSITY / workload.DENSITY
        out["scaling.density.contamination.scan"] = (ratio, "ratio")
        flag = "  GROWS WITH EVENTS" if ratio > 1 + (k - 1) / 2 else ""
        lines.append(
            f"scan_contaminated: scan time at fault density {workload.HIGH_DENSITY} over "
            f"{workload.DENSITY} (x{k:g} events, same units): {ratio:.2f}{flag}"
        )
        lines.append(
            f"  graph builds per traced event: "
            f"{_graphs_per_trace(ops):.2f} (1.00: every event rebuilds the reference graph)"
        )
    for line in lines:
        print(line, file=sys.stderr)
    return out


def _graphs_per_trace(ops: list[Op]) -> float:
    graphs = sum(len(op.named({"contamination.build_reference_graph"})) for op in ops)
    traces = sum(len(op.named({"contamination.trace_downstream"})) for op in ops)
    return graphs / traces if traces else 0.0
