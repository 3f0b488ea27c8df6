"""Run one recap-engine benchmark workload and print its metrics.

    python3 bench/run.py --workload validate_clean --seed 1 --seconds 25 --trace 0

Run from anywhere; the engine is imported from ``src/`` next to this
directory and nowhere else. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, and the scaling report goes to
standard error. See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import perlayer
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("model", "identifiers", "diagnostics", "bundle", "tiering", "routing", "layers",
           "contamination", "reporting", "audit", "cli")
#: Set-up is repeated and its median reported, so one slow repetition does
#: not decide ``setup_s``.
SETUP_REPS = 5
#: Shares of ``--seconds`` in a traced run: untraced ops (the overhead
#: baseline), traced ops, and the traced scaling inputs.
TRACE_SPLIT = (0.35, 0.45, 0.20)
#: Op ids of the traced run's scaling phase start here.
EXTRA_OP_BASE = 1_000_000
#: Host-speed calibration. A fixed pure-Python workload runs before every op
#: and around every set-up, and reported times are scaled by CAL_REF_MS over
#: the median of the calibration times nearest the op. On a shared host
#: whose speed drifts by tens of percent within a minute, this keeps a slow
#: minute from reading as a slower engine. CAL_REF_MS is the workload's
#: typical time on the 2-vCPU host the benchmark was built on, so scaled
#: times read close to wall times there. The workload never touches the
#: engine, so engine changes show in full.
CAL_REF_MS = 15.0
#: Calibration readings on each side of an op in the median that scales it.
CAL_REACH = 2
#: A document for the calibration's pure-Python JSON encoding.
CAL_DOC = {"rows": [{"id": f"row{i}", "text": "reading of the declared window " * 3,
                     "tags": [i, i + 1, i * 2], "flag": i % 3 == 0} for i in range(600)]}


class OpRecord(NamedTuple):
    wall_ms: float
    cal_ms: float  # calibration time measured just before the op
    units: int
    problems: list[str]
    counts: dict
    ms: float = 0.0  # wall time scaled to the reference host speed


def calibration_ms() -> float:
    """Time of the calibration workload (dict and set building, a keyed
    sort, indented JSON encoding), with the cyclic collector held off so it
    measures the host rather than the heap the ops left behind."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        table = {}
        for i in range(16000):
            table[f"k{i}"] = {i, i + 1, i * 2}
        sorted(table, key=lambda key: len(table[key]))
        json.dumps(CAL_DOC, indent=2)
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        gc.enable()


def scaled(records: list[OpRecord]) -> list[OpRecord]:
    """Fill in each op's scaled time, using the median of the calibrations
    taken before it and before the CAL_REACH ops on either side."""
    cal = [r.cal_ms for r in records]
    return [
        r._replace(ms=r.wall_ms * CAL_REF_MS
                   / statistics.median(cal[max(0, i - CAL_REACH):i + CAL_REACH + 1]))
        for i, r in enumerate(records)
    ]


def import_engine() -> SimpleNamespace:
    """A fresh import of every engine module, from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "recap_engine" or n.startswith("recap_engine.")]:
        del sys.modules[name]
    package = importlib.import_module("recap_engine")
    if Path(package.__file__).resolve().parent != SRC / "recap_engine":
        raise ImportError(f"recap_engine imported from {package.__file__}, not {SRC}")
    eng = SimpleNamespace(**{n: importlib.import_module(f"recap_engine.{n}") for n in MODULES})
    eng.src = str(SRC)
    return eng


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p90, or the highest percentile with at least ten samples beyond it."""
    return max(0.0, min(0.9, 1 - 10 / n))


def run_op(workload, eng, i: int, tracer, inputs=None) -> OpRecord:
    cal_ms = calibration_ms()
    timer = workloads.Timer(tracer)
    start = time.perf_counter_ns()
    try:
        with tracer.span("op"):
            units, problems, counts = workload.op(eng, i, timer, tracer, inputs)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        units, problems, counts = 0, [f"raised {type(exc).__name__}: {exc}"], {}
    wall_ms = (time.perf_counter_ns() - start - timer.paused_ns) / 1e6
    return OpRecord(wall_ms, cal_ms, units, problems, counts)


def loop(workload, eng, seconds: float, tracer, *, min_ops: int = 1, first: int = 0,
         inputs=None, probe: bool = False) -> list[OpRecord]:
    records = []
    deadline = time.perf_counter() + seconds
    i = first
    while time.perf_counter() < deadline or len(records) < min_ops:
        tracer.op_id = i
        if probe:
            workload.probe(tracer)
        records.append(run_op(workload, eng, i, tracer, inputs))
        i += 1
    tracer.op_id = -1
    return scaled(records)


def set_up(kind: type, seed: int, trace: bool, workdir: Path):
    """Import, generate inputs, write files and warm up; repeated, median
    kept. Each repetition starts from a collected heap with a fresh workload,
    as a fresh process would, and is scaled by the calibrations on either
    side of it."""
    times = []
    cal_ms = calibration_ms()
    for _ in range(SETUP_REPS):
        workload = eng = None
        gc.collect()
        start = time.perf_counter()
        eng = import_engine()
        workload = kind()
        workload.setup(eng, seed, trace, str(workdir))
        run_op(workload, eng, 0, workloads.NoTracer())
        wall_s = time.perf_counter() - start
        before, cal_ms = cal_ms, calibration_ms()
        times.append(wall_s * CAL_REF_MS / ((before + cal_ms) / 2))
    return workload, eng, statistics.median(times)


def report_problems(records: list[OpRecord]) -> None:
    shown = 0
    for i, record in enumerate(records):
        for problem in record.problems:
            if shown < 10:
                print(f"op {i}: {problem}", file=sys.stderr)
            shown += 1


def end_to_end(workload, records: list[OpRecord], setup_s: float) -> dict:
    latencies = [r.ms for r in records]
    failed = sum(1 for r in records if r.problems)
    busy_s = sum(latencies) / 1e3
    q = tail_quantile(len(latencies))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_small" else resource.RUSAGE_SELF
    print(f"latency_p90_ms is the p{q * 100:g} of {len(latencies)} ops; unscaled wall time "
          f"p50 {percentile([r.wall_ms for r in records], 0.5):.1f} ms", file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_ms": {"value": percentile(latencies, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": percentile(latencies, q), "unit": "ms"},
        "units_per_s": {"value": sum(r.units for r in records) / busy_s, "unit": "1/s"},
        "ok_ratio": {"value": (len(records) - failed) / len(records), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recap_engine" / "__init__.py").is_file():
        print(f"no engine source at {SRC}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS.get(args.workload)
    if kind is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, eng, setup_s = set_up(kind, args.seed, bool(args.trace), workdir)
        if args.trace:
            metrics, records = traced_run(workload, eng, args)
        else:
            records = loop(workload, eng, args.seconds, workloads.NoTracer())
            metrics = end_to_end(workload, records, setup_s)
        print(f"calibration median {statistics.median(r.cal_ms for r in records):.2f} ms "
              f"(reference {CAL_REF_MS} ms)", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_problems(records)
    failed = sum(1 for r in records if r.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(workload, eng, args) -> tuple[dict, list[OpRecord]]:
    untraced_s, traced_s, extra_s = (args.seconds * share for share in TRACE_SPLIT)
    if not workload.extra_inputs():
        traced_s += extra_s
    probe = hasattr(workload, "probe")
    untraced = loop(workload, eng, untraced_s, workloads.NoTracer())
    tracer = spans.Tracer()
    tracer.instrument()
    try:
        traced = loop(workload, eng, traced_s, tracer, min_ops=workload.pool, probe=probe)
        extra = []
        if workload.extra_inputs():
            extra = loop(workload, eng, extra_s, tracer, min_ops=len(workload.extra_inputs()),
                         first=EXTRA_OP_BASE, inputs=workload.extra_inputs())
    finally:
        tracer.uninstrument()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.jsonl")
    metrics = perlayer.per_layer(workload, tracer.spans, untraced, traced, extra, EXTRA_OP_BASE)
    return metrics, untraced + traced + extra

if __name__ == "__main__":
    sys.exit(main())
