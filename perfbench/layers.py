"""Per-layer metrics: the traced run, the layer probes and self-time accounting.

A traced run repeats one cycle of the workload (every item in both phases)
twice: once untraced and once under a :func:`repro.obs.configure` session, with
benchmark-side spans (category ``bench``) around every call into the
program.  It then runs the *layer probes* -- direct calls into single
layers on fixed inputs that do not depend on the workload -- and exports
the session as a Chrome trace.

Self time is computed here from the exported trace: a span's duration
minus the part of its interval that its child spans cover (the union of
the children's intervals, so concurrent worker spans are not counted
twice).  ``python -m repro.obs`` sums nested spans instead, which would
count a compile once under ``dse`` and again under ``pipeline``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.dependence import band_dependences
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.dialects.affine import AffineForOp, get_perfectly_nested_band
from repro.estimation.qor import simulate_design
from repro.ir.interp import interpret_module
from repro.workloads import as_module, iter_workloads

from units import ZOO_PLATFORMS, Tally, Workload, geomean, new_samples, tv_kernels

#: The compiler's ``CompileResult.stage_seconds`` keys, in pipeline order.
STAGE_KEYS = (
    "construct",
    "fusion",
    "bufferize",
    "structural",
    "dataflow-opt",
    "parallelize",
    "estimate",
)
#: Layers whose unit self time is reported as ``self_s.<layer>``.
SELF_LAYERS = ("frontend", "stages", "sim", "cache", "dse", "bench")
#: Benchmark spans that wrap exactly one layer's function.
_BENCH_LAYERS = {
    "as_module": "frontend",
    "band_dependences": "dependence",
    "simulate_design": "sim",
    "interpret_module": "interp",
}
_CATEGORY_LAYERS = {
    "frontend": "frontend",
    "cache": "cache",
    "dse": "dse",
    "sim": "sim",
    "analysis": "stages",
}


def layer_of(name: str, category: str) -> str:
    if category == "bench":
        return _BENCH_LAYERS.get(name, "bench")
    if category == "stage":
        return "tv" if name == "validate" else "stages"
    if category == "pipeline":
        # The ``compile`` span's own time: driver work outside every stage,
        # which is where IR-snapshot stores and loads run.
        return "compile"
    return _CATEGORY_LAYERS.get(category, "other")


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def span_self_times(events: List[Dict]) -> Tuple[Dict[str, Dict], Dict[str, float]]:
    """Every span of a Chrome trace by id, and its self time in microseconds."""
    spans = {
        str(event["args"]["span_id"]): event
        for event in events
        if event.get("ph") == "X" and "span_id" in (event.get("args") or {})
    }
    children: Dict[str, List[Dict]] = defaultdict(list)
    for event in spans.values():
        parent = event["args"].get("parent_id")
        if parent is not None and str(parent) in spans:
            children[str(parent)].append(event)
    self_us: Dict[str, float] = {}
    for span_id, event in spans.items():
        start = float(event["ts"])
        end = start + float(event["dur"])
        covered = 0.0
        cursor = start
        clipped = sorted(
            (max(float(c["ts"]), start), min(float(c["ts"]) + float(c["dur"]), end))
            for c in children[span_id]
        )
        for child_start, child_end in clipped:
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        self_us[span_id] = float(event["dur"]) - covered
    return spans, self_us


def descendants_of(spans: Dict[str, Dict], root_id: str) -> List[str]:
    """Ids of ``root_id`` and every span whose parent chain reaches it."""
    inside: Dict[str, bool] = {root_id: True}

    def reaches(span_id: Optional[str]) -> bool:
        chain = []
        while span_id is not None and span_id not in inside:
            chain.append(span_id)
            event = spans.get(span_id)
            parent = event["args"].get("parent_id") if event else None
            span_id = str(parent) if parent is not None and str(parent) in spans else None
        verdict = inside.get(span_id, False) if span_id is not None else False
        for item in chain:
            inside[item] = verdict
        return verdict

    return [span_id for span_id in spans if reaches(span_id)]


def breakdown(
    spans: Dict[str, Dict], self_us: Dict[str, float], ids: List[str]
) -> Dict[Tuple[str, str], Tuple[int, float]]:
    """``(category, name) -> (span count, total self seconds)`` over ``ids``."""
    table: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
    for span_id in ids:
        event = spans[span_id]
        row = table[(str(event.get("cat")), str(event.get("name")))]
        row[0] += 1
        row[1] += self_us[span_id] / 1e6
    return {key: (int(count), seconds) for key, (count, seconds) in table.items()}


def format_breakdown(rows: Dict[Tuple[str, str], Tuple[int, float]], wall: float) -> str:
    lines = [f"{'layer':<11}{'category':<10}{'span':<28}{'count':>7}{'self s':>10}{'share':>8}"]
    ordered = sorted(rows.items(), key=lambda item: -item[1][1])
    for (category, name), (count, seconds) in ordered:
        share = seconds / wall if wall > 0 else 0.0
        lines.append(
            f"{layer_of(name, category):<11}{category:<10}{name[:27]:<28}"
            f"{count:>7}{seconds:>10.4f}{share:>8.1%}"
        )
    total = sum(seconds for _, seconds in rows.values())
    lines.append(f"{'':<11}{'':<10}{'sum of self times':<28}{'':>7}{total:>10.4f}")
    lines.append(f"{'':<11}{'':<10}{'traced wall':<28}{'':>7}{wall:>10.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------


def design_bands(module) -> List[List[AffineForOp]]:
    """Every outermost loop band of a compiled design."""
    return [
        get_perfectly_nested_band(op)
        for op in module.walk()
        if isinstance(op, AffineForOp) and not isinstance(op.parent_op, AffineForOp)
    ]


def timed(name: str, call, **attrs):
    with obs.span(name, cat="bench", **attrs):
        start = time.perf_counter()
        value = call()
        return value, time.perf_counter() - start


def layer_probes(seed: int, tally: Tally) -> Dict[str, float]:
    """Direct, individually timed calls into each layer on fixed inputs.

    One zoo pass in registry order: trace the frontend (``as_module``),
    compile the traced module, solve the dependences of every loop band of
    the result once (``band_dependences``) and simulate the design
    (``simulate_design``).  Then interpret the frontend modules of the 12
    translation-validation kernels (``interpret_module``).
    """
    metrics: Dict[str, float] = {f"stage.{key}_ms": 0.0 for key in STAGE_KEYS}
    frontend_s = dependence_s = sim_s = 0.0
    ops_out = bands = 0
    throughputs = []
    for handle in iter_workloads():
        platform = ZOO_PLATFORMS[handle.kind]
        tally.attempted += 1
        module, seconds = timed("as_module", lambda: as_module(handle), workload=handle.name)
        frontend_s += seconds
        compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform=platform)
        result, _ = timed("Compiler.run", lambda: compiler.run(module), workload=handle.name)
        metrics[f"compile_ms.{handle.name}"] = result.compile_seconds * 1e3
        for key, seconds in result.stage_seconds.items():
            metrics[f"stage.{key}_ms"] = metrics.get(f"stage.{key}_ms", 0.0) + seconds * 1e3
        ops_out += sum(1 for _ in result.module.walk())
        for band in design_bands(result.module):
            _, seconds = timed("band_dependences", lambda: band_dependences(band))
            dependence_s += seconds
            bands += 1
        _, seconds = timed(
            "simulate_design",
            lambda: simulate_design(result.schedules, result.estimate, result.platform),
        )
        sim_s += seconds
        if not result.throughput > 0:
            tally.fail(f"probe {handle.name}: throughput {result.throughput}")
        throughputs.append(result.throughput)

    interp_s = 0.0
    ops_executed = 0
    for handle in tv_kernels():
        tally.attempted += 1
        module = as_module(handle)
        run, seconds = timed(
            "interpret_module", lambda: interpret_module(module, seed=seed),
            workload=handle.label(),
        )
        interp_s += seconds
        ops_executed += run.ops_executed
        if run.ops_executed <= 0 or run.oob_reads or run.oob_writes:
            tally.fail(f"probe interpret {handle.label()}: {run.ops_executed} ops")

    metrics.update(
        {
            "frontend.trace_ms": frontend_s * 1e3,
            "ir.ops_out": float(ops_out),
            "dependence.solve_once_ms": dependence_s * 1e3,
            "dependence.bands": float(bands),
            "sim.design_ms": sim_s * 1e3,
            "interp.us_per_op": interp_s * 1e6 / max(ops_executed, 1),
            "design_throughput_geomean": geomean(throughputs),
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# Workload-specific layer metrics
# ---------------------------------------------------------------------------


def dse_metrics(workload: Workload, counters: Dict[str, float]) -> Dict[str, float]:
    """DSE and IR-cache terms of the traced cycle (zero when unused)."""
    metrics = {
        name: 0.0
        for name in (
            "dse.compile_s",
            "dse.simulate_s",
            "dse.cache_probe_s",
            "dse.worker_busy_ratio",
            "dse.qor_hit_ratio",
            "dse.warm_driver_s",
            "dse.promoted",
            "dse.generations",
            "dse_hypervolume",
            "ircache.prefix_hits",
            "ircache.stages_skipped",
        )
    }
    metrics["ircache.snapshots_stored"] = float(
        counters.get("ir_cache.snapshots_stored", 0.0)
    )
    cold = workload.last.get("cold")
    if cold is None:
        return metrics
    warm_runs = workload.last["warm"]
    # ``telemetry`` sums the whole live session, so each warm run's share is
    # its difference from the summary the previous call returned.
    cold_t = cold.telemetry or {}
    first_warm_s, first_warm = warm_runs[0]
    warm_probe_s = (first_warm.telemetry or {}).get("cache_probe_seconds", 0.0) - cold_t.get(
        "cache_probe_seconds", 0.0
    )
    results = [cold] + [warm for _, warm in warm_runs]
    last_t = results[-1].telemetry or {}
    metrics.update(
        {
            "dse.compile_s": cold_t.get("compile_seconds", 0.0),
            "dse.simulate_s": cold_t.get("simulate_seconds", 0.0),
            "dse.cache_probe_s": last_t.get("cache_probe_seconds", 0.0),
            "dse.worker_busy_ratio": cold_t.get("compile_seconds", 0.0)
            / (cold.elapsed_seconds * cold.workers),
            "dse.qor_hit_ratio": sum(r.cache_hits for r in results)
            / sum(r.num_points for r in results),
            "dse.warm_driver_s": first_warm_s - warm_probe_s,
            "dse.promoted": float(cold.num_promoted),
            "dse.generations": float(len(cold.generations)),
            "dse_hypervolume": float(cold.generations[-1]["hypervolume"]),
            "ircache.prefix_hits": float(sum(r.prefix_hits for r in results)),
            "ircache.stages_skipped": float(sum(r.stages_skipped for r in results)),
        }
    )
    return metrics


def tv_metrics(workload: Workload) -> Dict[str, float]:
    reports = workload.last.get("reports") or []
    outcomes: Dict[str, int] = defaultdict(int)
    for report in reports:
        for outcome, count in report.outcomes().items():
            outcomes[outcome] += count
    non_baseline = sum(outcomes.values()) - outcomes["baseline"]
    return {
        "tv.static_ratio": outcomes["static"] / non_baseline if non_baseline else 0.0,
        "tv.executed_checks": float(non_baseline - outcomes["static"]),
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced_run(
    workload: Workload, trace_path: str, serial: bool
) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of one workload, plus a printable breakdown."""
    tally = workload.tally

    def one_cycle() -> None:
        samples = new_samples()
        for index in range(workload.cycle):
            workload.repetition(index, samples)

    start = time.perf_counter()
    one_cycle()
    untraced_s = time.perf_counter() - start

    obs.configure()
    try:
        start = time.perf_counter()
        with obs.span("unit", cat="bench", workload=workload.name):
            one_cycle()
        traced_s = time.perf_counter() - start
        with obs.span("probe", cat="bench") as probe_span:
            metrics = layer_probes(workload.seed, tally)
        registry = obs.metrics()
        counters = {
            name: float(payload["value"])
            for name, payload in (registry.to_dict() if registry else {}).items()
            if payload.get("kind") == "counter"
        }
        obs.export_chrome(trace_path)
    finally:
        obs.shutdown()

    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    problems = obs.validate_chrome_trace(trace)
    if problems:
        tally.fail(f"trace {trace_path}: {len(problems)} schema problems: {problems[0]}")
    spans, self_us = span_self_times(trace["traceEvents"])
    # The unit is every span outside the probe subtree, not the subtree of the
    # ``unit`` span: ``explore`` calls ``obs.telemetry_summary()``, which
    # closes every open span, so spans after the first ``explore`` of a
    # cycle start new roots.
    probe_ids = set(descendants_of(spans, str(probe_span.span_id)))
    unit_ids = [span_id for span_id in spans if span_id not in probe_ids]
    rows = breakdown(spans, self_us, unit_ids)
    by_layer: Dict[str, float] = defaultdict(float)
    for (category, name), (_, seconds) in rows.items():
        by_layer[layer_of(name, category)] += seconds
    total_self = sum(by_layer.values())
    if serial and total_self > traced_s * (1 + 1e-6):
        tally.fail(f"self times sum to {total_self:.4f} s > traced wall {traced_s:.4f} s")

    metrics.update({f"self_s.{layer}": by_layer[layer] for layer in SELF_LAYERS})
    metrics["ircache.overhead_s"] = by_layer["compile"]
    metrics["tv.validate_ms"] = by_layer["tv"] * 1e3
    metrics["obs.trace_overhead_ratio"] = traced_s / untraced_s
    metrics.update(dse_metrics(workload, counters))
    metrics.update(tv_metrics(workload))
    return metrics, format_breakdown(rows, traced_s)
