"""The benchmark's four workloads: what one repetition runs and what it checks.

Each workload drives ``repro``'s public API only.  A repetition appends
``(operations, seconds, probe seconds)`` samples (see ``probe.py``) per
item (one zoo workload, one TV kernel under one pipeline, or the whole
search) to two phases:

* ``first`` -- the call as a user issues it the first time;
* ``rerun`` -- the identical call issued again right after, with whatever
  state the first call left behind (the QoR cache on ``dse-search``, the IR
  snapshot cache on ``dse-incremental``).  ``zoo-compile`` and ``tv-sweep``
  keep no state between calls, so there the two phases must agree: an A/A
  check of the measurement itself.  Running each item twice back to back
  makes both phases see the same host conditions.

Every operation (one compile, one evaluated design point, one validation)
is counted in a :class:`Tally`, and every failed output check is counted
as a failure there.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
import tempfile
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.tv import validate_pipeline
from repro.baselines.ablation import ABLATION_MODES, ablation_pipeline_spec
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.dse.runner import explore
from repro.dse.space import build_space, polybench_suite, suite_from_names
from repro.workloads import iter_workloads

from probe import Stopwatch

#: Zoo compile targets: the DNN models on the paper's SLR of a VU9P, the
#: kernels on the ZU3EG (the platforms of Tables 8 and 7).
ZOO_PLATFORMS = {"model": "vu9p-slr", "kernel": "zu3eg"}
TV_PLATFORM = "vu9p-slr"
#: Reassociating pipelines may change the last bits of correlation's
#: floating-point reductions; every other kernel must stay bitwise equal.
TV_TOLERANCES = {"correlation": 1e-9}
DSE_WORKERS = 2
#: Seconds between host probes while a search runs in the worker pool.
PROBE_EVERY_S = 0.25

#: ``phase -> item -> [(operations, seconds, probe seconds), ...]``
Samples = Dict[str, Dict[str, List[Tuple[int, float, float]]]]
PHASES = ("first", "rerun")


def new_samples() -> Samples:
    return {phase: defaultdict(list) for phase in PHASES}


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, plus the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def tv_kernels() -> List:
    """The 12 kernel workloads shrunk to interpreter size (n=8, tsteps=2)."""
    handles = []
    for handle in iter_workloads(kind="kernel"):
        if "n" in handle.params:
            handle = handle.at(n=8)
        if "tsteps" in handle.params:
            handle = handle.at(tsteps=2)
        handles.append(handle)
    return handles


class Workload:
    """One benchmark workload bound to a seed, a scratch dir and a tally."""

    name = ""
    #: Repetitions that visit every item once.
    cycle = 1

    def __init__(self, seed: int, scratch: str, tally: Tally) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tally = tally
        #: Program results of the latest cycle, for the traced run.
        self.last: Dict[str, object] = {}

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def warm_up(self) -> None:
        """Pay lazy set-up with one reduced, untimed unit."""
        raise NotImplementedError

    def repetition(self, index: int, samples: Samples) -> None:
        raise NotImplementedError


class ZooCompile(Workload):
    """All 19 registered workloads through ``DEFAULT_PIPELINE``, serially."""

    name = "zoo-compile"

    def __init__(self, seed: int, scratch: str, tally: Tally) -> None:
        super().__init__(seed, scratch, tally)
        self.handles = list(iter_workloads())
        random.Random(seed).shuffle(self.handles)
        self.cycle = len(self.handles)
        #: Per-workload (throughput, dsp, latency) of the warm-up pass.
        self.reference: Dict[str, Tuple[float, float, float]] = {}

    def compile(self, handle) -> Stopwatch:
        """Compile one workload, check its QoR and return its timing."""
        platform = ZOO_PLATFORMS[handle.kind]
        self.tally.attempted += 1
        result = None
        with Stopwatch() as watch:
            try:
                with obs.span("Compiler.run", cat="bench", workload=handle.name):
                    compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform=platform)
                    result = compiler.run(workload=handle)
            except Exception as error:  # a failed compile is a counted failure
                self.tally.fail(f"{handle.name}: compile raised {error!r}")
        if result is None:
            return watch
        qor = (result.throughput, result.estimate.resources.dsp, result.estimate.latency)
        expected = self.reference.setdefault(handle.name, qor)
        if not qor[0] > 0:
            self.tally.fail(f"{handle.name}: throughput {qor[0]} is not positive")
        elif qor != expected:
            self.tally.fail(f"{handle.name}: QoR {qor} differs from first pass {expected}")
        return watch

    def warm_up(self) -> None:
        for handle in self.handles:
            self.compile(handle)

    def repetition(self, index: int, samples: Samples) -> None:
        handle = self.handles[index % self.cycle]
        for phase in PHASES:
            samples[phase][handle.name].append(self.compile(handle).sample(1))


class DseSearch(Workload):
    """Genetic multi-fidelity search over the PolyBench kernels, cold then warm.

    The budget is the whole space, so every seed compiles the same design
    points: the seed steers the search order, the per-generation promotions
    and so the frontier, but not which kernels get compiled.  (With a
    budget below the space size the genetic search concentrates on a
    seed-dependent handful of kernels whose compile costs differ by 10x,
    and evals/s moves with the seed more than any bound could allow.)
    """

    name = "dse-search"
    preset = "medium"
    ir_cache = False
    #: Warm reruns per repetition (each one a ``rerun`` sample).
    warm_reruns = 4
    #: Search the whole space as one generation instead of the genetic
    #: strategy's default 8-point generations.
    one_generation = False

    def __init__(self, seed: int, scratch: str, tally: Tally) -> None:
        super().__init__(seed, scratch, tally)
        self.space = list(build_space(self.preset, suite=polybench_suite()))
        #: A reduced space of two cheap kernels for the warm-up unit.
        self.warm_up_space = list(
            build_space("small", suite=suite_from_names(["symm", "syr2k"]))
        )

    def explore(
        self, space: List, seed: int, qor_dir: str, ir_dir: Optional[str], phase: str
    ) -> Tuple[Stopwatch, object]:
        options = dict(
            workers=DSE_WORKERS,
            cache_dir=qor_dir,
            strategy="genetic",
            budget=len(space),
            seed=seed,
            fidelity="simulate",
            promote_top=0.25,
        )
        if self.one_generation:
            options["strategy_options"] = {"population": len(space)}
        if ir_dir is not None:
            options.update(ir_cache=True, ir_cache_dir=ir_dir)
        with obs.span("explore", cat="bench", phase=phase, seed=seed), Stopwatch(
            sample_every=PROBE_EVERY_S
        ) as watch:
            result = explore(space, **options)
        self.tally.attempted += result.num_points
        if result.errors:
            first = result.errors[0].get("error")
            self.tally.fail(
                f"{phase}: {len(result.errors)} error records (first: {first})",
                len(result.errors),
            )
        return watch, result

    def unit(self, space: List, seed: int, samples: Optional[Samples]) -> None:
        qor_dir = self.fresh_dir()
        ir_dir = self.fresh_dir() if self.ir_cache else None
        try:
            watch, cold = self.explore(space, seed, qor_dir, ir_dir, "cold")
            if samples is not None:
                samples["first"]["search"].append(watch.sample(cold.num_points))
            warm_runs = []
            for _ in range(self.warm_reruns):
                # The incremental rerun starts from an empty QoR cache so that
                # every point resumes from an IR snapshot instead.
                warm_qor = self.fresh_dir() if self.ir_cache else qor_dir
                watch, warm = self.explore(space, seed, warm_qor, ir_dir, "warm")
                self.check_warm(cold, warm)
                warm_runs.append((watch.seconds, warm))
                if samples is not None:
                    samples["rerun"]["search"].append(watch.sample(warm.num_points))
            self.last = {"cold": cold, "warm": warm_runs}
        finally:
            shutil.rmtree(qor_dir, ignore_errors=True)
            if ir_dir is not None:
                shutil.rmtree(ir_dir, ignore_errors=True)

    def check_warm(self, cold, warm) -> None:
        if frontier_keys(warm) != frontier_keys(cold):
            self.tally.fail("warm frontier differs from the cold frontier")
        if final_hypervolume(warm) != final_hypervolume(cold):
            self.tally.fail(
                f"warm hypervolume {final_hypervolume(warm)} != "
                f"cold {final_hypervolume(cold)}"
            )
        if warm.cache_hits != warm.num_points or warm.cache_misses:
            self.tally.fail(
                f"warm phase compiled: {warm.cache_hits} hits of "
                f"{warm.num_points} points, {warm.cache_misses} misses"
            )

    def warm_up(self) -> None:
        self.unit(self.warm_up_space, self.seed, None)

    def repetition(self, index: int, samples: Samples) -> None:
        # Each repetition searches with its own seed derived from the
        # workload seed, so a run averages over several search trajectories
        # instead of inheriting one trajectory's cost.
        self.unit(self.space, 1000 * self.seed + index, samples)


class DseIncremental(DseSearch):
    """The same search with the IR snapshot cache on: store path, then loads."""

    name = "dse-incremental"
    preset = "small"
    ir_cache = True
    #: A few kernels' first IR snapshot stores cost seconds each (the
    #: interpreter self-check); with 8-point generations the seed decides
    #: which generation barrier waits on them, which moves cold evals/s by
    #: more than the bound.
    one_generation = True

    def check_warm(self, cold, warm) -> None:
        if frontier_view(warm) != frontier_view(cold):
            self.tally.fail("warm frontier differs from the cold frontier")
        if warm.prefix_hits != warm.num_points:
            self.tally.fail(
                f"warm phase resumed {warm.prefix_hits} of {warm.num_points} "
                "points from IR snapshots"
            )


class TvSweep(Workload):
    """Translation validation: 12 kernels x default + 4 ablation pipelines."""

    name = "tv-sweep"

    def __init__(self, seed: int, scratch: str, tally: Tally) -> None:
        super().__init__(seed, scratch, tally)
        self.handles = tv_kernels()
        self.cycle = len(self.handles)
        self.specs = [("default", DEFAULT_PIPELINE)] + [
            (mode, ablation_pipeline_spec(mode, max_parallel_factor=8))
            for mode in sorted(ABLATION_MODES)
        ]

    def validate(self, handle, label: str, spec: str) -> Tuple[Stopwatch, object]:
        """Validate one kernel under one pipeline; its timing and the report."""
        self.tally.attempted += 1
        with Stopwatch() as watch, obs.span(
            "validate_pipeline", cat="bench", workload=handle.label(), spec=label
        ):
            report = validate_pipeline(
                handle,
                spec,
                platform=TV_PLATFORM,
                seed=self.seed,
                tolerance=TV_TOLERANCES.get(handle.name, 0.0),
            )
        outcomes = report.outcomes()
        if not report.ok:
            self.tally.fail(f"{report.workload} [{label}]: {report.error}")
        elif outcomes.get("skipped-budget"):
            self.tally.fail(f"{report.workload} [{label}]: skipped-budget checks {outcomes}")
        return watch, report

    def warm_up(self) -> None:
        for handle in self.handles:
            if handle.name in ("atax", "mvt"):
                for label, spec in self.specs:
                    self.validate(handle, label, spec)

    def repetition(self, index: int, samples: Samples) -> None:
        # One item per (kernel, pipeline): short items give each one several
        # samples per run (see ``throughput`` in run.py).
        handle = self.handles[index % self.cycle]
        if index % self.cycle == 0:
            self.last = {"reports": []}
        for label, spec in self.specs:
            for phase in PHASES:
                watch, report = self.validate(handle, label, spec)
                samples[phase][f"{handle.label()} {label}"].append(watch.sample(1))
                if phase == "first":
                    self.last["reports"].append(report)


WORKLOADS = {
    cls.name: cls for cls in (ZooCompile, DseSearch, DseIncremental, TvSweep)
}


def frontier_keys(result) -> List[str]:
    return sorted(str(record.get("point_key")) for record in result.frontier)


def frontier_view(result) -> List[Tuple[str, str]]:
    """Frontier identity plus QoR, without the wall-clock compile time."""
    return sorted(
        (
            str(record.get("point_key")),
            repr(
                sorted(
                    (name, value)
                    for name, value in record.get("summary", {}).items()
                    if name != "compile_seconds"
                )
            ),
        )
        for record in result.frontier
    )


def final_hypervolume(result) -> float:
    return float(result.generations[-1]["hypervolume"]) if result.generations else 0.0


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
