"""Benchmark of the HIDA reproduction: one command per workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload zoo-compile --seed 1 --seconds 24 --trace 0

``--trace 0`` measures for ``--seconds`` seconds with telemetry off and
prints every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` makes
one separate traced run and prints every per-layer metric (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when an output check fails, and exits 2 without a result
when the checkout holds no ``src/repro`` package.

All scratch state (QoR and IR caches, temp files) lives in a fresh
directory under ``.perfbench/`` that is removed on exit; traced runs keep
their Chrome trace in ``.perfbench/traces/``.
"""

from __future__ import annotations

import time

from probe import at_reference_speed, probe_seconds

#: Probe reading at the start of set-up, then the set-up clock.
SETUP_PROBE = probe_seconds()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
#: Extra set-up samples taken in child processes (plus this process's own).
SETUP_CHILDREN = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help=argparse.SUPPRESS,  # one set-up sample, printed as JSON
    )
    return parser.parse_args(argv)


def isolate(scratch: str) -> None:
    """Point every cache and temp dir of this process and its children here."""
    for name in ("tmp", "dse-cache", "ir-cache"):
        os.makedirs(os.path.join(scratch, name), exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(scratch, "tmp")
    os.environ["REPRO_DSE_CACHE"] = os.path.join(scratch, "dse-cache")
    os.environ["REPRO_IR_CACHE"] = os.path.join(scratch, "ir-cache")


def setup_sample() -> Tuple[float, float]:
    """``(seconds, probe seconds)`` of this process's set-up, ending now."""
    seconds = time.perf_counter() - START
    return seconds, (SETUP_PROBE + probe_seconds()) / 2


def child_setup_sample(args) -> Tuple[float, float]:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=CHECKOUT, capture_output=True, text=True, timeout=150, check=True
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return float(sample["seconds"]), float(sample["probe"])


def measure(workload, seconds: float):
    """Run repetitions for about ``seconds``: stop nearest to that mark.

    At least one cycle, so that every item has a sample in both phases.
    """
    from units import new_samples

    samples = new_samples()
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        workload.repetition(index, samples)
        index += 1
        took = time.perf_counter() - began
        if index >= workload.cycle and time.perf_counter() - start + took / 2 > seconds:
            return samples


def throughput(items, wall: bool = False) -> float:
    """Operations per second of one pass over every item of a phase.

    Each item contributes its mean operations per sample times its median
    seconds per operation, so a window that samples some items once more
    than others still estimates one whole pass, and a sample that met an
    odd host phase moves nothing.  Each sample's seconds are rescaled to
    the reference host speed (see ``probe.py``), or kept as wall seconds
    with ``wall``.
    """
    ops = seconds = 0.0
    for runs in items.values():
        per_sample = statistics.fmean(n for n, _, _ in runs)
        ops += per_sample
        seconds += per_sample * statistics.median(
            (t if wall else at_reference_speed(t, probe)) / n for n, t, probe in runs
        )
    return ops / seconds


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped workers.
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def declared_metrics(key: str):
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch_parent = os.path.join(CHECKOUT, ".perfbench")
    os.makedirs(scratch_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=scratch_parent)
    try:
        isolate(scratch)
        import units

        if args.workload not in units.WORKLOADS:
            print(
                f"perfbench: unknown workload {args.workload!r}; "
                f"choose from {sorted(units.WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        tally = units.Tally()
        workload = units.WORKLOADS[args.workload](args.seed, scratch, tally)
        workload.warm_up()
        setup = setup_sample()
        if args.setup_only:
            print(json.dumps({"seconds": setup[0], "probe": setup[1]}))
            return 0

        if args.trace:
            import layers

            traces = os.path.join(scratch_parent, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
            serial = args.workload in ("zoo-compile", "tv-sweep")
            values, table = layers.traced_run(workload, trace_path, serial)
            print(f"{args.workload} seed={args.seed}: unit self time by span")
            print(table)
            print(f"chrome trace: {os.path.relpath(trace_path, CHECKOUT)}")
            declared = declared_metrics("per_layer")
        else:
            setups = [setup] + [child_setup_sample(args) for _ in range(SETUP_CHILDREN)]
            samples = measure(workload, args.seconds)
            values = {
                "setup_s": statistics.median(at_reference_speed(*setup) for setup in setups),
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": throughput(samples["first"]),
                "rerun_ops_per_s": throughput(samples["rerun"]),
            }
            counts = {
                phase: sum(len(runs) for runs in items.values())
                for phase, items in samples.items()
            }
            print(
                f"{args.workload} seed={args.seed}: {counts['first']} first / "
                f"{counts['rerun']} rerun samples; wall rates "
                f"{throughput(samples['first'], wall=True):.4g} / "
                f"{throughput(samples['rerun'], wall=True):.4g} 1/s, "
                f"wall setup samples {[round(s, 3) for s, _ in setups]}"
            )
            declared = declared_metrics("end_to_end")
        if set(values) != set(declared):
            missing = sorted(set(declared) - set(values))
            extra = sorted(set(values) - set(declared))
            raise RuntimeError(f"metrics differ from BENCHMARK.json: -{missing} +{extra}")
        for problem in tally.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": declared[name]}
                for name in declared
            },
        }
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
