"""repro.compiler — the composable compilation front door.

The one way to configure and run a compile is a textual pipeline spec,
in three layers:

* :mod:`repro.compiler.spec` — MLIR-style textual pipeline specs
  (``"construct-dataflow,fuse-tasks{patterns=elementwise,init},..."``),
  round-trippable through parse/print and content-hashable for the QoR
  cache;
* :mod:`repro.compiler.stages` — the :class:`CompilationStage` protocol, a
  global stage registry, and the Figure-3 phases registered by name with
  typed per-stage options;
* :mod:`repro.compiler.driver` — the :class:`Compiler` object
  (``Compiler.from_spec(spec, platform=...)``, ``.run(module)``) with
  observer hooks for per-stage IR snapshots, timings and structured
  diagnostics.

``python -m repro.compiler`` exposes the same front door on the command
line (``--print-default-pipeline``, ``--list-stages``, ``--spec``).

Quickstart::

    from repro.compiler import Compiler
    from repro.frontend.cpp import build_kernel

    compiler = Compiler.from_spec(
        "construct-dataflow,lower-structural,balance,"
        "parallelize{factor=16},estimate",
        platform="zu3eg",
    )
    result = compiler.run(build_kernel("2mm"))
    print(compiler.spec_text(), result.summary())
"""

from .driver import (
    DEFAULT_PIPELINE,
    Compiler,
    DiagnosticsObserver,
    PipelineObserver,
    SnapshotObserver,
    TimingObserver,
    default_pipeline_spec,
)
from .spec import PipelineSpec, PipelineSpecError, StageSpec, parse_pipeline
from .stages import (
    CompilationStage,
    CompilationState,
    Diagnostic,
    StageOption,
    available_stages,
    build_stages,
    get_stage_class,
    register_stage,
    stage_registry,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "Compiler",
    "DiagnosticsObserver",
    "PipelineObserver",
    "SnapshotObserver",
    "TimingObserver",
    "default_pipeline_spec",
    "PipelineSpec",
    "PipelineSpecError",
    "StageSpec",
    "parse_pipeline",
    "CompilationStage",
    "CompilationState",
    "Diagnostic",
    "StageOption",
    "available_stages",
    "build_stages",
    "get_stage_class",
    "register_stage",
    "stage_registry",
]
