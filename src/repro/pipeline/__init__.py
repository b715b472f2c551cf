"""The unified compilation pipeline: the primary public API of the repo.

One-shot compilation of a SCoP to a structured result:

.. code-block:: python

    from repro import pipeline
    from repro.machine import intel_xeon_e5_2683

    result = pipeline.compile(scop, config, machine=intel_xeon_e5_2683())
    result.schedule        # the PolyTOPS schedule
    result.legal           # exact legality verdict
    result.generated_c     # the transformed C code
    result.report.cycles   # simulated cycles on the machine model
    result.stage_timings   # per-stage wall-clock seconds
    result.diagnostics     # fallbacks, skipped stages, ...

Sessions own cross-kernel caches (dependences and results, keyed by content
fingerprints) and compile whole suites, one failed job never aborting a batch:

.. code-block:: python

    session = pipeline.Session(machine="Intel1")
    results = session.compile_many(
        [pipeline.CompilationJob(scop, config) for scop in suite]
    )

A pipeline is a tuple of stage objects, and a new stage plugs in beside the
built-in ones: ``Session(stages=(*DEFAULT_STAGES, MyStage()))``
(:mod:`repro.pipeline.stages`).
"""

from .fingerprint import (
    config_fingerprint,
    parameter_values_key,
    result_fingerprint,
    scop_fingerprint,
)
from .result import CompilationJob, CompilationResult
from .session import (
    CacheAddress,
    CompileOutcome,
    Session,
    TextOutcome,
    compile,
    compile_many,
    default_session,
    reset_default_session,
)
from .stages import (
    DEFAULT_STAGES,
    EXPERIMENT_STAGES,
    PipelineContext,
    PipelineStage,
)

__all__ = [
    "CompilationJob",
    "CompilationResult",
    "CompileOutcome",
    "TextOutcome",
    "CacheAddress",
    "Session",
    "compile",
    "compile_many",
    "default_session",
    "reset_default_session",
    "PipelineContext",
    "PipelineStage",
    "DEFAULT_STAGES",
    "EXPERIMENT_STAGES",
    "scop_fingerprint",
    "config_fingerprint",
    "parameter_values_key",
    "result_fingerprint",
]
