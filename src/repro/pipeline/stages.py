"""Pipeline stages: the protocol and the built-in stages.

A stage is an object with a ``name`` and a ``run`` operating on a
:class:`PipelineContext`; a session's pipeline is a tuple of them.  The
built-in stages keep no state, so every session shares the objects of
:data:`DEFAULT_STAGES` and :data:`EXPERIMENT_STAGES`.  New stages —
alternative scheduling backends, tilers, validators — plug in as objects,
without editing the core:

.. code-block:: python

    class UnrollHints:
        name = "unroll-hints"
        def run(self, context):
            context.diagnostics.append("unroll the innermost loop 4x")

    session = Session(machine, stages=(*DEFAULT_STAGES, UnrollHints()))

A stage's ``name`` is part of every result key of the session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

from ..codegen.ast import Node
from ..codegen.c_writer import to_c
from ..codegen.generator import generate_ast
from ..deps.dependence import Dependence
from ..machine.cost_model import CostModel, PerformanceReport
from ..machine.machine import MachineModel
from ..model.schedule import Schedule
from ..model.scop import Scop
from ..obs import active_tracer
from ..scheduler.config import SchedulerConfig
from ..scheduler.core import SCHEDULES_REUSED, PolyTOPSScheduler, SchedulingResult
from ..scheduler.errors import ConfigurationError, SchedulingError
from ..transform.parallelism import detect_parallel_dimensions, schedule_is_legal
from ..transform.tiling import TilingSpec, compute_tiling
from ..transform.wavefront import apply_wavefront
from .fingerprint import schedule_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import Session

__all__ = [
    "PipelineContext",
    "PipelineStage",
    "DEFAULT_STAGES",
    "EXPERIMENT_STAGES",
]


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline stages of one compilation."""

    session: "Session"
    scop: Scop
    config: SchedulerConfig
    machine: MachineModel | None
    parameter_values: Mapping[str, int] | None
    label: str
    apply_wavefront_skewing: bool = True

    # Produced by the stages:
    dependences: list[Dependence] | None = None
    scheduling: SchedulingResult | None = None
    schedule: Schedule | None = None
    legal: bool | None = None
    tiling: TilingSpec | None = None
    ast: Node | None = None
    generated_c: str | None = None
    report: PerformanceReport | None = None
    failed: bool = False
    error: str | None = None
    diagnostics: list[str] = field(default_factory=list)
    stage_timings: dict[str, float] = field(default_factory=dict)


@runtime_checkable
class PipelineStage(Protocol):
    """A named pipeline stage transforming the compilation context in place."""

    name: str

    def run(self, context: PipelineContext) -> None:
        """Advance *context*: read earlier products, record this stage's own."""


def _solver_summary(statistics: Mapping[str, int | float]) -> str | None:
    """One diagnostic line summarising the solver work of a scheduling run."""
    if not statistics or "solve_calls" not in statistics:
        return None
    parts = [
        f"ilp: {statistics.get('solve_calls', 0)} solves",
        f"{statistics.get('pivots', 0)} pivots",
        f"{statistics.get('nodes', 0)} nodes ({statistics.get('grid_prunes', 0)} grid prunes)",
        f"{statistics.get('warm_start_hits', 0)} warm starts",
    ]
    generated = statistics.get("fm_rows_generated", 0)
    if generated:
        parts.append(
            f"fm: {generated} rows -> {statistics.get('fm_rows_emitted', 0)} "
            f"({statistics.get('fm_rows_pruned', 0)} pruned)"
        )
    parts.append(
        f"probes: {statistics.get('probe_solves', 0)} solves "
        f"({statistics.get('probe_roots', 0)} roots), "
        f"{statistics.get('probe_pivots', 0)} pivots"
    )
    parts.append(
        f"remembered: {statistics.get('probe_verdicts_reused', 0)} verdicts, "
        f"{statistics.get('farkas_blocks_reused', 0)} farkas blocks, "
        f"{statistics.get('ilp_solutions_reused', 0)} ilp solutions"
    )
    encode = statistics.get("encode_seconds")
    solve = statistics.get("solve_seconds")
    if isinstance(encode, (int, float)) and isinstance(solve, (int, float)):
        timing = f"encode {encode * 1e3:.1f}ms / solve {solve * 1e3:.1f}ms"
        if solve:
            # Where inside the solves the wall went (the basis linear algebra).
            shares = " ".join(
                f"{leaf} {statistics.get(leaf + '_seconds', 0.0) / solve:.0%}"
                for leaf in ("ftran", "btran", "refactor")
            )
            timing += f" ({shares})"
        parts.append(timing)
    return ", ".join(parts)


# --------------------------------------------------------------------------- #
# Built-in stages
# --------------------------------------------------------------------------- #
class DependenceStage:
    """Memory-based dependence analysis, cached per SCoP in the session."""

    name = "dependences"

    def run(self, context: PipelineContext) -> None:
        context.dependences = context.session.dependences(context.scop)


class SchedulingStage:
    """Run the PolyTOPS scheduler; fall back to the original program order.

    The scheduler schedules the session's deduplicated view of the analysis
    the context keeps (:meth:`Session.scheduling_dependences`).

    A :class:`SchedulingError` (over-constrained custom constraints or fusion
    directives) is a legitimate outcome of an experiment: the stage records
    it as a diagnostic, marks the result as failed and keeps the original
    schedule so downstream stages still produce code and numbers.  Malformed
    configurations (:class:`ConfigurationError`) are programmer errors and
    propagate — ``compile_many`` isolates them per job.
    """

    name = "schedule"

    def run(self, context: PipelineContext) -> None:
        if context.dependences is None:
            context.dependences = context.session.dependences(context.scop)
        # The run span is a ledger scope around the scheduler's own, so its
        # counters are ``CompilationResult.solver_statistics`` by construction.
        with active_tracer().span(
            "scheduler.run", category="scheduler", kernel=context.scop.name
        ) as run_span:
            try:
                scheduler = PolyTOPSScheduler(
                    context.scop,
                    context.config,
                    parameter_values=context.parameter_values,
                    session=context.session,
                )
                result = scheduler.schedule()
            except SchedulingError as error:
                context.failed = True
                context.error = f"{type(error).__name__}: {error}"
                context.diagnostics.append(
                    f"scheduling failed ({context.error}); fell back to the original program order"
                )
                result = SchedulingResult(
                    context.scop.original_schedule(), list(context.dependences), {}, True, {}
                )
            reused = result.statistics.get(SCHEDULES_REUSED, 0)
            run_span.set(SCHEDULES_REUSED, reused)
        if reused:
            context.diagnostics.append(
                f"schedule: a remembered run of this configuration ({SCHEDULES_REUSED}="
                f"{reused}); Algorithm 1 not run, its "
                f"{result.statistics.get('solve_calls', 0)} ilp solves counted again"
            )
        if result.fallback_to_original and context.error is None:
            context.failed = True
            context.diagnostics.append(
                "no profitable schedule found; the scheduler fell back to the original order"
            )
        summary = _solver_summary(result.statistics)
        if summary:
            context.diagnostics.append(summary)
        context.scheduling = result
        context.schedule = result.schedule


class PostprocessStage:
    """Parallelism detection, optional wavefront skewing, tiling when the
    configuration names tile sizes."""

    name = "postprocess"

    def run(self, context: PipelineContext) -> None:
        scheduling = context.scheduling
        schedule = context.schedule
        if schedule is None or scheduling is None:
            raise ConfigurationError("the 'postprocess' stage needs a schedule to work on")
        if not schedule.parallel_dims or len(schedule.parallel_dims) < schedule.n_dims:
            schedule.parallel_dims = detect_parallel_dimensions(
                schedule, scheduling.dependences
            )
        if context.apply_wavefront_skewing:
            schedule, _changed = apply_wavefront(schedule, scheduling.dependences)
        if context.config.tile_sizes:
            context.tiling = compute_tiling(
                schedule, scheduling.dependences, context.config.tile_sizes
            )
        context.schedule = schedule


class LegalityStage:
    """Exact legality verdict of the final schedule against the dependences.

    Remembered by the session per (schedule, tiling)
    (:func:`~repro.pipeline.fingerprint.schedule_fingerprint`): a strategy
    that reaches a schedule an earlier compile of the SCoP already checked
    takes its verdict.
    """

    name = "legality"

    def run(self, context: PipelineContext) -> None:
        if context.schedule is None or context.scheduling is None:
            raise ConfigurationError("the 'legality' stage needs a schedule to check")
        schedule, dependences = context.schedule, context.scheduling.dependences
        context.legal = context.session.remembered(
            context.scop,
            ("legality", schedule_fingerprint(schedule, context.tiling)),
            lambda: schedule_is_legal(schedule, dependences),
        )
        if not context.legal:
            context.failed = True
            context.diagnostics.append("the final schedule violates a dependence")


class CodegenStage:
    """Scanning AST construction and C code emission.

    The C text is remembered by the session per (schedule, tiling, statement
    texts): a compile that reaches a schedule an earlier one of the SCoP
    already emitted takes its text, and leaves ``context.ast`` ``None`` —
    the AST is not kept, and the evaluate stage builds its own then.
    """

    name = "codegen"

    def run(self, context: PipelineContext) -> None:
        if context.schedule is None:
            raise ConfigurationError("the 'codegen' stage needs a schedule to scan")
        scop, schedule, tiling = context.scop, context.schedule, context.tiling

        def emit() -> str:
            context.ast = generate_ast(scop, schedule, tiling)
            return to_c(scop, context.ast)

        context.generated_c = context.session.remembered(
            scop,
            (
                "codegen",
                schedule_fingerprint(schedule, tiling),
                # The one part of the SCoP the C reads that its fingerprint leaves out.
                tuple(statement.text for statement in scop.statements),
            ),
            emit,
        )


class EvaluateStage:
    """Cycle estimation on the machine model (skipped when no machine is set)."""

    name = "evaluate"

    def run(self, context: PipelineContext) -> None:
        if context.machine is None:
            context.diagnostics.append("no machine model provided; evaluation skipped")
            return
        if context.schedule is None:
            raise ConfigurationError("the 'evaluate' stage needs a schedule to simulate")
        # The codegen stage's AST scans (schedule, tiling): the emitted code
        # is the code that is costed.
        context.report = CostModel(context.machine).evaluate(
            context.scop, context.schedule, context.tiling, context.parameter_values,
            ast=context.ast,
        )


#: The full pipeline behind the one-shot :func:`repro.pipeline.compile`.
DEFAULT_STAGES: tuple[PipelineStage, ...] = (
    DependenceStage(),
    SchedulingStage(),
    PostprocessStage(),
    LegalityStage(),
    CodegenStage(),
    EvaluateStage(),
)

#: The trimmed pipeline used by the experiment drivers: no legality re-check
#: and no C emission, exactly the work the original experiment harness did.
EXPERIMENT_STAGES: tuple[PipelineStage, ...] = tuple(
    stage for stage in DEFAULT_STAGES if stage.name not in ("legality", "codegen")
)
