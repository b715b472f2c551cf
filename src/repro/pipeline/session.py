"""Compilation sessions: shared caches, one-shot compiles and batch scheduling.

A :class:`Session` is the front door of the reproduction.  It owns the
cross-kernel caches (dependences and full compilation results, keyed by
content fingerprints, see :mod:`repro.pipeline.fingerprint`) and runs a
configurable stage pipeline (:mod:`repro.pipeline.stages`) for every compile.
Beside each SCoP's dependences it keeps the answers its compiles asked more
than once — whole scheduling runs, scheduling ILP solutions, legality
verdicts and generated C — through one path, :meth:`Session.remembered`.  A
run is kept per configuration, and per parameter values only when it read
them: a compile at fresh values under a configuration that never reads them
(``pluto_style``) runs no scheduling step.
Whole suites go through :meth:`Session.compile_many`, one job after the other
on the calling thread, a failing job captured instead of aborting the batch.
A session is thread-safe — the compilation server and its job pool compile on
several threads against one session — but starts no thread itself.

The module-level :func:`compile` / :func:`compile_many` helpers operate on a
shared default session, so repeated one-shot calls still benefit from the
caches.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from ..deps.dependence import Dependence
from ..machine.machine import MachineModel, machine_by_name
from ..model.scop import Scop
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, activate, count, write_chrome_trace
from ..polyhedra.emptiness import probe_scope
from ..scheduler.baselines import Baseline
from ..scheduler.config import SchedulerConfig
from ..scheduler.strategies import pluto_style
from .fingerprint import parts_fingerprint, result_parts, scop_fingerprint
from .result import CachedResult, CompilationJob, CompilationResult
from .stages import DEFAULT_STAGES, PipelineContext, PipelineStage

__all__ = [
    "CacheAddress",
    "CompileOutcome",
    "Session",
    "TextOutcome",
    "compile",
    "compile_many",
    "default_session",
    "reset_default_session",
]

#: The session events besides the three lookup outcomes, in ``statistics`` order.
_SESSION_EVENTS = (
    "dependence_hits",
    "dependence_misses",
    "reuse_hits",
    "reuse_misses",
    "reuse_evictions",
    "store_misses",
    "store_puts",
    "store_skips",
    "result_encodes",
    "result_decodes",
)


#: How many answers :meth:`Session.remembered` keeps per SCoP; past it the
#: least recently used one goes.  The five strategies of a suite kernel keep
#: 25-37 between them (six of them scheduling runs: ``bigLoopsFirst`` reads
#: the parameter values, so its run is kept as a marker plus one entry per
#: value set).  The answers a long-lived server is asked for are not bounded
#: otherwise: every configuration a client sends (bounds, custom
#: constraints, node limits) asks a new run and new ILPs, and every value set
#: asks a new run of a configuration that reads the values.
REMEMBERED_PER_SCOP = 128

_T = TypeVar("_T")


def _result_key(scop, config, machine, parameter_values, knobs) -> tuple:
    """The in-memory key of one result: its :func:`result_parts` (whose
    fingerprint is the store's key) plus the strategy callback, the dynamic
    part no content fingerprint can see."""
    parts = result_parts(scop, config, machine, parameter_values, knobs)
    return (parts, config.strategy_callback)


class _Analysis(NamedTuple):
    """The dependences of one SCoP and the view its scheduler constrains."""

    dependences: list[Dependence]
    scheduled: list[Dependence]


class CompileOutcome(NamedTuple):
    """A compilation result plus where it came from.

    ``origin`` is ``"memory"`` (session result cache), ``"store"``
    (persistent result store — the scheduler was *not* invoked) or ``"miss"``
    (the pipeline ran).  ``fingerprint`` is the persistent-store key of the
    result, or ``None`` when the compile is not storable (no store attached,
    or a configuration with a dynamic strategy callback that no content
    fingerprint can capture).
    """

    result: CompilationResult
    origin: str
    fingerprint: str | None


class CacheAddress(NamedTuple):
    """What a compile request resolves to: where its result is cached.

    ``key`` addresses the session's in-memory cache and ``fingerprint`` the
    persistent store (``None``: not storable); ``label`` is the configuration
    label the caller wants the result reported under.  ``settings`` are the
    mutable session settings the key was derived from — an address is only
    good while they stand (:meth:`Session.recall_text` checks).
    """

    key: tuple
    label: str
    fingerprint: str | None
    settings: tuple


class TextOutcome(NamedTuple):
    """:class:`CompileOutcome` with the result as JSON text (``to_json()``)."""

    text: str
    origin: str
    address: CacheAddress


class Session:
    """A compilation session with cross-kernel caches and batch scheduling.

    Parameters
    ----------
    machine:
        Default machine model (or its name) used by the ``evaluate`` stage
        when a compile does not name one; ``None`` skips evaluation.
    stages:
        The pipeline, as :class:`PipelineStage` objects (anything else is a
        :class:`TypeError`).
    apply_wavefront_skewing:
        Whether post-processing may skew a band into a wavefront (tiling is
        asked for per configuration: ``SchedulerConfig.tile_sizes``).
    store:
        Optional persistent result store (:class:`repro.service.store.ResultStore`).
        Results are shared through it across sessions, processes and
        restarts: a cross-process hit returns the stored schedule without
        invoking the scheduler at all.
    tracer:
        Optional :class:`repro.obs.Tracer` collecting hierarchical spans of
        every pipeline run (stages, scheduler dimensions, ILP solves, FM and
        emptiness probes); ``None`` disables tracing at a guaranteed no-op
        cost.  Tracing never changes compile results — schedules are
        bit-identical with tracing on and off.

    Every finished stage of a pipeline run is counted on the work ledger as
    ``stage.<name>`` seconds (:mod:`repro.obs.ledger`): a caller that wants
    live per-stage progress opens a scope around the compile, as the
    compilation server's jobs do.
    """

    def __init__(
        self,
        machine: MachineModel | str | None = None,
        *,
        stages: Sequence[PipelineStage] = DEFAULT_STAGES,
        apply_wavefront_skewing: bool = True,
        store=None,
        tracer: Tracer | None = None,
    ):
        self.machine = machine_by_name(machine) if isinstance(machine, str) else machine
        self.stages: tuple[PipelineStage, ...] = tuple(stages)
        for stage in self.stages:
            if not isinstance(stage, PipelineStage):
                raise TypeError(
                    f"{stage!r} is not a pipeline stage (an object with a name and a run)"
                )
        self.apply_wavefront_skewing = apply_wavefront_skewing
        self.store = store
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Per SCoP fingerprint: its dependence analysis.
        self._analyses: dict[str, _Analysis] = {}
        #: Per SCoP fingerprint: the answers of :meth:`remembered`, least
        #: recently used first.
        self._answers: dict[str, OrderedDict[Hashable, object]] = {}
        self._results: dict[tuple, CachedResult] = {}
        self._lock = threading.RLock()
        #: The session's process-lifetime counters: where each compile's result
        #: came from, and the other cache, store and codec events.  Each event
        #: is one pre-resolved child, incremented where it happens;
        #: :attr:`statistics` reads them back under their historical names.
        self.metrics = MetricsRegistry()
        origins = self.metrics.counter(
            "repro_compiles_total",
            "Compiles asked of the session, by where the result came from.",
        )
        self._memory_hits = origins.labels(origin="memory")
        self._store_hits = origins.labels(origin="store")
        self._misses = origins.labels(origin="miss")
        events = self.metrics.counter(
            "repro_session_events_total",
            "Dependence cache, persistent store and result codec events of the session.",
        )
        self._events = {event: events.labels(event=event) for event in _SESSION_EVENTS}

    @property
    def statistics(self) -> dict[str, int]:
        """The counters of :attr:`metrics` by name, as ``/v1/stats`` reports them.

        ``result_hits == memory_hits + store_hits``; ``store_skips`` counts
        compiles that could not use the attached store (dynamic strategy
        callback); ``result_encodes`` / ``result_decodes`` are the crossings
        between a cached result's object and its JSON text (neither moves on a
        repeated request).  ``reuse_hits`` / ``reuse_misses`` /
        ``reuse_evictions`` are the answers of :meth:`remembered` found, stored
        and dropped at the cap.
        """
        memory, store = self._memory_hits.value, self._store_hits.value
        events = {event: counter.value for event, counter in self._events.items()}
        return {
            "dependence_hits": events.pop("dependence_hits"),
            "dependence_misses": events.pop("dependence_misses"),
            "result_hits": memory + store,
            "result_misses": self._misses.value,
            "memory_hits": memory,
            "store_hits": store,
            **events,
        }

    # ------------------------------------------------------------------ #
    # Cached dependence analysis
    # ------------------------------------------------------------------ #
    def dependences(self, scop: Scop) -> list[Dependence]:
        """The dependences of *scop*, computed once per structural fingerprint
        and counted as a ``dependence_hits`` or ``dependence_misses``."""
        return self._analysis(scop, counted=True).dependences

    def scheduling_dependences(self, scop: Scop) -> list[Dependence]:
        """The view of :meth:`dependences` a scheduler with this session
        schedules: one representative per (source, target, polyhedron),
        deduplicated once, when the analysis is stored.  Asking for it counts
        no dependence hit (the compile asking already counted one); an
        analysis it has to run counts its miss."""
        return self._analysis(scop, counted=False).scheduled

    def _analysis(self, scop: Scop, counted: bool) -> _Analysis:
        """The stored analysis of *scop*, run and stored on first ask; an
        analysis found counts a hit when *counted*."""
        from ..deps.analysis import compute_dependences, deduplicate_dependences

        fingerprint = scop_fingerprint(scop)
        with self._lock:
            analysis = self._analyses.get(fingerprint)
            if analysis is not None:
                if counted:
                    self._events["dependence_hits"].inc()
                return analysis
        # Compute outside the lock so threads compiling distinct kernels do
        # not wait on each other; a duplicated analysis of the same kernel is
        # resolved by keeping the first stored one.
        dependences = compute_dependences(scop)
        analysis = _Analysis(dependences, deduplicate_dependences(dependences))
        with self._lock:
            if fingerprint not in self._analyses:
                self._events["dependence_misses"].inc()
                self._analyses[fingerprint] = analysis
            elif counted:
                self._events["dependence_hits"].inc()
            return self._analyses[fingerprint]

    def remembered(self, scop: Scop, key: Hashable, compute: Callable[[], _T]) -> _T:
        """The answer *compute* gives for *key* on *scop*, computed once.

        The one reuse path of a session below whole results: the scheduler's
        runs and ILP solutions, the legality verdicts and the generated C of
        every compile of a SCoP go through it, keyed on what the answer is a
        function of (see the callers).  The answers are kept per structural
        SCoP fingerprint, beside its dependences, at most
        :data:`REMEMBERED_PER_SCOP` of them, least recently used dropped
        first.  Like :meth:`dependences`: looked up under the lock, computed
        outside it, the first stored answer kept.  An exception of *compute*
        propagates and stores nothing.
        """
        fingerprint = scop_fingerprint(scop)
        with self._lock:
            answers = self._answers.get(fingerprint)
            if answers is not None and key in answers:
                answers.move_to_end(key)
                self._events["reuse_hits"].inc()
                return answers[key]
        value = compute()
        with self._lock:
            answers = self._answers.setdefault(fingerprint, OrderedDict())
            if key in answers:
                self._events["reuse_hits"].inc()
                return answers[key]
            self._events["reuse_misses"].inc()
            answers[key] = value
            if len(answers) > REMEMBERED_PER_SCOP:
                answers.popitem(last=False)
                self._events["reuse_evictions"].inc()
            return value

    # ------------------------------------------------------------------ #
    # One-shot compilation
    # ------------------------------------------------------------------ #
    def compile(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str | None = None,
        trace: str | None = None,
    ) -> CompilationResult:
        """Run the full pipeline on (*scop*, *config*) and return the result.

        Results are memoised: a second compile of the same SCoP with an
        equivalent configuration (same serialised content, same machine, same
        parameter values) returns the cached :class:`CompilationResult`.

        The solver's :class:`~repro.ilp.options.SolverOptions` are part of
        the configuration (``config.solver_options``, the one way in) — and
        therefore of the result cache key: compiles under different options
        are cached independently.

        ``trace`` records this compile's span tree with a dedicated tracer
        and writes the Chrome-trace JSON (loadable in Perfetto) to the given
        path — independent of the session tracer.
        """
        return self.compile_with_origin(
            scop, config, machine, parameter_values, label, trace=trace
        ).result

    def compile_with_origin(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str | None = None,
        trace: str | None = None,
    ) -> CompileOutcome:
        """Like :meth:`compile`, also reporting where the result came from.

        The lookup order is: in-memory session cache, then the persistent
        result store (when one is attached and the configuration has no
        dynamic strategy callback), then a full pipeline run.  A store hit is
        inserted into the in-memory cache, so it is paid at most once per
        fingerprint per session.
        """
        entry, origin, address = self._compile_entry(
            scop, config, machine, parameter_values, label, trace
        )
        result = self._result_of(entry)
        if origin == "store":
            result.diagnostics.append(
                f"cache: persistent store hit ({address.fingerprint[:12]}); "
                "scheduler not invoked"
            )
        return CompileOutcome(result, origin, address.fingerprint)

    def compile_text(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str | None = None,
        trace: str | None = None,
    ) -> TextOutcome:
        """Like :meth:`compile_with_origin`, with the result as JSON text.

        The same lookup; what differs is the form asked of the cache entry.
        A hit hands back the text the entry already holds — on a store hit the
        row itself, afterwards the very ``str`` the store's front keeps —
        without building a :class:`CompilationResult` or a dictionary.
        """
        entry, origin, address = self._compile_entry(
            scop, config, machine, parameter_values, label, trace
        )
        return TextOutcome(self._text_of(entry), origin, address)

    def recall_text(self, address: CacheAddress) -> str | None:
        """The text of the in-memory entry at *address* (a ``"memory"`` hit),
        or ``None`` when the session's settings changed since the address was
        resolved or the entry is gone — resolve the request again then."""
        if address.settings != self._settings():
            return None
        entry = self._memory_entry(address)
        return self._text_of(entry) if entry is not None else None

    def _compile_entry(
        self,
        scop: Scop,
        config: SchedulerConfig | None,
        machine: MachineModel | str | None,
        parameter_values: Mapping[str, int] | None,
        label: str | None,
        trace: str | None,
    ) -> tuple[CachedResult, str, CacheAddress]:
        """The one lookup: memory, then store, then the pipeline."""
        config = config if config is not None else pluto_style()
        machine = self._resolve_machine(machine)
        label = label or config.name
        # One tuple of parts names the result in both caches, so nothing a
        # result depends on can be in one key and missing from the other.
        # Keying memory on the callback object itself also keeps it alive, so
        # the key can never collide with a recycled id().  The settings are
        # read once: the key and the address's guard come from the same stage
        # tuple.
        settings = self._settings()
        key = _result_key(scop, config, machine, parameter_values, settings[0])
        storable = self.store is not None and config.strategy_callback is None
        fingerprint = parts_fingerprint(key[0]) if storable else None
        address = CacheAddress(key, label, fingerprint, settings)
        entry = self._memory_entry(address)
        if entry is not None:
            return entry, "memory", address
        if storable:
            stored = self.store.fetch(fingerprint)
            if stored is not None:
                self._store_hits.inc()
                if stored.result is not None:  # the store's validating decode
                    self._events["result_decodes"].inc()
                with self._lock:
                    base = self._results.setdefault(key, stored)
                    return self._labeled(key, base, label), "store", address
        self._misses.inc()
        if storable:
            self._events["store_misses"].inc()
        elif self.store is not None:
            self._events["store_skips"].inc()
        run_tracer = Tracer() if trace is not None else None
        result = self._run_pipeline(
            scop, config, machine, parameter_values, label, tracer=run_tracer
        )
        if trace is not None:
            write_chrome_trace(run_tracer, trace)
        result.diagnostics.append(
            f"cache: miss (session memory_hits={self._memory_hits.value} "
            f"store_hits={self._store_hits.value} misses={self._misses.value})"
        )
        text = None
        if storable and not result.failed:
            # Failed results (over-constrained configs, illegal schedules)
            # are kept out of the shared store: they are cheap to reproduce
            # and poisoning other clients with them helps nobody.
            text = self.store.put(fingerprint, result)
            self._events["store_puts"].inc()
            self._events["result_encodes"].inc()
        with self._lock:
            # Another thread may have raced us to the same key; keep one winner
            # so repeated compiles keep returning the identical object.
            base = self._results.setdefault(key, CachedResult(result, text, label))
            return self._labeled(key, base, label), "miss", address

    def compile_best(
        self,
        scop: Scop,
        configs: Iterable[SchedulerConfig],
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str = "best",
    ) -> CompilationResult:
        """Compile every candidate and keep the fastest (the paper's 'best of')."""
        configs = list(configs)
        if not configs:
            raise ValueError("compile_best needs at least one configuration")
        machine = self._resolve_machine(machine)
        knobs = self._knobs()
        # The best of the candidates is a function of the candidates' results.
        alias = (
            "best-of",
            tuple(
                _result_key(scop, config, machine, parameter_values, knobs)
                for config in configs
            ),
            label,
        )
        with self._lock:
            cached = self._results.get(alias)
            if cached is not None:
                self._memory_hits.inc()
                return cached.result
        best: CompilationResult | None = None
        for config in configs:
            result = self.compile(scop, config, machine, parameter_values)
            if result.cycles is None:
                raise ValueError(
                    "compile_best needs an evaluating pipeline (machine model set)"
                )
            if best is None or result.cycles < best.cycles:
                best = result
        assert best is not None
        relabeled = CachedResult(best.relabeled(label), None, label)
        with self._lock:
            return self._results.setdefault(alias, relabeled).result

    def compile_baseline(
        self,
        scop: Scop,
        baseline: Baseline,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
    ) -> CompilationResult:
        """Compile a baseline scheduler (best over its candidate configurations)."""
        return self.compile_best(
            scop, baseline.configs(), machine, parameter_values, label=baseline.name
        )

    # ------------------------------------------------------------------ #
    # Batch scheduling
    # ------------------------------------------------------------------ #
    def compile_many(
        self, jobs: Iterable[CompilationJob | Scop | tuple]
    ) -> list[CompilationResult]:
        """Compile a batch of jobs in order, one result per job.

        A job is a :class:`CompilationJob`, a bare :class:`Scop` or a tuple of
        ``CompilationJob`` arguments.  Failures of individual jobs are
        captured as failed :class:`CompilationResult` entries instead of
        aborting the whole batch.
        """
        normalized = [self._as_job(job) for job in jobs]
        return [self._compile_job(job) for job in normalized]

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every cached dependence set, remembered answer and
        compilation result."""
        with self._lock:
            self._analyses.clear()
            self._answers.clear()
            self._results.clear()

    @property
    def cached_results(self) -> int:
        return len(self._results)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _resolve_machine(
        self, machine: MachineModel | str | None
    ) -> MachineModel | None:
        if machine is None:
            return self.machine
        if isinstance(machine, str):
            return machine_by_name(machine)
        return machine

    def _knobs(self) -> tuple:
        """What the session itself decides about a result: the skewing switch
        and which stages run.  Both are mutable state read at compile time;
        keying on them keeps a mutated session, or another session on the same
        store, from serving results computed under other settings."""
        return (self.apply_wavefront_skewing, tuple(stage.name for stage in self.stages))

    def _settings(self) -> tuple:
        """Everything mutable on the session that a result key is derived from:
        the knobs, then the default machine."""
        return (self._knobs(), self.machine)

    def _memory_entry(self, address: CacheAddress) -> CachedResult | None:
        """The first step of the lookup: the in-memory entry, counted as a hit."""
        with self._lock:
            base = self._results.get(address.key)
            if base is None:
                return None
            self._memory_hits.inc()
            return self._labeled(address.key, base, address.label)

    def _labeled(self, key: tuple, base: CachedResult, label: str) -> CachedResult:
        """Intern *base* under *label*: the display label must not force a
        pipeline re-run, only a relabeled view of the cached result (lock held)."""
        if base.label == label:
            return base
        alias = (key, label)
        if alias not in self._results:
            self._results[alias] = CachedResult(
                self._result_of(base).relabeled(label), None, label
            )
        return self._results[alias]

    def _result_of(self, entry: CachedResult) -> CompilationResult:
        """The entry's object, decoded from its text on first ask."""
        with self._lock:
            if entry.result is None:
                entry.result = CompilationResult.from_json(entry.text)
                self._events["result_decodes"].inc()
            return entry.result

    def _text_of(self, entry: CachedResult) -> str:
        """The entry's JSON text, encoded from its object on first ask."""
        with self._lock:
            if entry.text is None:
                entry.text = entry.result.to_json()
                self._events["result_encodes"].inc()
            return entry.text

    def _run_pipeline(
        self,
        scop: Scop,
        config: SchedulerConfig,
        machine: MachineModel | None,
        parameter_values: Mapping[str, int] | None,
        label: str,
        tracer: Tracer | None = None,
    ) -> CompilationResult:
        context = PipelineContext(
            session=self,
            scop=scop,
            config=config,
            machine=machine,
            parameter_values=parameter_values,
            label=label,
            apply_wavefront_skewing=self.apply_wavefront_skewing,
        )
        tracer = tracer if tracer is not None else self.tracer
        # The tracer is activated here, on the thread actually running the
        # pipeline: a context variable set by whoever owns the session is not
        # seen by the server's handler and job threads.  The probe scope keeps
        # one emptiness root per dependence for this compile's stages.
        with activate(tracer), probe_scope(), tracer.span(
            "pipeline.compile", category="pipeline", kernel=scop.name, label=label
        ) as compile_span:
            for stage in self.stages:
                with tracer.span(f"stage.{stage.name}", category="stage"):
                    start = time.perf_counter()
                    stage.run(context)
                    seconds = time.perf_counter() - start
                context.stage_timings[stage.name] = seconds
                count(f"stage.{stage.name}", seconds)
            compile_span.set("failed", context.failed)
        if context.schedule is None:
            context.schedule = scop.original_schedule()
            context.diagnostics.append(
                "no scheduling stage in the pipeline; reporting the original schedule"
            )
        return CompilationResult(
            kernel=scop.name,
            configuration=label,
            machine=machine.name if machine else None,
            schedule=context.schedule,
            scheduling=context.scheduling,
            dependences=list(context.dependences or ()),
            legal=context.legal,
            tiling=context.tiling,
            generated_c=context.generated_c,
            report=context.report,
            cycles=context.report.cycles if context.report is not None else None,
            stage_timings=dict(context.stage_timings),
            diagnostics=list(context.diagnostics),
            failed=context.failed,
            error=context.error,
        )

    def _as_job(self, job: CompilationJob | Scop | tuple) -> CompilationJob:
        if isinstance(job, CompilationJob):
            return job
        if isinstance(job, Scop):
            return CompilationJob(scop=job)
        if isinstance(job, tuple):
            return CompilationJob(*job)
        raise TypeError(
            f"cannot interpret {job!r} as a compilation job "
            "(expected CompilationJob, Scop or tuple)"
        )

    def _compile_job(self, job: CompilationJob) -> CompilationResult:
        try:
            return self.compile(
                job.scop, job.config, job.machine, job.parameter_values, job.label
            )
        except Exception as error:  # batch mode: isolate per-job failures
            config = job.config if job.config is not None else pluto_style()
            machine = self._resolve_machine(job.machine)
            return CompilationResult(
                kernel=job.scop.name,
                configuration=job.label or config.name,
                machine=machine.name if machine else None,
                schedule=job.scop.original_schedule(),
                scheduling=None,
                failed=True,
                error=f"{type(error).__name__}: {error}",
                diagnostics=[f"job failed: {type(error).__name__}: {error}"],
            )


# --------------------------------------------------------------------------- #
# Module-level front door (shared default session)
# --------------------------------------------------------------------------- #
_default_session: Session | None = None
_default_lock = threading.Lock()


def default_session() -> Session:
    """The process-wide session backing the module-level helpers."""
    global _default_session
    with _default_lock:
        if _default_session is None:
            _default_session = Session()
        return _default_session


def reset_default_session() -> None:
    """Drop the shared default session (mainly for tests)."""
    global _default_session
    with _default_lock:
        _default_session = None


def compile(
    scop: Scop,
    config: SchedulerConfig | None = None,
    machine: MachineModel | str | None = None,
    parameter_values: Mapping[str, int] | None = None,
    label: str | None = None,
    trace: str | None = None,
) -> CompilationResult:
    """One-shot compilation through the shared default session.

    Runs dependence analysis, scheduling, post-processing, the legality
    check, code generation and (when *machine* is given) cycle estimation,
    returning a structured :class:`CompilationResult`.  The solver's one
    knob, ``node_limit``, is asked for on the configuration
    (``config.solver_options``, see :mod:`repro.ilp.options`).

    The shared session memoises every result for the lifetime of the
    process; long-running callers compiling many distinct kernels should
    either use their own :class:`Session` or periodically call
    ``default_session().clear()`` / :func:`reset_default_session`.
    """
    return default_session().compile(
        scop, config, machine, parameter_values, label, trace=trace
    )


def compile_many(jobs: Iterable[CompilationJob | Scop | tuple]) -> list[CompilationResult]:
    """Batch compilation through the shared default session."""
    return default_session().compile_many(jobs)
