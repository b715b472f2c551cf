"""Observability: work ledger, span tracing, metrics and exporters.

The four layers:

* :mod:`repro.obs.ledger` — the context-local *work ledger*: a unit of work
  reports what it did with :func:`count`, whoever wants the numbers opens a
  scope with :func:`ledger`.  Every counter of a compile goes through it.
* :mod:`repro.obs.trace` — a thread-safe hierarchical span tracer with a
  guaranteed no-op fast path when disabled (:data:`NULL_TRACER`), plus the
  context-local *active tracer* every instrumented layer traces against.  An
  enabled tracer's span is a ledger scope: its counters are what was counted
  under it.
* :mod:`repro.obs.metrics` — a registry of named counters (exact integers),
  gauges and histograms: the one place a *process-lifetime* event is counted
  (they do not go through the ledger).  Each owner holds one registry —
  ``Session.metrics`` (``repro_compiles_total{origin}``,
  ``repro_session_events_total{event}``), the result store's ``metrics``
  (``repro_store_events_total{event}``) and the compilation service's, which
  its request memo and job manager count into
  (``repro_request_memo_events_total{event}``, ``repro_jobs_total{state}``,
  requests).  An event is one counter child resolved when the owner is built
  and incremented where the event happens; ``Session.statistics``, the
  ``stats()`` methods and ``/v1/stats`` read those counters back, and
  ``/v1/metrics`` renders the three registries, with four state gauges set at
  scrape time.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  Perfetto) and flat hot-span summaries; ``python -m repro.obs report``
  prints the span tree of a trace file.

What a compile counts on the ledger, by whom, and where it shows:

==================  ==============================  ===============================  ================================
family              names                           flushed by (once per unit)       readers
==================  ==============================  ===============================  ================================
scheduling solves   ``solve_calls`` + the           ``PolyTOPSScheduler._solve``     ``solver_statistics``, the
                    ``EngineStatistics`` fields                                      ``ilp:`` diagnostic, the
                    (``solves``, ``pivots``,                                         ``ilp.solve`` span
                    ``nodes``, ``*_seconds``, ...)
Farkas elimination  ``fm_*`` (``FmStatistics``)     ``farkas_nonnegative``           ``solver_statistics``, the
                                                                                     ``ilp:`` diagnostic, the
                                                                                     ``fm.farkas`` span
emptiness probes    ``probe_<EngineStatistics>``    ``polyhedra.emptiness._probe``   ``solver_statistics`` and the
                    (``probe_solves``,              (every probe: the                ``ilp:`` diagnostic (the probes
                    ``probe_roots``,                ``Dependence`` predicates,       of the schedule stage), the
                    ``probe_pivots``, ...)          dependence analysis,             ``emptiness.probe`` span (all)
                                                    ``Polyhedron.is_empty``)
remembered answers  ``probe_verdicts_reused``,      ``Dependence.remembered``,       ``solver_statistics``, the
                    ``farkas_blocks_reused``;       ``DependenceAnalysis.run``       ``ilp:`` diagnostic, the
                    ``emptiness_probes`` (the                                        ``legality.dependence`` span;
                    levels dependence analysis                                       ``compute_dependences(...,
                    asked, remembered or solved)                                     probe_statistics=)``, the
                                                                                     ``deps.pair`` span
stage seconds       ``stage.<name>``                ``Session._run_pipeline``        job progress (``GET
                                                                                     /v1/jobs/{id}``), the
                                                                                     ``pipeline.compile`` span
==================  ==============================  ===============================  ================================

Every enclosing span of a traced run carries the same names, summed over what
ran under it.

Front doors: ``repro.pipeline.compile(..., trace=<path>)`` traces one compile,
``Session(tracer=Tracer())`` collects spans programmatically, the compilation
server's ``--trace-dir`` writes one trace file per request/job, and ``with
obs.ledger() as work:`` around any call collects its counters without a
tracer.
"""

from .export import (
    build_tree,
    format_tree,
    load_chrome_trace,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
)
from .ledger import count, ledger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    activate,
    active_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "activate",
    "active_tracer",
    "count",
    "ledger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "build_tree",
    "format_tree",
    "load_chrome_trace",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]
