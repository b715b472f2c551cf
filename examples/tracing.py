"""Tracing tour: span-instrumented compiles, exports and the metrics registry.

``repro.obs`` traces the whole stack — pipeline stages, one span per
scheduling dimension, every ILP solve, Fourier–Motzkin elimination and
emptiness probe — and every span carries the work counted under it on the
work ledger.  Tracing is observational by contract: schedules are
bit-identical with it on or off, and the span counters are exactly the
``EngineStatistics`` numbers.

This example runs one traced compile and shows the four ways to look at it:
the in-process span records, the rendered span tree, a Chrome-trace JSON for
ui.perfetto.dev, and the session's process-lifetime counters in the Prometheus
format the compilation server's ``/v1/metrics`` serves.

Run with ``python examples/tracing.py``.  To trace one compile of any
script straight to a file, pass ``compile(..., trace="trace.json")``.
"""

from __future__ import annotations

from repro import pipeline
from repro.obs import Tracer, build_tree, format_tree, summarize, write_chrome_trace
from repro.scheduler.strategies import pluto_style
from repro.suites.polybench import build_kernel


def main() -> None:
    scop = build_kernel("gemm")
    config = pluto_style()

    # A Session with an explicit tracer collects spans for every compile it
    # runs.  (compile(..., trace="trace.json") is the one-shot equivalent
    # that goes straight to a file.)
    tracer = Tracer()
    session = pipeline.Session(tracer=tracer)
    result = session.compile(scop, config)
    print(f"compiled {result.kernel}: legal={result.legal}, cycles={result.cycles}")

    # 1. Raw span records: name, wall time, and the engine counters the span
    #    accumulated (pivots/nodes for ilp.solve, rows pruned for fm spans).
    records = tracer.records
    print(f"\n== {len(records)} spans ==")
    solves = [record for record in records if record.name == "ilp.solve"]
    pivots = sum(record.counters.get("pivots", 0) for record in solves)
    print(f"ilp.solve spans: {len(solves)}, total pivots {pivots}")
    engine = result.solver_statistics
    print(f"engine statistics agree: {pivots == engine['pivots']}")

    # 2. The span tree, hottest children first — the terminal flame graph.
    #    `python -m repro.obs report trace.json` prints the same view for a
    #    trace file written by any front door.
    print("\n== span tree ==")
    print(format_tree(build_tree(records), min_fraction=0.02))

    # 3. Flat per-name summary: where does the time actually go?
    print("== hot spans (self time) ==")
    totals = summarize(records)
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"])[:6]:
        print(f"  {name:<24} x{entry['count']:<4} self {entry['self_ns'] / 1e6:8.2f} ms")

    # 4. Chrome-trace JSON: drop the file into https://ui.perfetto.dev (or
    #    chrome://tracing) for the interactive timeline, one track per thread.
    write_chrome_trace(tracer, "trace_gemm.json")
    print("\nwrote trace_gemm.json — load it in ui.perfetto.dev")

    # The metrics side: the session counts where each compile's result came
    # from and its cache and codec events in its own registry, the one the
    # compilation server renders on GET /v1/metrics (`session.statistics`
    # reads the same counters).  A second compile of the kernel is a memory hit.
    session.compile(scop, config)
    print("\n== Prometheus rendering of session.metrics ==")
    print(session.metrics.render_prometheus())


if __name__ == "__main__":
    main()
