"""CI perf gate: compare a fresh ``BENCH_solver.json`` against the baseline.

Usage::

    python benchmarks/perf_gate.py BENCH_solver.json \
        [--baseline benchmarks/baselines/solver_baseline.json] \
        [--threshold 0.25] [--sparse-report BENCH_sparse.json] \
        [--service-report BENCH_service.json]

The checks, in decreasing order of trust:

* **work counters** (simplex pivots and branch & bound nodes on the engine
  corpus) are deterministic for a given corpus — they compare safely across
  machines and catch algorithmic regressions (a lost warm start, a broken
  prune) no matter where the job runs;
* **revised-core counters** (``basis_nnz``, ``eta_entries``) are gated with
  zero tolerance — exact integers for a fixed corpus, any increase means the
  factored basis got denser (``refactorizations`` is reported
  informationally);
* **deep-nest counters**: the same two checks, per kernel, on the scheduler
  counters of the report's ``deepnest_benchmark`` pass (``harris``, ``tc-6d``,
  ``polymage-deep`` in quick mode) — the large-basis regime the engine corpus
  never reaches; its seconds stay informational;
* **trace cross-check** (the report's ``trace_check`` section): on golden
  kernels scheduled under the span tracer, the per-solve ``ilp.solve`` span
  deltas must sum to exactly the engine's pivot/node totals and the
  ``scheduler.run`` span must carry the run statistics verbatim — any
  divergence fails the job (a span counter attached from the wrong snapshot
  window is a lie in every trace);
* **tracing-disabled overhead** (``trace_overhead``): the guarded production
  solve path must stay within 2% of the guard-free body on the quick solver
  corpus — both legs come from the same run, so this gates across machines;
* **wall time** (``engine_seconds``) only compares within the same CPU
  budget and interpreter, so it is checked **only when the report's machine
  info matches the baseline's** (same ``cpu_count``, Python
  ``major.minor``, implementation and architecture) and skipped otherwise —
  this is why ``bench_solver.py`` embeds ``machine_info()`` in the JSON.

Either check failing a >``threshold`` (default 25%) slowdown fails the job.

Overrides, both documented in the README:

* set ``PERF_GATE_SKIP=1`` in the environment (CI wires this to the
  ``skip-perf-gate`` PR label) to skip the gate entirely;
* refresh the committed baseline from a trusted run:
  ``python benchmarks/bench_solver.py --quick --output
  benchmarks/baselines/solver_baseline.json``, then
  ``python benchmarks/bench_sparse.py --quick --update-baseline`` for the
  sparse-core section (``--sparse-report`` gates ``fm_rows_emitted``,
  ``fm_rows_pruned``, the batched emptiness-probe counters and the
  strategy-sweep reuse counters — probes and Farkas linearisations executed
  by five strategies sharing one kernel's dependences — the same way
  ``tableau_rows`` is gated, with the regression direction per counter), and
  ``python benchmarks/bench_service.py --quick --update-baseline`` for the
  service section (``--service-report`` gates the compilation service's
  cache counters: hits must not drop, misses and scheduler invocations must
  not grow, and the result encodes/decodes and request decodes of the two
  warm passes must equal the baseline exactly — wall latencies and
  requests/sec stay informational).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "solver_baseline.json"

#: Metrics that are deterministic for a fixed corpus (machine-independent).
#: ``tableau_rows`` is the total root-tableau height the engine built: a
#: regression there means variable bounds are being materialised as explicit
#: rows again instead of living in the bounded-variable simplex's column
#: boxes — exactly the kind of silent slowdown wall-time noise would hide.
WORK_COUNTERS = ("pivots", "nodes", "tableau_rows")

#: Revised-core counters, gated with a **zero** tolerance: for a fixed corpus
#: the factored-basis footprint (``basis_nnz``) and the eta-file growth
#: (``eta_entries``) are exact integers, so *any* increase means the basis
#: handling got denser — there is no noise to absorb with a threshold.
#: ``refactorizations`` is reported informationally (the refresh policy is
#: free to trade refactorisations for eta growth, and re-inversion is
#: observably transparent).
REVISED_STRICT_COUNTERS = ("basis_nnz", "eta_entries")
REVISED_INFO_COUNTERS = ("refactorizations",)

#: Deterministic counters of the sparse polyhedral core, gated when a
#: ``--sparse-report`` (from ``bench_sparse.py``) is provided.  Direction
#: matters: emitted rows and emptiness probes regress *upward* (pruning or
#: probe batching broke), pruned rows regress *downward* (the redundancy
#: filters stopped firing).
#: The two ``sweep_*`` counters are the sweep-reuse gate: cholesky under the
#: five ``triangular_sweep`` strategies in one ``Session``, counting the
#: satisfaction/legality emptiness probes and the Farkas linearisations that
#: actually ran.  The dependences remember both across strategies
#: (``Dependence.is_empty_with``, ``repro.scheduler.legality``); a refactor
#: that drops the sharing multiplies them (280 and 132 without it) and fails
#: here, on counters, wherever the job runs.  They are exact integers of a
#: fixed corpus and are held to the baseline with zero tolerance.
SPARSE_LOWER_IS_BETTER = (
    "fm_rows_emitted",
    "emptiness_probes",
    "emptiness_engine_probes",
    "sweep_probes_executed",
    "sweep_farkas_linearisations",
)
SPARSE_HIGHER_IS_BETTER = ("fm_rows_pruned",)
SPARSE_STRICT = ("sweep_probes_executed", "sweep_farkas_linearisations")

#: Deterministic cache counters of the compilation service, gated when a
#: ``--service-report`` (from ``bench_service.py``) is provided.  The bench's
#: three passes over a fixed corpus fully determine them: hits regressing
#: *downward* means a cache layer stopped answering, misses or scheduler
#: invocations regressing *upward* means work the caches used to absorb is
#: being redone.
SERVICE_LOWER_IS_BETTER = ("store_misses", "scheduler_runs")
SERVICE_HIGHER_IS_BETTER = ("store_hits", "memory_hits", "store_puts")
#: What a hit costs the server, per warm pass, gated with zero tolerance: a
#: warm-memory hit encodes no result, decodes no result and decodes no
#: request; a warm-store first touch decodes its row once, to validate it.
SERVICE_EXACT = tuple(
    f"{phase}_{name}"
    for phase in ("warm_memory", "warm_store")
    for name in ("result_encodes", "result_decodes", "request_decodes")
)

#: Hard budget for the *disabled* tracing path, as a fraction of the
#: guard-free solve time on the quick solver corpus (``trace_overhead`` in
#: the report).  The span tracer's contract is a guaranteed no-op when off;
#: both legs are measured in the same run on the same host, so the ratio is
#: gated even when the baseline machine differs.
TRACE_OVERHEAD_BUDGET = 0.02


def _machine_signature(report: dict) -> tuple:
    machine = report.get("machine") or {}
    version = str(machine.get("python_version", ""))
    return (
        machine.get("cpu_count"),
        ".".join(version.split(".")[:2]),
        machine.get("python_implementation"),
        machine.get("machine"),
        machine.get("system"),
    )


def _gate_work_counters(
    label: str, current: dict, baseline: dict, threshold: float,
    failures: list[str], notes: list[str],
) -> None:
    """``WORK_COUNTERS`` of *current* against *baseline*, within *threshold*."""
    for counter in WORK_COUNTERS:
        before = baseline.get(counter)
        after = current.get(counter)
        if not before or after is None:
            notes.append(f"{label}work counter {counter!r} missing; skipped")
            continue
        ratio = after / before
        line = f"{label}{counter}: {before} -> {after} ({ratio:.2f}x)"
        if ratio > 1.0 + threshold:
            failures.append(f"work regression: {line} exceeds +{threshold:.0%}")
        else:
            notes.append(line)


def _gate_revised_counters(
    label: str, current: dict, baseline: dict,
    failures: list[str], notes: list[str],
) -> None:
    """``REVISED_STRICT_COUNTERS`` with zero tolerance, the info ones reported."""
    for counter in REVISED_STRICT_COUNTERS:
        before = baseline.get(counter)
        after = current.get(counter)
        if before is None or after is None:
            notes.append(f"{label}revised counter {counter!r} missing; skipped")
            continue
        line = f"{label}{counter}: {before} -> {after}"
        if after > before:
            failures.append(
                f"revised-core regression: {line} — the factored basis got "
                "denser (zero tolerance: these counters are exact for a "
                "fixed corpus)"
            )
        else:
            notes.append(line)
    for counter in REVISED_INFO_COUNTERS:
        before = baseline.get(counter)
        after = current.get(counter)
        if before is not None and after is not None:
            notes.append(f"{label}{counter}: {before} -> {after} (informational)")


def compare(report: dict, baseline: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Return (failures, notes) of *report* against *baseline*."""
    failures: list[str] = []
    notes: list[str] = []

    if report.get("quick") != baseline.get("quick"):
        # A silent skip here would disable the gate forever after a bad
        # baseline refresh; a corpus mismatch is a misconfiguration and
        # must be loud.
        failures.append(
            "corpus mismatch (quick=%r vs baseline quick=%r): refresh the "
            "baseline with the same bench_solver.py flags CI uses"
            % (report.get("quick"), baseline.get("quick"))
        )
        return failures, notes

    if report.get("mismatches"):
        failures.append(
            f"engine/reference mismatches in the report: {report['mismatches']}"
        )

    current_stats = report.get("engine_statistics") or {}
    baseline_stats = baseline.get("engine_statistics") or {}
    _gate_work_counters("", current_stats, baseline_stats, threshold, failures, notes)

    # The deep-nest pass is the large-basis regime (harris: bases up to 186
    # rows): its per-kernel scheduler counters are held like the corpus'.
    deepnest = report.get("deepnest_benchmark") or {}
    deepnest_baseline = (baseline.get("deepnest_benchmark") or {}).get("timings") or {}
    if deepnest:
        notes.append(
            "deepnest: %.3fs over %d kernels (seconds informational)"
            % (deepnest.get("seconds", 0.0), len(deepnest.get("kernels") or ()))
        )
        timings = deepnest.get("timings") or {}
        if sorted(timings) != sorted(deepnest_baseline):
            failures.append(
                "deepnest kernel set %s differs from the baseline's %s: refresh "
                "the baseline's 'deepnest_benchmark' section"
                % (sorted(timings), sorted(deepnest_baseline))
            )
        for kernel in sorted(set(timings) & set(deepnest_baseline)):
            current = timings[kernel].get("counters") or {}
            before = deepnest_baseline[kernel].get("counters") or {}
            label = f"deepnest {kernel} "
            _gate_work_counters(label, current, before, threshold, failures, notes)
            _gate_revised_counters(label, current, before, failures, notes)

    trace_check = report.get("trace_check") or {}
    if trace_check:
        if trace_check.get("divergences"):
            for kernel, check in (trace_check.get("checks") or {}).items():
                if not check.get("counters_match"):
                    failures.append(
                        "trace divergence on %s: span pivots/nodes/solves "
                        "(%s/%s/%s) != engine statistics (%s/%s/%s) — a span "
                        "counter is attached from the wrong snapshot window"
                        % (
                            kernel,
                            check.get("span_pivots"),
                            check.get("span_nodes"),
                            check.get("ilp_spans"),
                            check.get("engine_pivots"),
                            check.get("engine_nodes"),
                            check.get("solve_calls"),
                        )
                    )
        else:
            notes.append(
                "trace check: span counters identical to engine statistics on "
                + ", ".join(trace_check.get("kernels") or [])
            )
    trace_overhead = report.get("trace_overhead") or {}
    overhead = trace_overhead.get("overhead_fraction")
    if overhead is not None:
        # Both legs of the overhead measurement come from the same run on the
        # same host, so the ratio gates even across machines.  2% is the
        # observability layer's hard budget for the disabled path.
        line = (
            "tracing-disabled overhead: %.2f%% (direct %.3fs vs disabled %.3fs)"
            % (
                overhead * 100.0,
                trace_overhead.get("direct_seconds") or 0.0,
                trace_overhead.get("disabled_seconds") or 0.0,
            )
        )
        if overhead > TRACE_OVERHEAD_BUDGET:
            failures.append(
                f"disabled tracing is no longer free: {line} exceeds "
                f"{TRACE_OVERHEAD_BUDGET:.0%}"
            )
        else:
            notes.append(line)

    _gate_revised_counters("", current_stats, baseline_stats, failures, notes)

    if _machine_signature(report) == _machine_signature(baseline):
        before = baseline.get("engine_seconds")
        after = report.get("engine_seconds")
        if before and after is not None:
            ratio = after / before
            line = f"engine_seconds: {before:.3f}s -> {after:.3f}s ({ratio:.2f}x)"
            if ratio > 1.0 + threshold:
                failures.append(f"wall-time regression: {line} exceeds +{threshold:.0%}")
            else:
                notes.append(line)
        else:
            notes.append("engine_seconds missing; wall-time check skipped")
    else:
        notes.append(
            "machine info differs from the baseline "
            f"({_machine_signature(report)} vs {_machine_signature(baseline)}); "
            "wall-time check skipped, work counters still gated"
        )
    return failures, notes


def compare_sparse(report: dict, baseline: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Gate a ``bench_sparse.py`` report against the baseline's 'sparse' section."""
    failures: list[str] = []
    notes: list[str] = []
    section = baseline.get("sparse")
    if not section:
        # Loud, like a missing baseline file: silently skipping would turn
        # the sparse gate off forever after a bad refresh.
        failures.append(
            "baseline has no 'sparse' section; refresh it with "
            "`python benchmarks/bench_sparse.py --quick --update-baseline`"
        )
        return failures, notes
    if report.get("quick") != section.get("quick"):
        failures.append(
            "sparse corpus mismatch (quick=%r vs baseline quick=%r): refresh the "
            "baseline with the same bench_sparse.py flags CI uses"
            % (report.get("quick"), section.get("quick"))
        )
        return failures, notes
    statistics = report.get("sparse_statistics") or {}
    for counter, lower_is_better in [
        (name, True) for name in SPARSE_LOWER_IS_BETTER
    ] + [(name, False) for name in SPARSE_HIGHER_IS_BETTER]:
        before = section.get(counter)
        after = statistics.get(counter)
        if before is None or after is None:
            notes.append(f"sparse counter {counter!r} missing; skipped")
            continue
        if before == 0:
            # A zero baseline admits no ratio: any growth of a lower-is-better
            # counter is a regression (0 -> N is an infinite slowdown); a
            # higher-is-better counter cannot drop below zero.
            line = f"{counter}: {before} -> {after}"
            if lower_is_better and after > 0:
                failures.append(f"sparse-core regression: {line} grew from a zero baseline")
            else:
                notes.append(line)
            continue
        ratio = after / before
        line = f"{counter}: {before} -> {after} ({ratio:.2f}x)"
        allowed = 0.0 if counter in SPARSE_STRICT else threshold
        regressed = (
            ratio > 1.0 + allowed if lower_is_better else ratio < 1.0 - allowed
        )
        if regressed:
            failures.append(f"sparse-core regression: {line} exceeds {allowed:.0%}")
        else:
            notes.append(line)
    return failures, notes


def compare_service(report: dict, baseline: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Gate a ``bench_service.py`` report against the baseline's 'service' section."""
    failures: list[str] = []
    notes: list[str] = []
    section = baseline.get("service")
    if not section:
        # Loud, like the sparse gate: silently skipping would turn the
        # service gate off forever after a bad refresh.
        failures.append(
            "baseline has no 'service' section; refresh it with "
            "`python benchmarks/bench_service.py --quick --update-baseline`"
        )
        return failures, notes
    if report.get("quick") != section.get("quick"):
        failures.append(
            "service corpus mismatch (quick=%r vs baseline quick=%r): refresh the "
            "baseline with the same bench_service.py flags CI uses"
            % (report.get("quick"), section.get("quick"))
        )
        return failures, notes
    if report.get("mismatches"):
        failures.append(
            f"non-identical cached schedules in the service report: {report['mismatches']}"
        )
    if report.get("wrong_cache_origins"):
        failures.append(
            "compiles answered by an unexpected cache layer: "
            f"{report['wrong_cache_origins']}"
        )
    statistics = report.get("service_statistics") or {}
    for counter in SERVICE_EXACT:
        before, after = section.get(counter), statistics.get(counter)
        if before is None or after is None:
            # Loud: a missing counter would switch the hit-path gate off.
            failures.append(f"service counter {counter!r} missing from the report or baseline")
        elif after != before:
            failures.append(f"service regression: {counter}: {before} -> {after} (gated exactly)")
        else:
            notes.append(f"{counter}: {after}")
    for counter, lower_is_better in [
        (name, True) for name in SERVICE_LOWER_IS_BETTER
    ] + [(name, False) for name in SERVICE_HIGHER_IS_BETTER]:
        before = section.get(counter)
        after = statistics.get(counter)
        if before is None or after is None:
            notes.append(f"service counter {counter!r} missing; skipped")
            continue
        if before == 0:
            line = f"{counter}: {before} -> {after}"
            if lower_is_better and after > 0:
                failures.append(f"service regression: {line} grew from a zero baseline")
            else:
                notes.append(line)
            continue
        ratio = after / before
        line = f"{counter}: {before} -> {after} ({ratio:.2f}x)"
        regressed = (
            ratio > 1.0 + threshold if lower_is_better else ratio < 1.0 - threshold
        )
        if regressed:
            failures.append(f"service regression: {line} exceeds {threshold:.0%}")
        else:
            notes.append(line)
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="fresh BENCH_solver.json to check")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed slowdown fraction (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--sparse-report",
        default=None,
        help="optional BENCH_sparse.json; gates the sparse-core counters "
        "against the baseline's 'sparse' section",
    )
    parser.add_argument(
        "--service-report",
        default=None,
        help="optional BENCH_service.json; gates the compilation service's "
        "cache counters against the baseline's 'service' section",
    )
    arguments = parser.parse_args(argv)

    if os.environ.get("PERF_GATE_SKIP", "").strip().lower() in ("1", "true", "yes"):
        print("perf gate: skipped (PERF_GATE_SKIP set)")
        return 0

    baseline_path = Path(arguments.baseline)
    if not baseline_path.exists():
        # The baseline is committed to the repository; its absence means the
        # gate has been misconfigured (moved/renamed file) — failing open
        # here would silently disable regression gating while CI stays green.
        print(
            f"perf gate: FAIL — no baseline at {baseline_path}; commit one with "
            "`python benchmarks/bench_solver.py --quick --output "
            f"{baseline_path}` or set PERF_GATE_SKIP=1",
            file=sys.stderr,
        )
        return 1

    report = json.loads(Path(arguments.report).read_text())
    baseline = json.loads(baseline_path.read_text())
    failures, notes = compare(report, baseline, arguments.threshold)
    if arguments.sparse_report:
        sparse_report = json.loads(Path(arguments.sparse_report).read_text())
        sparse_failures, sparse_notes = compare_sparse(
            sparse_report, baseline, arguments.threshold
        )
        failures.extend(sparse_failures)
        notes.extend(sparse_notes)
    if arguments.service_report:
        service_report = json.loads(Path(arguments.service_report).read_text())
        service_failures, service_notes = compare_service(
            service_report, baseline, arguments.threshold
        )
        failures.extend(service_failures)
        notes.extend(service_notes)
    for note in notes:
        print(f"perf gate: {note}")
    for failure in failures:
        print(f"perf gate: FAIL — {failure}", file=sys.stderr)
    if failures:
        print(
            "perf gate: regression detected. If intentional, refresh the baseline "
            "(benchmarks/perf_gate.py docstring) or apply the 'skip-perf-gate' "
            "label / PERF_GATE_SKIP=1.",
            file=sys.stderr,
        )
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
