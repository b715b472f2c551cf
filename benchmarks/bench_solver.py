"""Microbenchmark of the ILP solver stack: the engine vs. its reference.

Two usage modes:

* ``pytest benchmarks/bench_solver.py --benchmark-only`` — times the
  incremental engine on the problem corpus and differentially checks every
  answer against the reference ``solve_lexicographic``.
* ``PYTHONPATH=src python benchmarks/bench_solver.py [--quick] [--output
  BENCH_solver.json]`` — standalone script (no pytest plugins needed) that
  times both and writes a JSON artifact, giving CI a perf trajectory across
  PRs.

The corpus mixes synthetic scheduler-shaped MILPs (bounded integer variables,
mixed-sense rows, one or two lexicographic objectives) with the *real*
per-dimension problems of a few PolyBench kernels, captured by running the
PolyTOPS scheduler with an instrumented solver.

The emitted ``engine_statistics`` include the bounded-variable simplex
counters — ``tableau_rows`` (total root tableau height built),
``bound_flips`` and ``rows_saved`` — which ``benchmarks/perf_gate.py`` gates
against the committed baseline: a change that re-materialises variable
bounds as explicit rows shows up as a ``tableau_rows`` regression even when
wall time is too noisy to notice.  The revised-core counters ride along:
``basis_nnz`` (non-zeros stored by the factored bases), ``eta_entries``
(update-file growth) and ``refactorizations``; the gate fails on *any*
``basis_nnz``/``eta_entries`` increase.

Every run also times a scheduling pass over the deep-nest corpus — the regime
the revised simplex exists for — and records each kernel's scheduler counters,
which the gate holds to the baseline with the same tolerances.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ilp import IlpSolver, LinearProblem, solve_lexicographic
from repro.ilp.engine import IncrementalIlpEngine


def machine_info() -> dict:
    """The host facts the CI perf gate needs to rule out apples-vs-oranges.

    Wall-clock numbers only compare safely between hosts with the same CPU
    budget and interpreter; the gate skips its timing check (and keeps the
    machine-independent work-counter check) when these differ.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def synthetic_problems(count: int, seed: int = 20260730) -> list[LinearProblem]:
    """Random scheduler-shaped MILPs (bounded integers, mixed senses)."""
    rng = random.Random(seed)
    problems: list[LinearProblem] = []
    for _ in range(count):
        problem = LinearProblem()
        n = rng.randint(3, 8)
        names = [f"x{i}" for i in range(n)]
        for name in names:
            problem.add_variable(name, 0, rng.randint(2, 8))
        for _ in range(rng.randint(2, 2 * n)):
            coefficients = {
                name: rng.randint(-3, 3)
                for name in rng.sample(names, rng.randint(1, n))
            }
            coefficients = {k: v for k, v in coefficients.items() if v}
            if not coefficients:
                continue
            problem.add_constraint(
                coefficients, rng.choice([">=", "<=", "=="]), rng.randint(-4, 10)
            )
        for _ in range(rng.randint(1, 2)):
            objective = {name: rng.randint(-3, 3) for name in names}
            objective = {k: v for k, v in objective.items() if v}
            if objective:
                problem.add_objective(objective)
        problems.append(problem)
    return problems


def scheduler_problems(quick: bool) -> list[LinearProblem]:
    """The real per-dimension ILPs of a few PolyBench kernels."""
    from repro.scheduler.core import PolyTOPSScheduler
    from repro.scheduler.solver_context import SolverContext
    from repro.suites.polybench.blas import gemm, gemver
    from repro.suites.polybench.stencils import jacobi_2d

    scops = [gemm(8, 8, 8), jacobi_2d(8, 4)]
    if not quick:
        scops.append(gemver(10))

    captured: list[LinearProblem] = []
    original_solve = SolverContext.solve

    def capturing_solve(self, problem):
        captured.append(problem.copy())
        return original_solve(self, problem)

    SolverContext.solve = capturing_solve
    try:
        for scop in scops:
            PolyTOPSScheduler(scop).schedule()
    finally:
        SolverContext.solve = original_solve
    return captured


def _solve_all(problems: list[LinearProblem]) -> tuple[float, list, IlpSolver]:
    solver = IlpSolver()
    started = time.perf_counter()
    solutions = [solver.solve(problem) for problem in problems]
    return time.perf_counter() - started, solutions, solver


def run(quick: bool = False) -> dict:
    """Time the engine and the reference solver over the corpus and compare.

    ``engine_seconds``/``engine_statistics`` are the engine's; every answer
    (verdict and lexicographic objective values) is checked against the
    reference ``solve_lexicographic``.
    """
    problems = synthetic_problems(12 if quick else 60) + scheduler_problems(quick)
    engine_seconds, engine_solutions, engine_solver = _solve_all(problems)
    started = time.perf_counter()
    oracle_solutions = [solve_lexicographic(problem) for problem in problems]
    oracle_seconds = time.perf_counter() - started

    mismatches = 0
    for a, b in zip(engine_solutions, oracle_solutions):
        if (a is None) != (b is None):
            mismatches += 1
        elif a is not None and a.objective_values != b.objective_values:
            mismatches += 1

    return {
        "problems": len(problems),
        "quick": quick,
        "machine": machine_info(),
        "engine_seconds": engine_seconds,
        "oracle_seconds": oracle_seconds,
        "speedup_vs_oracle": (oracle_seconds / engine_seconds)
        if engine_seconds
        else None,
        "mismatches": mismatches,
        "engine_statistics": engine_solver.statistics_summary(),
    }


#: Scheduler counters recorded per deep-nest kernel; ``perf_gate.py`` holds
#: them to the baseline like the engine corpus' (its ``WORK_COUNTERS`` and
#: ``REVISED_STRICT_COUNTERS``; ``refactorizations`` rides along).
DEEPNEST_COUNTERS = (
    "pivots", "nodes", "tableau_rows", "basis_nnz", "eta_entries", "refactorizations",
)


def run_deepnest(quick: bool = False) -> dict:
    """Time a scheduling pass over the deep-nest corpus and count its work.

    This is the corpus the revised core exists for: 5-7 deep nests and the
    ``harris`` pipeline (bases up to 186 rows), whose tableaus would be wide
    and nearly empty.  The schedules themselves are pinned by
    ``tests/golden/deepnest_schedules.json``.
    """
    from repro.scheduler.core import PolyTOPSScheduler
    from repro.scheduler.strategies import pluto_style
    from repro.suites.deepnest import build_deepnest, deepnest_names
    from repro.suites.polymage import build_pipeline

    kernels = (
        ("harris", "tc-6d", "polymage-deep")
        if quick
        else (*deepnest_names(), "harris")
    )
    timings: dict[str, dict] = {}
    for kernel in kernels:
        scop = build_pipeline(kernel) if kernel == "harris" else build_deepnest(kernel)
        started = time.perf_counter()
        result = PolyTOPSScheduler(scop, pluto_style()).schedule()
        timings[kernel] = {
            "seconds": time.perf_counter() - started,
            "counters": {name: result.statistics[name] for name in DEEPNEST_COUNTERS},
        }
    return {
        "quick": quick,
        "kernels": list(kernels),
        "timings": timings,
        "seconds": sum(timing["seconds"] for timing in timings.values()),
    }


def run_trace_check(quick: bool = False, trace_output: str | None = None) -> dict:
    """Schedule a golden kernel under the span tracer and cross-check counters.

    The contract the observability layer ships with: the ``ilp.solve`` span
    deltas must sum to exactly the :class:`EngineStatistics` totals of the
    run, and the ``scheduler.run`` span must carry the scheduler's
    statistics dict verbatim.  Any divergence means a counter is attached
    from the wrong snapshot window — ``perf_gate.py`` fails the job on it.
    ``trace_output`` additionally writes the Chrome-trace JSON (the CI
    artifact to drop into Perfetto).
    """
    from repro.obs import Tracer, write_chrome_trace
    from repro.pipeline.session import Session
    from repro.suites.polybench import build_kernel

    kernels = ("gemm",) if quick else ("gemm", "jacobi-2d")
    checks: dict[str, dict] = {}
    divergences = 0
    tracer = Tracer()
    session = Session(tracer=tracer)
    for kernel in kernels:
        tracer.clear()
        result = session.compile(build_kernel(kernel))
        statistics = result.solver_statistics
        solves = [r for r in tracer.records if r.name == "ilp.solve"]
        run_span = next(r for r in tracer.records if r.name == "scheduler.run")
        span_statistics = {
            key: value for key, value in run_span.counters.items() if key != "kernel"
        }
        span_pivots = sum(r.counters.get("pivots", 0) for r in solves)
        span_nodes = sum(r.counters.get("nodes", 0) for r in solves)
        matches = (
            len(solves) == statistics.get("solve_calls")
            and span_pivots == statistics.get("pivots")
            and span_nodes == statistics.get("nodes")
            and span_statistics == statistics
        )
        if not matches:
            divergences += 1
        checks[kernel] = {
            "ilp_spans": len(solves),
            "solve_calls": statistics.get("solve_calls"),
            "span_pivots": span_pivots,
            "engine_pivots": statistics.get("pivots"),
            "span_nodes": span_nodes,
            "engine_nodes": statistics.get("nodes"),
            "counters_match": matches,
        }
        if trace_output and kernel == kernels[-1]:
            write_chrome_trace(tracer, trace_output)
    return {
        "quick": quick,
        "kernels": list(kernels),
        "checks": checks,
        "divergences": divergences,
        "trace_output": trace_output,
    }


def run_trace_overhead(quick: bool = False, passes: int = 5) -> dict:
    """Price the *disabled* tracing path on the quick solver corpus.

    Compares ``SolverContext.solve`` (which starts with the
    ``tracer.enabled`` guard every production solve now pays) against the
    guard-free ``_solve`` body over identical fresh contexts.  The min over
    *passes* follows the ``timeit`` convention; ``perf_gate.py`` fails the
    job when the disabled-path overhead exceeds 2%.
    """
    from repro.scheduler.solver_context import SolverContext

    problems = synthetic_problems(12 if quick else 40)

    def time_leg(direct: bool) -> float:
        context = SolverContext()
        solve = context._solve if direct else context.solve
        started = time.perf_counter()
        for problem in problems:
            solve(problem)
        return time.perf_counter() - started

    # The legs are interleaved (and their order alternated per pass) so slow
    # drift — thermal scaling, interpreter warm-up, GC pressure — cancels
    # instead of landing entirely on whichever leg runs later.
    direct_seconds = disabled_seconds = None
    for index in range(passes):
        order = (True, False) if index % 2 == 0 else (False, True)
        for direct in order:
            elapsed = time_leg(direct)
            if direct:
                direct_seconds = (
                    elapsed if direct_seconds is None else min(direct_seconds, elapsed)
                )
            else:
                disabled_seconds = (
                    elapsed
                    if disabled_seconds is None
                    else min(disabled_seconds, elapsed)
                )
    overhead = (
        (disabled_seconds - direct_seconds) / direct_seconds if direct_seconds else 0.0
    )
    return {
        "problems": len(problems),
        "passes": passes,
        "direct_seconds": direct_seconds,
        "disabled_seconds": disabled_seconds,
        "overhead_fraction": overhead,
    }


# --------------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------------- #
def test_solver_benchmark(benchmark):
    problems = synthetic_problems(30) + scheduler_problems(quick=True)

    def solve_corpus():
        solver = IlpSolver()
        return [solver.solve(problem) for problem in problems]

    engine_solutions = benchmark.pedantic(solve_corpus, iterations=1, rounds=3)
    for problem, solution in zip(problems, engine_solutions):
        expected = solve_lexicographic(problem)
        assert (solution is None) == (expected is None)
        if solution is not None and expected is not None:
            assert solution.objective_values == expected.objective_values


def test_engine_reuses_warm_starts():
    """Sanity: on a branching-heavy corpus the engine records warm starts."""
    problem = LinearProblem()
    for i in range(4):
        problem.add_variable(f"x{i}", 0, 7)
    problem.add_constraint({f"x{i}": 2 for i in range(4)}, "==", 7)
    problem.add_objective({f"x{i}": 1 for i in range(4)})
    engine = IncrementalIlpEngine(problem)
    assert engine.solve() is None  # odd rhs over even coefficients: infeasible
    assert engine.stats.warm_start_hits > 0


# --------------------------------------------------------------------------- #
# Standalone script mode (used by CI to emit BENCH_solver.json)
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small corpus (CI smoke)")
    parser.add_argument(
        "--output", default=None, help="write the timing JSON to this path"
    )
    parser.add_argument(
        "--trace-output",
        default=None,
        metavar="PATH",
        help="write the trace-check golden kernel's Chrome-trace JSON here "
        "(the Perfetto CI artifact)",
    )
    arguments = parser.parse_args(argv)
    report = run(quick=arguments.quick)
    mismatches = report["mismatches"]
    report["deepnest_benchmark"] = run_deepnest(quick=arguments.quick)
    report["trace_check"] = run_trace_check(
        quick=arguments.quick, trace_output=arguments.trace_output
    )
    mismatches += report["trace_check"]["divergences"]
    report["trace_overhead"] = run_trace_overhead(quick=arguments.quick)
    text = json.dumps(report, indent=2, default=str)
    print(text)
    if arguments.output:
        Path(arguments.output).write_text(text + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
