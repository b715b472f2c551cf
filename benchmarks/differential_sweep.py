"""Full differential sweep: engine vs reference solver, workers=1 vs workers=4.

Runs the complete fig. 2 PolyBench kernel list (25 kernels) under both
scheduling strategies the paper leans on (pluto-style and isl-style) and
four solver variants:

* ``oracle``: the whole run (scheduling ILPs and emptiness probes alike)
  solved by the reference ``repro.ilp.solve_lexicographic``, substituted for
  ``IlpSolver.solve`` by a patch local to this script,
* incremental engine, sequential,
* incremental engine, 4 thread workers,
* incremental engine, 4 process workers (opt-in fork mode).

Every variant must produce the *same schedule rows* for every statement —
the engine is differentially validated against the reference, and the parallel
layer against the sequential engine.  The report (JSON) records per-case
timings, solver statistics and any mismatches; the exit code is non-zero
when a mismatch occurred, so the nightly CI job fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/differential_sweep.py \
        [--output sweep_report.json] [--kernels gemm,atax] [--workers 4]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path
from unittest import mock

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ilp import IlpSolver, SolverOptions, solve_lexicographic
from repro.scheduler.core import PolyTOPSScheduler
from repro.scheduler.strategies import isl_style, pluto_style
from repro.suites.polybench import FIG2_KERNELS, build_kernel


def _schedule_rows(result) -> dict[str, tuple]:
    return {
        name: tuple(statement.rows)
        for name, statement in result.schedule.statements.items()
    }


def _reference_solve(self, problem):
    return solve_lexicographic(problem, self.node_limit)


def _run_variant(scop, config, reference: bool, workers: int, processes: bool):
    """One scheduling run under a solver variant."""
    variant_config = dataclasses.replace(
        config,
        solver_options=SolverOptions.resolve(workers=workers, processes=processes),
    )
    # The reference variant: every ``IlpSolver.solve`` of the run is replaced.
    with (
        mock.patch.object(IlpSolver, "solve", _reference_solve)
        if reference
        else contextlib.nullcontext()
    ):
        started = time.perf_counter()
        result = PolyTOPSScheduler(scop, variant_config).schedule()
        seconds = time.perf_counter() - started
    return result, seconds


def sweep(kernels: list[str], workers: int) -> dict:
    variants = (
        ("oracle", True, 1, False),
        ("engine-w1", False, 1, False),
        (f"engine-w{workers}-threads", False, workers, False),
        (f"engine-w{workers}-processes", False, workers, True),
    )
    cases = []
    mismatches = 0
    for kernel in kernels:
        scop = build_kernel(kernel)
        for config in (pluto_style(), isl_style()):
            case: dict = {"kernel": kernel, "config": config.name, "variants": {}}
            reference_rows = None
            for label, reference, variant_workers, processes in variants:
                result, seconds = _run_variant(
                    scop, config, reference, variant_workers, processes
                )
                rows = _schedule_rows(result)
                if reference_rows is None:
                    reference_rows = rows
                    identical = True
                else:
                    identical = rows == reference_rows
                if not identical:
                    mismatches += 1
                statistics = result.statistics
                case["variants"][label] = {
                    "seconds": seconds,
                    "identical_to_oracle": identical,
                    "fallback_to_original": result.fallback_to_original,
                    "ilp_solved": statistics.get("ilp_solved"),
                    "nodes": statistics.get("nodes"),
                    "parallel_stages": statistics.get("parallel_stages"),
                }
            cases.append(case)
            status = "ok" if all(
                v["identical_to_oracle"] for v in case["variants"].values()
            ) else "MISMATCH"
            print(f"{kernel:>16} / {config.name:<24} {status}", flush=True)
    return {
        "kernels": kernels,
        "workers": workers,
        "cases": cases,
        "mismatches": mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--kernels",
        default=None,
        help="comma-separated kernel subset (default: all 25 fig2 kernels)",
    )
    parser.add_argument("--workers", type=int, default=4)
    arguments = parser.parse_args(argv)
    kernels = (
        arguments.kernels.split(",") if arguments.kernels else list(FIG2_KERNELS)
    )
    report = sweep(kernels, arguments.workers)
    print(
        f"\n{len(report['cases'])} cases, {report['mismatches']} mismatches"
    )
    if arguments.output:
        Path(arguments.output).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if report["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
