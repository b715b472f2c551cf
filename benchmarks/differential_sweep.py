"""Full differential sweep: engine vs oracle, workers=1 vs workers=4.

Runs the complete fig. 2 PolyBench kernel list (25 kernels) under both
scheduling strategies the paper leans on (pluto-style and isl-style) and
four solver variants:

* dense oracle (the reference),
* incremental engine, sequential,
* incremental engine, 4 thread workers,
* incremental engine, 4 process workers (opt-in fork mode).

Every variant must produce the *same schedule rows* for every statement —
the engine is differentially validated against the oracle, and the parallel
layer against the sequential engine.  The report (JSON) records per-case
timings, solver statistics and any mismatches; the exit code is non-zero
when a mismatch occurred, so the nightly CI job fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/differential_sweep.py \
        [--output sweep_report.json] [--kernels gemm,atax] [--workers 4]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ilp.options import SolverOptions
from repro.scheduler.core import PolyTOPSScheduler
from repro.scheduler.strategies import isl_style, pluto_style
from repro.suites.polybench import FIG2_KERNELS, build_kernel


def _schedule_rows(result) -> dict[str, tuple]:
    return {
        name: tuple(statement.rows)
        for name, statement in result.schedule.statements.items()
    }


def _run_variant(scop, config, engine: str, workers: int, processes: bool):
    """One scheduling run under a forced solver variant."""
    saved = os.environ.get("REPRO_ILP_ENGINE")
    os.environ["REPRO_ILP_ENGINE"] = engine
    try:
        variant_config = dataclasses.replace(
            config,
            solver_options=SolverOptions.resolve(workers=workers, processes=processes),
        )
        started = time.perf_counter()
        result = PolyTOPSScheduler(scop, variant_config).schedule()
        seconds = time.perf_counter() - started
    finally:
        if saved is None:
            os.environ.pop("REPRO_ILP_ENGINE", None)
        else:
            os.environ["REPRO_ILP_ENGINE"] = saved
    return result, seconds


def sweep(kernels: list[str], workers: int) -> dict:
    variants = (
        ("oracle", "oracle", 1, False),
        ("engine-w1", "incremental", 1, False),
        (f"engine-w{workers}-threads", "incremental", workers, False),
        (f"engine-w{workers}-processes", "incremental", workers, True),
    )
    cases = []
    mismatches = 0
    for kernel in kernels:
        scop = build_kernel(kernel)
        for config in (pluto_style(), isl_style()):
            case: dict = {"kernel": kernel, "config": config.name, "variants": {}}
            reference_rows = None
            for label, engine, variant_workers, processes in variants:
                result, seconds = _run_variant(
                    scop, config, engine, variant_workers, processes
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
                    "engine_fallbacks": statistics.get("engine_fallbacks"),
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
