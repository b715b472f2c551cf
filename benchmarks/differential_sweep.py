"""Full differential sweep: incremental engine vs the reference solver.

Runs the complete fig. 2 PolyBench kernel list (25 kernels) under both
scheduling strategies the paper leans on (pluto-style and isl-style), twice:

* ``oracle``: the scheduling ILPs solved by the reference
  ``repro.ilp.branch_bound.solve_lexicographic``, substituted at
  ``PolyTOPSScheduler._solve`` (the one scheduling solve site, the one the
  goldens patch) by a patch local to this script; the report counts the
  reference solves it made,
* ``engine``: the incremental engine, as every compile runs it.

Emptiness probes never go through ``PolyTOPSScheduler._solve``: a dependence's
probes are answered warm, from a root kept for the run.  So the engine run gets
a third leg: every verdict its dependences remember (``("empty", ...)`` memo
entries) is asked again cold, by ``Polyhedron.is_empty``, and must agree.

``--kernels`` also takes the deep-nest and PolyMage names (``DEEPNEST_SWEEP``
below is the ``deepnest_schedule`` corpus of ``benchmarks/e2e``, the nightly
job's second list): the kernels whose branch & bound trees are large enough
for the engine's grid pruning to decide anything.

Both must produce the *same schedule rows* for every statement.  The report
(JSON) records per-case timings, solver statistics, the verdicts re-asked and
any mismatches (schedule or verdict); the exit code is non-zero when a
mismatch occurred or the oracle leg made no reference solve, so the nightly CI
job fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/differential_sweep.py \
        [--output sweep_report.json] [--kernels gemm,atax,pyramid-blending]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from unittest import mock

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ilp import SolverOptions
from repro.ilp.branch_bound import solve_lexicographic
from repro.scheduler.core import PolyTOPSScheduler
from repro.scheduler.strategies import isl_style, pluto_style
from repro.suites.deepnest import DEEPNEST_KERNELS, build_deepnest
from repro.suites.polybench import FIG2_KERNELS, KERNELS, build_kernel
from repro.suites.polymage import build_pipeline

#: The solver-bound corpus (``deepnest_schedule`` of ``benchmarks/e2e``).
DEEPNEST_SWEEP = (
    "jacobi-4d", "heat-4d", "tc-6d", "sumred-4d", "polymage-deep", "harris",
    "pyramid-blending",
)


def _build(kernel: str):
    """Instantiate *kernel* from whichever suite registers it."""
    if kernel in KERNELS:
        return build_kernel(kernel)
    if kernel in DEEPNEST_KERNELS:
        return build_deepnest(kernel)
    return build_pipeline(kernel)


def _schedule_rows(result) -> dict[str, tuple]:
    return {
        name: tuple(statement.rows)
        for name, statement in result.schedule.statements.items()
    }


def _run_variant(scop, config, reference: bool):
    """One scheduling run under the engine or, patched in, the reference.

    Returns the result, its seconds and the number of reference solves.
    """
    calls = 0

    def reference_solve(self, problem):
        nonlocal calls
        calls += 1
        options = self.config.solver_options or SolverOptions()
        return solve_lexicographic(problem, options.node_limit)

    # The reference variant: every scheduling solve of the run is replaced.
    with (
        mock.patch.object(PolyTOPSScheduler, "_solve", reference_solve)
        if reference
        else contextlib.nullcontext()
    ):
        started = time.perf_counter()
        result = PolyTOPSScheduler(scop, config).schedule()
        seconds = time.perf_counter() - started
    return result, seconds, calls


def _cold_verdicts(result) -> tuple[int, int]:
    """(verdicts re-asked, disagreements): each remembered emptiness verdict
    of the run's dependences against a cold ``Polyhedron.is_empty``."""
    asked = disagreements = 0
    for dependence in result.dependences:
        for key, verdict in (dependence._memo or {}).items():
            if key[0] == "empty":
                asked += 1
                disagreements += verdict is not dependence.polyhedron.is_empty(key[1:])
    return asked, disagreements


def sweep(kernels: list[str]) -> dict:
    variants = (("oracle", True), ("engine", False))
    cases = []
    mismatches = 0
    reference_solves = 0
    for kernel in kernels:
        scop = _build(kernel)
        for config in (pluto_style(), isl_style()):
            case: dict = {"kernel": kernel, "config": config.name, "variants": {}}
            reference_rows = None
            for label, reference in variants:
                result, seconds, calls = _run_variant(scop, config, reference)
                reference_solves += calls
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
                    "solves": statistics.get("solves"),
                    "nodes": statistics.get("nodes"),
                    "reference_solves": calls,
                }
            # `result` is the engine run's: the last variant.
            asked, disagreements = _cold_verdicts(result)
            mismatches += disagreements
            case["verdicts"] = {"asked": asked, "mismatches": disagreements}
            cases.append(case)
            status = "ok" if not disagreements and all(
                v["identical_to_oracle"] for v in case["variants"].values()
            ) else "MISMATCH"
            print(
                f"{kernel:>16} / {config.name:<24} {status} ({asked} verdicts re-asked)",
                flush=True,
            )
    return {
        "kernels": kernels,
        "cases": cases,
        "mismatches": mismatches,
        "reference_solves": reference_solves,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--kernels",
        default=None,
        help="comma-separated kernels: PolyBench, deep-nest or PolyMage names, "
        "or 'deepnest' for the DEEPNEST_SWEEP list (default: all 25 fig2 kernels)",
    )
    arguments = parser.parse_args(argv)
    if arguments.kernels == "deepnest":
        kernels = list(DEEPNEST_SWEEP)
    else:
        kernels = arguments.kernels.split(",") if arguments.kernels else list(FIG2_KERNELS)
    report = sweep(kernels)
    print(
        f"\n{len(report['cases'])} cases, {report['mismatches']} mismatches, "
        f"{report['reference_solves']} reference solves"
    )
    if arguments.output:
        Path(arguments.output).write_text(json.dumps(report, indent=2) + "\n")
    # A sweep whose oracle leg solved nothing compared the engine with itself.
    return 1 if report["mismatches"] or not report["reference_solves"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
