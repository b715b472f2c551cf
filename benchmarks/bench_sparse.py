"""Benchmark of the sparse polyhedral core: the pruning FM/Farkas funnel.

For every kernel of a deep-nest-leaning corpus the script runs dependence
analysis (batched emptiness probes) and a full scheduling run and reports

* the elimination funnel — rows generated by Fourier–Motzkin/Farkas steps,
  rows pruned (trivial / duplicate / subsumed / Imbert), rows emitted to the
  ILP encoder — per kernel and aggregated,
* elimination wall time and the emitted-row nnz density (the sparse
  representation's payload vs the dense cells it avoids storing),
* the batched emptiness-probe counters (probes, engine solves, cache reuse),
* the strategy-sweep reuse counters: cholesky compiled under the five
  ``triangular_sweep`` strategies in one ``Session``, counting the
  satisfaction / parallelism / legality emptiness probes and the Farkas
  linearisations that were *actually executed* (at the leaf functions, so the
  count does not depend on how the sharing is implemented) — what the
  dependences remember (``Dependence.is_empty_with``, the row blocks of
  ``repro.scheduler.legality``) is exactly what keeps these from growing
  five-fold.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse.py [--quick]
        [--output BENCH_sparse.json] [--update-baseline]

``--update-baseline`` refreshes the ``"sparse"`` section of
``benchmarks/baselines/solver_baseline.json`` from this run;
``benchmarks/perf_gate.py --sparse-report BENCH_sparse.json`` gates the
deterministic counters (``fm_rows_emitted``, ``fm_rows_pruned``,
``emptiness_probes``, ``emptiness_engine_probes``, ``sweep_probes_executed``,
``sweep_farkas_linearisations``) against it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "solver_baseline.json"

#: The quick corpus: every >=4D deep-nest kernel that schedules in well under
#: ten seconds, plus heat-3d as the PolyBench anchor.  The full corpus adds
#: the 5-deep two-statement stencil and two shallower PolyBench kernels so
#: density numbers cover the easy cases too.
QUICK_KERNELS = ("heat-3d", "heat-4d", "tc-4d", "sumred-4d")
FULL_EXTRA_KERNELS = (
    "jacobi-4d",
    "doitgen",
    "jacobi-2d",
    "tc-5d",
    "tc-6d",
    "polymage-deep",
)

#: The deterministic counters the perf gate compares (fixed corpus =>
#: machine-independent).  Direction matters: emitted rows and probe counts
#: regress upward, pruned rows regress downward.
GATED_LOWER_IS_BETTER = (
    "fm_rows_emitted",
    "emptiness_probes",
    "emptiness_engine_probes",
    "sweep_probes_executed",
    "sweep_farkas_linearisations",
)
GATED_HIGHER_IS_BETTER = ("fm_rows_pruned",)

#: The strategy sweep of ``benchmarks/e2e``'s ``triangular_sweep`` workload.
SWEEP_KERNEL = "cholesky"
SWEEP_STRATEGIES = (
    "pluto_style",
    "tensor_scheduler_style",
    "isl_style",
    "feautrier_style",
    "big_loops_first_style",
)


def _build(kernel: str):
    from repro.suites.deepnest import DEEPNEST_KERNELS
    from repro.suites.polybench import KERNELS

    if kernel in DEEPNEST_KERNELS:
        return DEEPNEST_KERNELS[kernel]()
    return KERNELS[kernel]()


def _run_kernel(kernel: str) -> dict:
    """One dependence-analysis + scheduling run."""
    from repro.deps.analysis import compute_dependences
    from repro.scheduler.core import PolyTOPSScheduler

    scop = _build(kernel)
    started = time.perf_counter()
    probe_statistics: dict[str, int] = {}
    dependences = compute_dependences(scop, probe_statistics=probe_statistics)
    result = PolyTOPSScheduler(scop, dependences=dependences).schedule()
    wall = time.perf_counter() - started
    # The scheduling run's own statistics object holds all of its
    # Fourier–Motzkin/Farkas work.
    fm_counters = {
        key: value
        for key, value in result.statistics.items()
        if key.startswith("fm_")
    }
    cells = fm_counters["fm_emitted_cells"]
    return {
        "wall_seconds": wall,
        "fm": fm_counters,
        "nnz_density": (fm_counters["fm_emitted_nnz"] / cells) if cells else 1.0,
        "probes": probe_statistics,
        "fallback": result.fallback_to_original,
    }


def run_sweep() -> dict[str, int]:
    """One kernel, five strategies, one ``Session``: the work actually executed.

    Counted where it happens — every call of the un-batched emptiness probe
    and of the Farkas linearisation — so a refactor that silently stops
    sharing what the dependences remember shows up here whatever it does to
    the ``*_reused`` statistics.
    """
    from unittest import mock

    from repro import Session
    from repro.polyhedra import emptiness
    from repro.scheduler import legality, strategies

    scop = _build(SWEEP_KERNEL)
    session = Session()
    reused = {"probe_verdicts_reused": 0, "farkas_blocks_reused": 0}
    with mock.patch.object(
        emptiness, "find_integer_point", wraps=emptiness.find_integer_point
    ) as probes, mock.patch.object(
        legality, "farkas_nonnegative", wraps=legality.farkas_nonnegative
    ) as linearisations:
        # Dependence analysis probes through its own BatchProbe, not through
        # the module-level function, and is counted by emptiness_probes.
        for strategy in SWEEP_STRATEGIES:
            result = session.compile(scop, getattr(strategies, strategy)())
            for key in reused:
                reused[key] += result.solver_statistics.get(key, 0)
    return {
        "sweep_probes_executed": probes.call_count,
        "sweep_farkas_linearisations": linearisations.call_count,
        "sweep_probe_verdicts_reused": reused["probe_verdicts_reused"],
        "sweep_farkas_blocks_reused": reused["farkas_blocks_reused"],
    }


def run_corpus(kernels: tuple[str, ...]) -> dict:
    report: dict = {"kernels": {}}
    sparse_total: dict = {}
    for kernel in kernels:
        sparse = _run_kernel(kernel)
        entry = {
            "fallback": sparse["fallback"],
            "sparse": {
                "wall_seconds": sparse["wall_seconds"],
                "fm_wall_seconds": sparse["fm"]["fm_elimination_seconds"],
                "rows_generated": sparse["fm"]["fm_rows_generated"],
                "rows_pruned": sparse["fm"]["fm_rows_pruned"],
                "rows_pruned_imbert": sparse["fm"]["fm_rows_pruned_imbert"],
                "rows_pruned_subsumed": sparse["fm"]["fm_rows_pruned_subsumed"],
                "rows_emitted": sparse["fm"]["fm_rows_emitted"],
                "nnz_density": sparse["nnz_density"],
            },
            "row_funnel": (
                sparse["fm"]["fm_rows_generated"]
                / max(sparse["fm"]["fm_rows_emitted"], 1)
            ),
            "probes": sparse["probes"],
        }
        report["kernels"][kernel] = entry
        for key, value in (*sparse["fm"].items(), *sparse["probes"].items()):
            sparse_total[key] = sparse_total.get(key, 0) + value

    report["sparse_statistics"] = {
        "fm_rows_generated": sparse_total.get("fm_rows_generated", 0),
        "fm_rows_pruned": sparse_total.get("fm_rows_pruned", 0),
        "fm_rows_pruned_imbert": sparse_total.get("fm_rows_pruned_imbert", 0),
        "fm_rows_pruned_subsumed": sparse_total.get("fm_rows_pruned_subsumed", 0),
        "fm_rows_emitted": sparse_total.get("fm_rows_emitted", 0),
        "fm_elimination_seconds": sparse_total.get("fm_elimination_seconds", 0.0),
        "nnz_density": (
            sparse_total.get("fm_emitted_nnz", 0)
            / max(sparse_total.get("fm_emitted_cells", 0), 1)
        ),
        "emptiness_probes": sparse_total.get("emptiness_probes", 0),
        "emptiness_engine_probes": sparse_total.get("emptiness_engine_probes", 0),
        "emptiness_reuse_hits": sparse_total.get("emptiness_reuse_hits", 0),
        "row_funnel": (
            sparse_total.get("fm_rows_generated", 0)
            / max(sparse_total.get("fm_rows_emitted", 0), 1)
        ),
        **run_sweep(),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="quick corpus (CI default)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="refresh the 'sparse' section of the committed solver baseline",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    from bench_solver import machine_info  # noqa: E402  (sibling script)

    kernels = QUICK_KERNELS if args.quick else QUICK_KERNELS + FULL_EXTRA_KERNELS
    report = run_corpus(kernels)
    report["quick"] = bool(args.quick)
    report["machine"] = machine_info()

    sparse = report["sparse_statistics"]
    print(f"kernels: {', '.join(kernels)}")
    print(
        "sparse : generated %d -> emitted %d (%.1fx funnel, %d pruned; imbert %d, subsumed %d)"
        % (
            sparse["fm_rows_generated"],
            sparse["fm_rows_emitted"],
            sparse["row_funnel"],
            sparse["fm_rows_pruned"],
            sparse["fm_rows_pruned_imbert"],
            sparse["fm_rows_pruned_subsumed"],
        )
    )
    print(
        "         fm wall %.3fs, nnz density %.3f"
        % (sparse["fm_elimination_seconds"], sparse["nnz_density"])
    )
    print(
        "probes : %d emptiness probes, %d engine solves, %d reused"
        % (
            sparse["emptiness_probes"],
            sparse["emptiness_engine_probes"],
            sparse["emptiness_reuse_hits"],
        )
    )
    print(
        "sweep  : %s x %d strategies in one session: %d probes and %d Farkas "
        "linearisations executed (%d verdicts and %d blocks reused by the scheduler)"
        % (
            SWEEP_KERNEL,
            len(SWEEP_STRATEGIES),
            sparse["sweep_probes_executed"],
            sparse["sweep_farkas_linearisations"],
            sparse["sweep_probe_verdicts_reused"],
            sparse["sweep_farkas_blocks_reused"],
        )
    )
    if args.output:
        args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")

    if args.update_baseline:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        baseline["sparse"] = {
            "quick": bool(args.quick),
            **{
                key: report["sparse_statistics"][key]
                for key in GATED_LOWER_IS_BETTER + GATED_HIGHER_IS_BETTER
            },
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"refreshed the 'sparse' section of {args.baseline}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
