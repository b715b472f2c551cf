"""Golden-schedule regression corpus.

A representative slice of the fig2 PolyBench corpus (one kernel per suite
family, both scheduling strategies) is pinned to checked-in golden files:
per-statement schedule rows, the rest of the scheduling outcome (bands,
parallel flags, the dimension that strongly satisfies each dependence, the
fallback flag) **and** the branch & bound ``node_key`` of every ILP the run
solved.  The rows and the outcome freeze the end-to-end result; the
node keys freeze the *search path* — a change that lands on the same
schedule through a different tree (a lost warm start, a reordered branch, a
broken tie-break) still fails loudly instead of silently drifting.  A
``"solver"`` block freezes the *work* with ``==``: its counters are integers
of a deterministic run, equal under any ``PYTHONHASHSEED``.

On drift:

* an intended change (new cost function default, engine search-order
  change) regenerates the corpus with::

      PYTHONPATH=src python tests/golden/regenerate.py

  and the diff of ``tests/golden/schedules.json`` becomes part of the
  review;
* an unintended change is a regression — fix it, do not regenerate.

The golden search paths are the engine's search paths; the schedule rows
themselves are differentially checked against the reference solver by
``benchmarks/differential_sweep.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "schedules.json"

#: (kernel, config factory name) cases: one kernel per PolyBench family —
#: dense blas (gemm), bandwidth-bound blas (gemver), a stencil (jacobi-2d),
#: a solver (cholesky) and a datamining kernel (correlation) — under both
#: strategies the paper leans on.
GOLDEN_KERNELS = ("gemm", "gemver", "jacobi-2d", "cholesky", "correlation")

#: Pinned next to every golden schedule (here and in ``test_sparse_core.py``):
#: a change to the search, the basis arithmetic, the refresh cadence, the
#: stored factors or the elimination filters moves one of them.
PINNED_SOLVER_COUNTERS = (
    "pivots", "nodes", "refactorizations", "basis_nnz", "eta_entries",
    "tableau_rows", "fm_rows_emitted", "fm_rows_pruned",
)


def pinned_solver_counters(result) -> dict[str, int]:
    return {name: result.statistics[name] for name in PINNED_SOLVER_COUNTERS}


def scheduling_outcome(result) -> dict:
    """Everything a run decides beside the rows: bands, parallel flags, the
    dimension carrying each dependence and whether it fell back."""
    return {
        "bands": list(result.schedule.bands),
        "parallel_dims": list(result.schedule.parallel_dims),
        "satisfaction_dimension": sorted(map(list, result.satisfaction_dimension.items())),
        "fallback": result.fallback_to_original,
    }


def capture_case(kernel: str, config) -> dict:
    """Schedule rows, outcome + per-ILP node keys for one (kernel, config) run."""
    from repro.scheduler.core import PolyTOPSScheduler
    from repro.suites.polybench import build_kernel

    node_keys: list[list[int] | None] = []
    original_solve = PolyTOPSScheduler._solve

    def recording_solve(self, problem):
        solution = original_solve(self, problem)
        if solution is not None:
            key = solution.node_key
            node_keys.append(None if key is None else list(key))
        return solution

    PolyTOPSScheduler._solve = recording_solve
    try:
        result = PolyTOPSScheduler(build_kernel(kernel), config).schedule()
    finally:
        PolyTOPSScheduler._solve = original_solve
    return {
        "statements": {
            name: [str(row) for row in statement.rows]
            for name, statement in result.schedule.statements.items()
        },
        **scheduling_outcome(result),
        "node_keys": node_keys,
        "solver": pinned_solver_counters(result),
    }


def capture_corpus() -> dict:
    from repro.scheduler.strategies import isl_style, pluto_style

    corpus: dict[str, dict] = {}
    for kernel in GOLDEN_KERNELS:
        for config in (pluto_style(), isl_style()):
            corpus[f"{kernel}/{config.name}"] = capture_case(kernel, config)
    return corpus


def test_schedules_match_golden_corpus():
    assert GOLDEN_PATH.exists(), (
        f"missing golden corpus at {GOLDEN_PATH}; generate it with "
        "`PYTHONPATH=src python tests/golden/regenerate.py`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    current = capture_corpus()
    assert sorted(current) == sorted(golden), "golden corpus case list drifted"
    for case, expected in golden.items():
        actual = current[case]
        assert actual["statements"] == expected["statements"], (
            f"schedule drift on {case}: if intended, regenerate with "
            "`PYTHONPATH=src python tests/golden/regenerate.py` and review "
            "the diff"
        )
        for key in ("bands", "parallel_dims", "satisfaction_dimension", "fallback"):
            assert actual[key] == expected[key], (
                f"{key} drift on {case} (schedule rows equal): if intended, "
                "regenerate the corpus and review the diff"
            )
        assert actual["node_keys"] == expected["node_keys"], (
            f"branch & bound search-path drift on {case} (schedules equal): "
            "the solver reached the same answer differently; if intended, "
            "regenerate the corpus and call the change out in review"
        )
        assert actual["solver"] == expected["solver"], (
            f"solver work drift on {case} (schedules and search paths equal): "
            "if intended, regenerate the corpus and review the counter diff"
        )
