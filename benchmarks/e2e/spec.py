"""The benchmark's data sheet: workloads, metrics, bounds and interactions.

This module is the single source the runner, the contract test and the root
``BENCHMARK.json`` agree on; ``python3 benchmarks/e2e/spec.py`` prints the
``BENCHMARK.json`` projection.  It imports nothing from ``repro`` so the
contract test and the parent process stay cheap.
"""

from __future__ import annotations

import json
import math

#: Seconds of timed work per run; a pass is added while at least half of it fits.
RUN_SECONDS = 20

#: name -> why the workload exists (one line, <= 200 characters).
WORKLOADS = {
    "polybench_full": (
        "Default user path: 8 PolyBench kernels, pluto_style, Intel1 model; "
        "evaluate (executor, trace, cache) is ~82% of wall, schedule ~7%."
    ),
    "deepnest_schedule": (
        "Solver-bound: 7 deep-nest/PolyMage kernels, no machine model; schedule is ~79% "
        "of wall and evaluate 0%, so an evaluate optimisation must show nothing here."
    ),
    "triangular_sweep": (
        "Kernel-specific exploration: 9 triangular kernels x 5 strategies in one session; "
        "legality+dependences ~36%, schedule ~54%, dependence cache at 1 miss + 4 hits."
    ),
    "service_mixed": (
        "Long-lived process: closed loop, 1 client, 85% hits on 24 stored results and 15% "
        "misses with fresh parameter values against a restarted SQLite-backed server."
    ),
}


def _e2e(name: str, unit: str, bound: float, spread: float) -> dict:
    """*spread* is the largest IQR/median seen over ten seeds on any workload (two sets)."""
    return {"name": name, "unit": unit, "better": "lower", "bound": bound, "spread": spread}


#: Every workload reports every end-to-end metric (see README.md for definitions).
END_TO_END = [
    _e2e("setup_s", "s", 0.25, 0.176),
    _e2e("compile_wall_s", "s", 0.15, 0.054),
    _e2e("compile_geomean_s", "s", 0.15, 0.062),
    _e2e("sim_cycles_geomean", "cycles", 0.001, 0.0),
    _e2e("peak_rss_mb", "MiB", 0.10, 0.038),
    _e2e("hit_latency_ms_p50", "ms", 0.25, 0.09),
    _e2e("hit_latency_ms_p90", "ms", 0.25, 0.138),
    _e2e("miss_latency_ms_p50", "ms", 0.25, 0.121),
]

_EVALUATE = (
    "compile_wall_s/compile_geomean_s on polybench_full (<= 82% of it); no change on "
    "deepnest_schedule, triangular_sweep, service_mixed; sim_cycles_geomean stays exact"
)
_SOLVER = (
    "compile_wall_s on deepnest_schedule (<= 79%) and triangular_sweep (<= 54%), <= 7% on "
    "polybench_full; a counter that improves while compile_wall_s does not is not a gain"
)
_FRONT_END = (
    "compile_geomean_s on triangular_sweep (36% together) and miss_latency_ms_p50 on "
    "service_mixed"
)
_SERVICE = "hit_latency_ms_p50/p90 and compile_wall_s on service_mixed only"
_PUT = "miss_latency_ms_p50 on service_mixed, and through WAL contention hit_latency_ms_p90"
_SETUP = "setup_s on every workload (work moved into import or SCoP construction)"
_INFO = "nothing: informational (cost of the traced run, speed of the box during the run)"

#: (name prefix -> which end-to-end metric on which workload it should move);
#: the longest matching prefix wins.
MOVES = {
    "pipeline.stage.evaluate_s": _EVALUATE,
    "codegen.executor_": _EVALUATE,
    "machine.": _EVALUATE,
    "pipeline.stage.schedule_s": _SOLVER,
    "scheduler.": _SOLVER,
    "ilp.": _SOLVER,
    "linalg.": _SOLVER,
    "polyhedra.": _SOLVER,
    "pipeline.stage.": _FRONT_END,
    "pipeline.dependence_": _FRONT_END,
    "deps.": _FRONT_END,
    "polyhedra.emptiness_probe_s": _FRONT_END,
    "transform.": _FRONT_END,
    "codegen.": _FRONT_END,
    "pipeline.": _SERVICE,
    "service.": _SERVICE,
    "service.store_put_ms_p50": _PUT,
    "suites.": _SETUP,
    "obs.": _INFO,
}


def _layer(names: str, unit: str, better: str = "lower") -> list[dict]:
    return [{"name": name, "unit": unit, "better": better} for name in names.split()]


#: Layer = module under ``src/repro``; ``_s`` metrics are seconds summed over the corpus.
PER_LAYER = [
    *_layer(
        "pipeline.stage.dependences_s pipeline.stage.schedule_s pipeline.stage.postprocess_s "
        "pipeline.stage.legality_s pipeline.stage.codegen_s pipeline.stage.evaluate_s "
        "pipeline.fingerprint_s pipeline.serialize_s",
        "s",
    ),
    *_layer("pipeline.stage_sum_share", "ratio", "higher"),
    *_layer("pipeline.dependence_hits", "count", "higher"),
    *_layer("pipeline.dependence_misses", "count"),
    *_layer("pipeline.result_bytes", "bytes"),
    *_layer("deps.compute_s", "s"),
    *_layer("deps.dependences deps.emptiness_probes deps.emptiness_engine_probes", "count"),
    *_layer("deps.emptiness_reuse_ratio", "ratio", "higher"),
    *_layer("scheduler.schedule_s scheduler.self_s", "s"),
    *_layer("scheduler.dimensions scheduler.fallbacks", "count"),
    *_layer("ilp.solve_s ilp.encode_s", "s"),
    *_layer("ilp.solve_calls ilp.pivots ilp.nodes ilp.refactorizations", "count"),
    *_layer("ilp.warm_start_hits ilp.dim_warm_starts", "count", "higher"),
    *_layer("ilp.pivots_per_s", "1/s", "higher"),
    *_layer("linalg.basis_nnz linalg.eta_entries", "count"),
    *_layer(
        "polyhedra.fm_elimination_s polyhedra.irredundancy_s polyhedra.farkas_s "
        "polyhedra.emptiness_probe_s",
        "s",
    ),
    *_layer(
        "polyhedra.fm_rows_generated polyhedra.fm_rows_emitted polyhedra.irredundancy_probes "
        "polyhedra.irredundancy_pivots",
        "count",
    ),
    *_layer("polyhedra.fm_emit_ratio", "ratio"),
    *_layer("polyhedra.irredundancy_drop_ratio", "ratio", "higher"),
    *_layer("transform.postprocess_s transform.legality_s", "s"),
    *_layer("transform.parallel_dims", "count", "higher"),
    *_layer("codegen.generate_ast_s codegen.to_c_s codegen.executor_run_s", "s"),
    *_layer("codegen.c_bytes", "bytes"),
    *_layer("codegen.ast_loops codegen.ast_guards codegen.executor_instances", "count"),
    *_layer("codegen.executor_instances_per_s", "1/s", "higher"),
    *_layer("machine.evaluate_s machine.trace_address_s machine.cache_access_s", "s"),
    *_layer("machine.cache_accesses", "count"),
    *_layer("machine.cache_accesses_per_s", "1/s", "higher"),
    *_layer("machine.l1_miss_ratio", "ratio"),
    *_layer("service.wire_encode_s service.wire_decode_s", "s"),
    *_layer(
        "service.store_put_ms_p50 service.store_get_ms_p50 service.http_roundtrip_ms_p50 "
        "service.memory_hit_latency_ms_p50 service.store_hit_latency_ms_p50 "
        "service.hit_latency_ms_p99",
        "ms",
    ),
    *_layer("service.response_bytes_p50 service.store_file_bytes", "bytes"),
    *_layer("service.memory_hits service.store_hits", "count", "higher"),
    *_layer("service.store_misses service.store_puts service.scheduler_runs", "count"),
    *_layer("service.hit_ratio", "ratio", "higher"),
    *_layer("service.requests_per_s", "1/s", "higher"),
    *_layer("suites.build_s", "s"),
    *_layer("obs.spans", "count"),
    *_layer("obs.trace_overhead_share", "ratio"),
    *_layer("obs.raw_wall_s", "s"),
    *_layer("obs.calibration_loop_ms", "ms"),
]


def moves(name: str) -> str:
    """The interaction entry of one layer metric (longest matching prefix)."""
    prefix = max((p for p in MOVES if name.startswith(p)), key=len)
    return MOVES[prefix]


def benchmark_json() -> dict:
    """The contract-shaped projection committed as the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {key: metric[key] for key in ("name", "unit", "better", "bound")}
            for metric in END_TO_END
        ],
        "per_layer": PER_LAYER,
    }


def percentile_rank(samples: int) -> int:
    """The highest of p50/p90/p99/p99.9 (as per-mille) with >= 10 samples beyond it."""
    return max(
        (rank for rank in (500, 900, 990, 999) if samples * (1000 - rank) >= 10_000),
        default=500,
    )


def percentile(values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile of *values* (``per_mille`` = 900 for p90)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * per_mille / 1000) - 1)]


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
