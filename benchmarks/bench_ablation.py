"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to a figure of the paper; they quantify the impact of
individual configuration features of PolyTOPS on a fixed kernel set:

* cost-function order (proximity-first vs. contiguity-first),
* the fusion heuristic (smartfuse-like vs. maximal fusion vs. full distribution),
* the coefficient bound of the ILP search space,
* scheduling time of the iterative scheduler itself (compile-time cost).
"""

from __future__ import annotations

import pytest

from repro.deps import compute_dependences
from repro.machine import intel_xeon_e5_2683
from repro.pipeline import EXPERIMENT_STAGES, Session
from repro.scheduler import (
    FusionSpec,
    PolyTOPSScheduler,
    kernel_specific,
    pluto_style,
    tensor_scheduler_style,
)
from repro.suites.polybench import build_kernel

KERNELS = ("gemm", "atax", "mvt")


def test_cost_function_order_ablation(benchmark):
    session = Session(machine=intel_xeon_e5_2683(), stages=EXPERIMENT_STAGES)

    def run():
        results = {}
        for kernel in KERNELS:
            scop = build_kernel(kernel)
            proximity_first = session.compile(scop, pluto_style())
            contiguity_first = session.compile(scop, tensor_scheduler_style())
            results[kernel] = contiguity_first.cycles / proximity_first.cycles
        return results

    ratios = benchmark.pedantic(run, iterations=1, rounds=1)
    assert all(ratio > 0 for ratio in ratios.values())
    print("\ncontiguity-first vs proximity-first cycle ratios:", ratios)


def test_fusion_heuristic_ablation(benchmark):
    session = Session(machine=intel_xeon_e5_2683(), stages=EXPERIMENT_STAGES)
    variants = {
        "smartfuse": kernel_specific(name="smartfuse"),
        "maxfuse": kernel_specific(name="maxfuse", dimensionality_fusion_heuristic=False),
        "nofuse": kernel_specific(
            name="nofuse", fusion=(FusionSpec(dimension=0, total_distribution=True),)
        ),
    }

    def run():
        table = {}
        for kernel in ("atax", "gemver" if False else "mvt"):
            scop = build_kernel(kernel)
            table[kernel] = {
                name: session.compile(scop, config, label=f"{name}-{kernel}").cycles
                for name, config in variants.items()
            }
        return table

    table = benchmark.pedantic(run, iterations=1, rounds=1)
    assert table
    print("\nfusion heuristic cycles:", table)


@pytest.mark.parametrize("bound", [2, 4])
def test_coefficient_bound_ablation(benchmark, bound):
    def run():
        scop = build_kernel("gemm")
        deps = compute_dependences(scop)
        config = pluto_style()
        config.coefficient_bound = bound
        result = PolyTOPSScheduler(scop, config, dependences=deps).schedule()
        return result.statistics["solves"]

    solved = benchmark.pedantic(run, iterations=1, rounds=1)
    assert solved >= 1


def test_scheduling_time(benchmark):
    """Compile-time cost of the scheduler itself (the paper's tool runs in ms)."""
    scop = build_kernel("2mm")
    deps = compute_dependences(scop)

    def run():
        return PolyTOPSScheduler(scop, pluto_style(), dependences=deps).schedule()

    result = benchmark(run)
    assert not result.fallback_to_original
