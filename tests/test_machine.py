"""Tests for the cache simulator, machine models and the cost model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import compute_dependences
from repro.machine import (
    CacheHierarchy,
    CacheLevel,
    CacheLevelSpec,
    MemoryTraceCollector,
    amd_epyc_7452,
    ascend_910,
    estimate_cycles,
    intel_xeon_e5_2683,
    intel_xeon_silver_4215,
    machine_by_name,
)
from repro.scheduler import PolyTOPSScheduler, npu_vectorize_style, pluto_style


class TestCacheLevel:
    def test_repeated_access_hits(self):
        level = CacheLevel(CacheLevelSpec("L1", 1024, 64, 2, 1))
        assert not level.access(0)
        assert level.access(0)
        assert level.access(32)  # same 64-byte line
        assert level.hits == 2 and level.misses == 1

    def test_lru_eviction(self):
        # Direct-mapped-ish: 2 sets x 1 way, 64-byte lines.
        level = CacheLevel(CacheLevelSpec("L1", 128, 64, 1, 1))
        level.access(0)        # set 0
        level.access(128)      # set 0, evicts line 0
        assert not level.access(0)  # miss again

    def test_associativity_retains_ways(self):
        level = CacheLevel(CacheLevelSpec("L1", 256, 64, 2, 1))
        level.access(0)
        level.access(128)      # same set, second way
        assert level.access(0)
        assert level.access(128)

    def test_miss_ratio(self):
        level = CacheLevel(CacheLevelSpec("L1", 1024, 64, 4, 1))
        level.access(0)
        level.access(0)
        assert level.miss_ratio == pytest.approx(0.5)

    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        level = CacheLevel(CacheLevelSpec("L1", 512, 64, 2, 1))
        for address in addresses:
            level.access(address)
        assert level.hits + level.misses == len(addresses)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=50))
    @settings(max_examples=20, deadline=None)
    def test_single_line_never_misses_twice(self, addresses):
        level = CacheLevel(CacheLevelSpec("L1", 512, 64, 2, 1))
        for address in addresses:
            level.access(address)
        assert level.misses == 1  # all addresses map to line 0


class TestCacheHierarchy:
    def test_memory_fallthrough(self):
        hierarchy = CacheHierarchy([CacheLevelSpec("L1", 128, 64, 1, 2)], 100)
        outcome = hierarchy.access(0)
        assert outcome.level is None and outcome.latency_cycles == 100
        outcome = hierarchy.access(0)
        assert outcome.level == "L1" and outcome.latency_cycles == 2

    def test_statistics_and_latency(self):
        hierarchy = CacheHierarchy([CacheLevelSpec("L1", 128, 64, 1, 2)], 100)
        hierarchy.access(0)
        hierarchy.access(0)
        stats = hierarchy.statistics()
        assert stats["L1"]["hits"] == 1 and stats["memory"]["accesses"] == 1
        assert hierarchy.total_latency() == 102

    def test_reset(self):
        hierarchy = CacheHierarchy([CacheLevelSpec("L1", 128, 64, 1, 2)], 100)
        hierarchy.access(0)
        hierarchy.reset_statistics()
        assert hierarchy.total_latency() == 0

    @given(
        st.lists(st.integers(0, 8192), max_size=300),
        st.lists(st.integers(1, 40), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_batches_equal_one_access_at_a_time(self, addresses, batch_sizes):
        specs = [
            CacheLevelSpec("L1", 256, 32, 2, 2),
            CacheLevelSpec("L2", 512, 64, 4, 9),
            CacheLevelSpec("L3", 2048, 64, 2, 30),  # fewer ways than L2: not inclusive
        ]
        single, batched = CacheHierarchy(specs, 100), CacheHierarchy(specs, 100)
        for address in addresses:
            single.access(address)
        start = 0
        while start < len(addresses):
            size = batch_sizes[start % len(batch_sizes)]
            batched.access_many(addresses[start : start + size])
            start += size
        assert batched.statistics() == single.statistics()
        assert batched.total_latency() == single.total_latency()
        assert [list(ways) for ways in batched.levels[0]._sets] == [
            list(ways) for ways in single.levels[0]._sets
        ]

    def test_hierarchy_without_levels_goes_to_memory(self):
        hierarchy = CacheHierarchy([], 100)
        hierarchy.access_many([0, 8, 16])
        assert hierarchy.access(0).level is None
        assert hierarchy.memory_accesses == 4 and hierarchy.total_latency() == 400


class TestMachineModels:
    def test_predefined_machines(self):
        assert amd_epyc_7452().cores == 32
        assert intel_xeon_e5_2683().name == "Intel1"
        assert intel_xeon_silver_4215().cores == 16
        assert ascend_910().requires_explicit_vectorization

    def test_machine_by_name(self):
        assert machine_by_name("amd").name == "AMD"
        assert machine_by_name("ascend910").name == "Ascend910"
        with pytest.raises(KeyError):
            machine_by_name("cray")

    def test_effective_parallelism_caps_at_cores(self):
        machine = intel_xeon_silver_4215()
        assert machine.effective_parallelism(1000) <= machine.cores
        assert machine.effective_parallelism(1) == 1.0


class TestCostModel:
    def test_report_fields(self, gemm_scop):
        report = estimate_cycles(gemm_scop, gemm_scop.original_schedule(), intel_xeon_e5_2683())
        assert report.cycles > 0
        assert report.instances == 1100
        assert report.compute_cycles > 0 and report.memory_cycles > 0
        assert report.kernel == "gemm" and report.machine == "Intel1"

    def test_parallel_schedule_is_faster(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        result = PolyTOPSScheduler(gemm_scop, pluto_style(), dependences=deps).schedule()
        machine = intel_xeon_e5_2683()
        parallel_report = estimate_cycles(gemm_scop, result.schedule, machine)
        sequential_report = estimate_cycles(gemm_scop, gemm_scop.original_schedule(), machine)
        assert parallel_report.cycles < sequential_report.cycles

    def test_npu_rewards_explicit_vectorization(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        machine = ascend_910()
        plain = PolyTOPSScheduler(gemm_scop, pluto_style(), dependences=deps).schedule()
        vectorized = PolyTOPSScheduler(
            gemm_scop, npu_vectorize_style(), dependences=deps
        ).schedule()
        plain_report = estimate_cycles(gemm_scop, plain.schedule, machine)
        vector_report = estimate_cycles(gemm_scop, vectorized.schedule, machine)
        # Without an explicit vectorisation directive the NPU model never uses
        # its vector unit, so the directive-driven schedule must be cheaper.
        assert any(vector_report.vectorized_statements.values())
        assert not any(plain_report.vectorized_statements.values())
        assert vector_report.cycles < plain_report.cycles

    def test_speedup_over(self, gemm_scop):
        machine = intel_xeon_e5_2683()
        report = estimate_cycles(gemm_scop, gemm_scop.original_schedule(), machine)
        assert report.speedup_over(report) == pytest.approx(1.0)

    def test_trace_collector_counts_accesses(self, gemm_scop):
        machine = intel_xeon_e5_2683()
        hierarchy = machine.hierarchy()
        collector = MemoryTraceCollector(gemm_scop, hierarchy)
        from repro.codegen import run_original

        arrays = gemm_scop.allocate_arrays()
        run_original(gemm_scop, arrays, on_instance=collector)
        # 2 accesses per init instance + 4 per update instance.
        assert collector.accesses == 2 * 100 + 4 * 1000
        assert collector.statement_accesses["S1"] == 4000
        assert 0.0 <= collector.miss_ratio() <= 1.0
