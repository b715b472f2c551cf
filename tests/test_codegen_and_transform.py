"""Code generation, execution-based legality validation and post-processing tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import (
    CallNode,
    GuardNode,
    LoopNode,
    count_guards,
    count_loops,
    generate_ast,
    run_original,
    run_schedule,
    to_c,
)
from repro.deps import compute_dependences
from repro.scheduler import (
    PolyTOPSScheduler,
    isl_style,
    pluto_style,
    tensor_scheduler_style,
)
from repro.transform import (
    apply_wavefront,
    band_is_permutable,
    compute_tiling,
    detect_parallel_dimensions,
    schedule_is_legal,
)


def _transformed(scop, config):
    deps = compute_dependences(scop)
    result = PolyTOPSScheduler(scop, config, dependences=deps).schedule()
    return result


def _arrays_match(scop, schedule, tiling=None):
    reference = scop.allocate_arrays()
    run_original(scop, reference)
    transformed = scop.allocate_arrays()
    run_schedule(scop, schedule, transformed, tiling=tiling)
    return all(np.allclose(reference[name], transformed[name]) for name in reference)


class TestGenerator:
    def test_original_schedule_executes_all_instances(self, gemm_scop):
        arrays = gemm_scop.allocate_arrays()
        stats = run_original(gemm_scop, arrays)
        # 10x10 init instances + 10x10x10 update instances
        assert stats.instances == 100 + 1000
        assert stats.per_statement["S1"] == 1000

    def test_ast_structure(self, gemm_scop):
        ast = generate_ast(gemm_scop, gemm_scop.original_schedule())
        assert count_loops(ast) > 0
        assert count_guards(ast) > 0
        kinds = {type(node) for node in ast.walk()}
        assert LoopNode in kinds and GuardNode in kinds and CallNode in kinds

    def test_scalar_dimension_splits_statements(self, sequence_scop):
        ast = generate_ast(sequence_scop, sequence_scop.original_schedule())
        # Three separate loop nests at the top level (one per statement).
        top_loops = [node for node in ast.body if isinstance(node, LoopNode)]
        assert len(top_loops) == 3

    def test_c_writer_output(self, gemm_scop):
        ast = generate_ast(gemm_scop, gemm_scop.original_schedule())
        code = to_c(gemm_scop, ast)
        assert "for (int" in code
        assert "C[i][j]" in code

    def test_c_writer_pragmas_for_parallel_loops(self, listing1_scop):
        result = _transformed(listing1_scop, tensor_scheduler_style())
        result.schedule.parallel_dims = detect_parallel_dimensions(
            result.schedule, result.dependences
        )
        code = to_c(listing1_scop, generate_ast(listing1_scop, result.schedule))
        assert "#pragma omp parallel for" in code


class TestSemanticEquivalence:
    """Transformed schedules must compute exactly what the original code computes."""

    @pytest.mark.parametrize("config_factory", [pluto_style, tensor_scheduler_style, isl_style])
    def test_gemm_all_strategies(self, gemm_scop, config_factory):
        result = _transformed(gemm_scop, config_factory())
        assert _arrays_match(gemm_scop, result.schedule)

    @pytest.mark.parametrize("config_factory", [pluto_style, tensor_scheduler_style])
    def test_jacobi_all_strategies(self, jacobi_scop, config_factory):
        result = _transformed(jacobi_scop, config_factory())
        assert _arrays_match(jacobi_scop, result.schedule)

    def test_listing1_interchange(self, listing1_scop):
        result = _transformed(listing1_scop, tensor_scheduler_style())
        assert _arrays_match(listing1_scop, result.schedule)

    def test_sequence_fusion(self, sequence_scop):
        result = _transformed(sequence_scop, pluto_style())
        assert _arrays_match(sequence_scop, result.schedule)

    def test_gemm_tiled_execution(self, gemm_scop):
        result = _transformed(gemm_scop, pluto_style())
        tiling = compute_tiling(result.schedule, result.dependences, tile_sizes=(4, 4, 4))
        assert tiling.bands, "gemm must expose a tilable band"
        assert _arrays_match(gemm_scop, result.schedule, tiling)

    def test_wavefront_execution(self, jacobi_scop):
        result = _transformed(jacobi_scop, pluto_style())
        skewed, _applied = apply_wavefront(result.schedule, result.dependences)
        assert _arrays_match(jacobi_scop, skewed)


class TestTransform:
    def test_parallel_detection_listing1(self, listing1_scop):
        result = _transformed(listing1_scop, tensor_scheduler_style())
        parallel = detect_parallel_dimensions(result.schedule, result.dependences)
        assert all(parallel)  # both dimensions of a fully parallel kernel

    def test_parallel_detection_jacobi_time_loop(self, jacobi_scop):
        schedule = jacobi_scop.original_schedule()
        deps = compute_dependences(jacobi_scop)
        parallel = detect_parallel_dimensions(schedule, deps)
        # Dimension 0 of the 2d+1 schedule is a constant; dimension 1 is the
        # time loop, which carries dependences and cannot be parallel.
        assert parallel[1] is False

    def test_schedule_is_legal_detects_violation(self, jacobi_scop):
        deps = compute_dependences(jacobi_scop)
        schedule = jacobi_scop.original_schedule()
        assert schedule_is_legal(schedule, deps)
        # Reversing the time loop breaks every time-carried dependence.
        from repro.model.schedule import StatementSchedule

        broken = schedule.copy()
        for name, statement_schedule in schedule.statements.items():
            rows = list(statement_schedule.rows)
            rows[1] = rows[1] * -1
            broken.statements[name] = StatementSchedule(name, tuple(rows))
        assert not schedule_is_legal(broken, deps)

    def test_tiling_requires_permutable_band(self, gemm_scop):
        result = _transformed(gemm_scop, pluto_style())
        schedule = result.schedule
        bands = [schedule.band_members(band) for band in schedule.band_ids()]
        bands = [members for members in bands if len(members) >= 2]
        assert bands
        assert band_is_permutable(result.schedule, bands[0], result.dependences)

    def test_tiling_spec_sizes(self, gemm_scop):
        result = _transformed(gemm_scop, pluto_style())
        tiling = compute_tiling(result.schedule, result.dependences, tile_sizes=(5,))
        for band in tiling.bands:
            assert all(size == 5 for size in band.tile_sizes)
        assert tiling.size_for(band.dimensions[0]) == 5

    def test_wavefront_only_applies_to_sequential_bands(self, listing1_scop):
        result = _transformed(listing1_scop, tensor_scheduler_style())
        result.schedule.parallel_dims = detect_parallel_dimensions(
            result.schedule, result.dependences
        )
        _schedule, applied = apply_wavefront(result.schedule, result.dependences)
        assert not applied  # already parallel: nothing to do

    def test_wavefront_exposes_parallelism_on_jacobi(self, jacobi_scop):
        result = _transformed(jacobi_scop, pluto_style())
        skewed, applied = apply_wavefront(result.schedule, result.dependences)
        if applied:
            assert any(skewed.parallel_dims[1:])
