"""Tests for the unified compilation pipeline (repro.pipeline)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.machine import intel_xeon_silver_4215
from repro.pipeline import (
    DEFAULT_STAGES,
    EXPERIMENT_STAGES,
    CompilationJob,
    CompilationResult,
    Session,
    register_stage,
    registered_stages,
    resolve_stage,
    scop_fingerprint,
)
from repro.scheduler import (
    ConfigurationError,
    FusionSpec,
    PlutoBaseline,
    feautrier_style,
    kernel_specific,
    pluto_style,
    tensor_scheduler_style,
)
from repro.suites.polybench import build_kernel

BATCH_KERNELS = ("atax", "bicg", "mvt", "gesummv")


def _session(**kwargs) -> Session:
    kwargs.setdefault("machine", intel_xeon_silver_4215())
    kwargs.setdefault("stages", EXPERIMENT_STAGES)
    return Session(**kwargs)


class TestCompile:
    def test_structured_result(self, gemm_scop):
        session = Session(machine=intel_xeon_silver_4215())  # full DEFAULT_STAGES
        result = session.compile(gemm_scop, pluto_style())
        assert isinstance(result, CompilationResult)
        assert result.kernel == "gemm"
        assert result.configuration == "pluto-style"
        assert result.machine == "Intel2"
        assert result.ok and not result.failed
        assert result.legal is True
        assert result.schedule.n_dims >= 1
        assert result.dependences
        assert "for" in result.generated_c
        assert result.cycles and result.cycles > 0
        assert set(DEFAULT_STAGES) <= set(result.stage_timings)
        assert "pluto-style" in result.summary()

    def test_evaluate_reuses_the_ast_the_codegen_stage_built(self, gemm_scop, monkeypatch):
        from repro.codegen import generator
        from repro.machine import cost_model
        from repro.pipeline import stages

        calls = []

        def counting(scop, schedule, tiling=None):
            calls.append(tiling)
            return generator.generate_ast(scop, schedule, tiling)

        monkeypatch.setattr(stages, "generate_ast", counting)
        monkeypatch.setattr(cost_model, "generate_ast", counting)
        machine = intel_xeon_silver_4215()
        reused = Session(machine=machine).compile(gemm_scop, pluto_style())
        assert calls == [None]  # one scan of the schedule: codegen's, costed by evaluate
        fresh = _session(machine=machine).compile(gemm_scop, pluto_style())  # no codegen stage
        assert len(calls) == 2
        assert reused.report == fresh.report

    def test_tiled_compile_emits_the_tiled_code_it_costed(self, gemm_scop):
        """``CodegenStage`` scans ``(schedule, tiling)``: one AST, emitted and costed."""
        from repro.codegen import generate_ast, to_c
        from repro.machine import CostModel

        machine = intel_xeon_silver_4215()
        tiled = Session(machine=machine).compile(
            gemm_scop, dataclasses.replace(pluto_style(), tile_sizes=(4, 4, 4))
        )
        assert tiled.tiling is not None and tiled.tiling.bands
        tiled_ast = generate_ast(gemm_scop, tiled.schedule, tiled.tiling)
        assert tiled.generated_c == to_c(gemm_scop, tiled_ast)
        # The tile loops of the band (named after its dimensions: tt1, tt2, tt3 here).
        assert all(f"int tt{d} = " in tiled.generated_c for d in tiled.tiling.bands[0].dimensions)
        assert tiled.report == CostModel(machine).evaluate(gemm_scop, tiled.schedule, tiled.tiling)
        assert tiled.report != CostModel(machine).evaluate(gemm_scop, tiled.schedule)

    def test_compile_without_machine_skips_evaluation(self, gemm_scop):
        session = Session()  # no machine model anywhere
        result = session.compile(gemm_scop, pluto_style())
        assert result.report is None and result.cycles is None
        assert any("evaluation skipped" in note for note in result.diagnostics)
        assert result.legal is True

    def test_default_config_is_pluto_style(self, gemm_scop):
        session = _session()
        result = session.compile(gemm_scop)
        assert result.configuration == "pluto-style"


class TestSessionCaches:
    def test_result_cache_returns_identical_object(self, gemm_scop):
        session = _session()
        first = session.compile(gemm_scop, pluto_style())
        second = session.compile(gemm_scop, pluto_style())
        assert first is second
        assert session.statistics["result_hits"] == 1
        assert session.statistics["result_misses"] == 1

    def test_second_compile_skips_dependence_analysis(self, gemm_scop):
        session = _session()
        session.compile(gemm_scop, pluto_style())
        assert session.statistics["dependence_misses"] == 1
        # Different configuration, same SCoP: dependences come from the cache.
        session.compile(gemm_scop, tensor_scheduler_style())
        assert session.statistics["dependence_misses"] == 1
        assert session.statistics["dependence_hits"] == 1

    def test_cache_is_content_addressed(self):
        # A structurally identical SCoP built twice shares the cache entries.
        session = _session()
        first = session.compile(build_kernel("atax"), pluto_style())
        second = session.compile(build_kernel("atax"), pluto_style())
        assert first is second
        assert scop_fingerprint(build_kernel("atax")) == scop_fingerprint(build_kernel("atax"))

    def test_sizes_share_dependences_but_not_results(self):
        # The structural fingerprint is symbolic: problem sizes do not change
        # the dependences, so both sizes share one dependence-cache entry ...
        small_scop = build_kernel("gemm", size_scale=0.5)
        large_scop = build_kernel("gemm")
        assert scop_fingerprint(small_scop) == scop_fingerprint(large_scop)
        session = _session()
        small = session.compile(small_scop, pluto_style())
        large = session.compile(large_scop, pluto_style())
        # ... while the concrete parameter values key the result cache apart.
        assert session.statistics["dependence_misses"] == 1
        assert small is not large
        assert small.cycles < large.cycles

    def test_clear_drops_caches(self, gemm_scop):
        session = _session()
        session.compile(gemm_scop, pluto_style())
        assert session.cached_results == 1
        session.clear()
        assert session.cached_results == 0

    def test_relabeling_does_not_rerun_the_pipeline(self, gemm_scop):
        session = _session()
        first = session.compile(gemm_scop, pluto_style(), label="isl")
        second = session.compile(gemm_scop, pluto_style())  # default label
        assert session.statistics["result_misses"] == 1  # one pipeline run
        assert first.configuration == "isl"
        assert second.configuration == "pluto-style"
        assert second.schedule is first.schedule  # shared underlying artifacts
        # Repeats under either label keep returning the interned objects.
        assert session.compile(gemm_scop, pluto_style(), label="isl") is first
        assert session.compile(gemm_scop, pluto_style()) is second

    def test_compile_best_picks_minimum_and_caches(self, gemm_scop):
        session = _session()
        candidates = [pluto_style(), tensor_scheduler_style()]
        best = session.compile_best(gemm_scop, candidates, label="best")
        assert best.configuration == "best"
        for config in candidates:
            assert best.cycles <= session.compile(gemm_scop, config).cycles
        assert session.compile_best(gemm_scop, candidates, label="best") is best

    def test_best_of_hits_keep_the_hit_counters_consistent(self):
        session = _session()
        scop = build_kernel("atax")
        candidates = [pluto_style(), feautrier_style()]
        session.compile_best(scop, candidates)
        session.compile_baseline(scop, PlutoBaseline())
        before = dict(session.statistics)
        # Answered by the best-of aliases: one memory hit each.
        session.compile_best(scop, candidates)
        session.compile_baseline(scop, PlutoBaseline())
        after = session.statistics
        assert after["result_hits"] - before["result_hits"] == 2
        assert after["memory_hits"] - before["memory_hits"] == 2
        assert after["result_hits"] == after["memory_hits"] + after["store_hits"]


SWEEP_STRATEGIES = (
    "pluto_style",
    "tensor_scheduler_style",
    "isl_style",
    "feautrier_style",
    "big_loops_first_style",
)


class TestStrategySweepSharesWhatWasProved:
    """One kernel under many strategies: the dependences remember, the answers do not move."""

    STAGES = ("dependences", "schedule", "postprocess", "legality")

    @staticmethod
    def _jobs():
        from repro.scheduler import strategies

        return [
            CompilationJob(scop=build_kernel(kernel), config=getattr(strategies, name)())
            for kernel in ("cholesky", "trisolv")
            for name in SWEEP_STRATEGIES
        ]

    @staticmethod
    def _answers(result, solves):
        from repro.pipeline.serialize import encode_schedule

        assert not result.error
        return (
            encode_schedule(result.schedule),
            result.legal,
            list(result.schedule.parallel_dims),
            result.failed,
            solves,
        )

    @pytest.fixture
    def solves(self, monkeypatch):
        """Per scheduling run, in start order: every ILP's objective values and node_key."""
        from repro.scheduler import PolyTOPSScheduler

        runs: dict[PolyTOPSScheduler, list] = {}
        original = PolyTOPSScheduler._solve

        def recording(scheduler, problem):
            solution = original(scheduler, problem)
            runs.setdefault(scheduler, []).append(
                None if solution is None else (solution.objective_values, solution.node_key)
            )
            return solution

        monkeypatch.setattr(PolyTOPSScheduler, "_solve", recording)
        return runs

    def test_one_session_equals_fresh_sessions(self, solves):
        fresh = [
            Session(stages=self.STAGES).compile(job.scop, job.config) for job in self._jobs()
        ]
        fresh = [self._answers(r, trace) for r, trace in zip(fresh, solves.values())]
        solves.clear()
        session = Session(stages=self.STAGES)
        shared = [session.compile(job.scop, job.config) for job in self._jobs()]
        statistics = [result.solver_statistics for result in shared]
        for result in shared:  # the schedule-stage diagnostic line says what was reused
            counts = result.solver_statistics
            line = (
                f"remembered: {counts['probe_verdicts_reused']} verdicts, "
                f"{counts['farkas_blocks_reused']} farkas blocks"
            )
            assert any(line in note for note in result.diagnostics)
        shared = [self._answers(r, trace) for r, trace in zip(shared, solves.values())]
        assert shared == fresh
        assert session.statistics["dependence_misses"] == 2
        # The first strategy on a kernel linearises; the later ones are handed
        # blocks and verdicts, and say so.  Per strategy, in SWEEP_STRATEGIES
        # order: (fm_rows_generated, farkas_blocks_reused, probe_verdicts_reused),
        # exact — sharing that silently stops moves one; on an intended change,
        # paste the new numbers.
        assert [
            (s["fm_rows_generated"], s["farkas_blocks_reused"], s["probe_verdicts_reused"])
            for s in statistics
        ] == [
            (550, 66, 0), (0, 90, 27), (277, 36, 17), (0, 48, 13), (0, 90, 27),  # cholesky
            (228, 24, 0), (0, 38, 12), (115, 21, 10), (0, 28, 8), (0, 38, 12),  # trisolv
        ]

    def test_parallel_workers_sharing_dependences_agree_with_fresh_sessions(
        self, solves, compile_on_threads
    ):
        fresh = [
            Session(stages=self.STAGES).compile(job.scop, job.config) for job in self._jobs()
        ]
        fresh_solves = sorted(map(repr, solves.values()))
        solves.clear()
        results = compile_on_threads(Session(stages=self.STAGES), self._jobs(), threads=2)
        assert [self._answers(r, None) for r in results] == [
            self._answers(r, None) for r in fresh
        ]
        # Which worker ran which job is not observable; the multiset of runs is.
        assert sorted(map(repr, solves.values())) == fresh_solves


class TestCompileMany:
    def test_matches_sequential_compiles(self):
        config = pluto_style()
        sequential = [
            _session().compile(build_kernel(name), config) for name in BATCH_KERNELS
        ]
        batch = _session().compile_many(
            [CompilationJob(build_kernel(name), config) for name in BATCH_KERNELS]
        )
        assert [r.kernel for r in batch] == list(BATCH_KERNELS)  # input order kept
        for ours, reference in zip(batch, sequential):
            assert ours.schedule == reference.schedule
            assert ours.cycles == pytest.approx(reference.cycles)
            assert ours.failed == reference.failed

    def test_parallel_equals_serial_on_shared_session(self, compile_on_threads):
        jobs = [CompilationJob(build_kernel(name), pluto_style()) for name in BATCH_KERNELS]
        serial = _session().compile_many(jobs)
        parallel = compile_on_threads(_session(), jobs, threads=4)
        assert [r.schedule for r in serial] == [r.schedule for r in parallel]

    def test_accepts_bare_scops_and_tuples(self, gemm_scop):
        session = _session()
        results = session.compile_many([gemm_scop, (gemm_scop, tensor_scheduler_style())])
        assert results[0].configuration == "pluto-style"
        assert results[1].configuration == "tensor-scheduler-style"

    def test_bad_job_type_raises(self):
        with pytest.raises(TypeError):
            _session().compile_many(["not a job"])

    def test_one_way_in_retired_options_are_type_errors(self, gemm_scop):
        """Each had no caller outside tests; none left an alias behind."""
        from repro import compile_many, compute_dependences
        from repro.transform import compute_tiling

        result = _session().compile(gemm_scop)
        for call in (
            lambda: _session().compile_many([gemm_scop], parallel=4),
            lambda: compile_many([gemm_scop], parallel=4),
            lambda: Session(use_tiling=True),
            lambda: Session(tile_sizes=(4, 4, 4)),
            lambda: compute_dependences(gemm_scop, include_flow=False),
            lambda: compute_dependences(gemm_scop, include_anti=False),
            lambda: compute_dependences(gemm_scop, include_output=False),
            lambda: compute_dependences(gemm_scop, deduplicate=True),
            lambda: compute_tiling(result.schedule, result.dependences, minimum_band_size=1),
            lambda: compute_tiling(result.schedule, result.dependences, verify_permutability=False),
        ):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                call()


class TestDiagnostics:
    def test_illegal_fusion_is_captured_not_raised(self, sequence_scop):
        # This fusion order contradicts the producer/consumer chain; the bare
        # scheduler raises SchedulingError (see test_scheduler_core), the
        # pipeline reports it as a failed result with diagnostics.
        config = kernel_specific(
            name="illegal",
            fusion=(FusionSpec(dimension=0, groups=(("2",), ("0", "1"))),),
        )
        result = _session().compile(sequence_scop, config)
        assert result.failed and not result.ok
        assert result.error and "SchedulingError" in result.error
        assert any("fell back to the original" in note for note in result.diagnostics)
        # The fallback still yields the original program order plus numbers.
        assert result.scheduling.fallback_to_original is True
        assert result.cycles > 0

    def test_malformed_config_raises_one_shot_but_is_isolated_in_batch(self, gemm_scop):
        bogus = kernel_specific(name="bogus", cost_functions=("no-such-cost",))
        # One-shot compile: a malformed configuration is a programmer error
        # and propagates (matching the historical harness behaviour) ...
        with pytest.raises(ConfigurationError):
            _session().compile(gemm_scop, bogus)
        # ... while batch mode isolates it as a failed structured result.
        results = _session().compile_many([CompilationJob(gemm_scop, bogus)])
        assert results[0].failed
        assert results[0].error and "ConfigurationError" in results[0].error
        assert any("job failed" in note for note in results[0].diagnostics)

    def test_compile_many_isolates_job_failures(self, gemm_scop):
        class Exploding:
            name = "exploding"

            def run(self, context):
                raise RuntimeError("boom")

        session = Session(
            machine=intel_xeon_silver_4215(),
            stages=("dependences", "schedule", Exploding()),
        )
        ok_session_jobs = [
            CompilationJob(gemm_scop, pluto_style(), label="a"),
            CompilationJob(gemm_scop, pluto_style(), label="b"),
        ]
        results = session.compile_many(ok_session_jobs)
        assert all(r.failed for r in results)
        assert all(r.error and "boom" in r.error for r in results)
        assert [r.configuration for r in results] == ["a", "b"]


class TestStageRegistry:
    def test_builtin_stages_registered(self):
        assert {"dependences", "schedule", "postprocess", "legality", "codegen", "evaluate"} <= set(
            registered_stages()
        )

    def test_unknown_stage_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_stage("no-such-stage")
        with pytest.raises(ConfigurationError):
            Session(stages=("no-such-stage",))

    def test_custom_stage_plugs_in(self, gemm_scop):
        class StampStage:
            name = "stamp"

            def run(self, context):
                context.diagnostics.append("stamped")

        register_stage("stamp", StampStage)
        try:
            session = Session(
                machine=intel_xeon_silver_4215(), stages=(*EXPERIMENT_STAGES, "stamp")
            )
            result = session.compile(gemm_scop, pluto_style())
            assert "stamped" in result.diagnostics
            assert "stamp" in result.stage_timings
        finally:
            from repro.pipeline import stages as stages_module

            stages_module._REGISTRY.pop("stamp", None)
