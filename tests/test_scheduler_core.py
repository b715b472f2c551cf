"""Behavioural tests of the PolyTOPS scheduler (Algorithm 1) and its configurations."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.deps import compute_dependences
from repro.scheduler import (
    Directive,
    FusionSpec,
    PolyTOPSScheduler,
    SchedulingError,
    isl_style,
    kernel_specific,
    pluto_style,
    tensor_scheduler_style,
)
from repro.ilp.solution import IlpSolution
from repro.scheduler.core import _Run
from repro.scheduler.fusion import DistributionDecision
from repro.scheduler.naming import constant_coefficient, iterator_coefficient
from repro.scheduler.progression import ProgressionState
from repro.transform import detect_parallel_dimensions, schedule_is_legal


def _schedule(scop, config=None):
    deps = compute_dependences(scop)
    result = PolyTOPSScheduler(scop, config or pluto_style(), dependences=deps).schedule()
    return result, deps


class TestBasicScheduling:
    def test_gemm_pluto_style_is_legal(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        assert not result.fallback_to_original
        assert schedule_is_legal(result.schedule, result.dependences)

    def test_gemm_schedules_have_equal_dimensionality(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        dims = {s.n_dims for s in result.schedule.statements.values()}
        assert len(dims) == 1

    def test_gemm_has_outer_parallel_dimension(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        assert any(result.schedule.parallel_dims)

    def test_jacobi_pluto_style_finds_skewing(self, jacobi_scop):
        result, _ = _schedule(jacobi_scop)
        assert not result.fallback_to_original
        assert schedule_is_legal(result.schedule, result.dependences)
        # Pluto-style time-skews jacobi-1d: some row mixes t and the space iterator.
        skewed = False
        for statement in jacobi_scop.statements:
            for row in result.schedule.rows_for(statement.name):
                iterator_terms = [
                    name for name in statement.iterators if row.coefficient(name) != 0
                ]
                if len(iterator_terms) > 1:
                    skewed = True
        assert skewed

    def test_jacobi_tensor_style_avoids_skewing(self, jacobi_scop):
        result, _ = _schedule(jacobi_scop, tensor_scheduler_style())
        for statement in jacobi_scop.statements:
            for row in result.schedule.rows_for(statement.name):
                iterator_terms = [
                    name for name in statement.iterators if row.coefficient(name) != 0
                ]
                assert len(iterator_terms) <= 1
        assert schedule_is_legal(result.schedule, result.dependences)

    def test_listing1_tensor_style_interchanges_statement0(self, listing1_scop):
        result, _ = _schedule(listing1_scop, tensor_scheduler_style())
        rows_s0 = result.schedule.rows_for("S0")
        # The paper's motivating transformation: S0 is interchanged so that its
        # innermost dimension is the contiguous iterator i (c[j][i]).
        inner = rows_s0[-1] if rows_s0[-1].coefficients else rows_s0[-2]
        assert inner.coefficient("i") != 0
        outer = rows_s0[0]
        assert outer.coefficient("j") != 0

    def test_sequence_is_fused_by_proximity(self, sequence_scop):
        result, _ = _schedule(sequence_scop)
        assert schedule_is_legal(result.schedule, result.dependences)
        # Proximity pulls the three producer/consumer statements together: at
        # the loop dimension they share the same affine form of their iterator.
        assert result.schedule.n_dims <= 3

    def test_isl_style_runs_and_is_legal(self, jacobi_scop):
        result, _ = _schedule(jacobi_scop, isl_style())
        assert schedule_is_legal(result.schedule, result.dependences)

    def test_statistics_reported(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        assert result.statistics["solves"] >= 1
        assert result.statistics["dimensions"] == result.schedule.n_dims


class TestFusionControl:
    def test_forced_total_distribution(self, sequence_scop):
        config = kernel_specific(
            name="distribute-all",
            fusion=(FusionSpec(dimension=0, total_distribution=True),),
        )
        result, _ = _schedule(sequence_scop, config)
        assert schedule_is_legal(result.schedule, result.dependences)
        # Dimension 0 must be a scalar dimension with three distinct values.
        values = {
            int(result.schedule.rows_for(name)[0].constant) for name in ("S0", "S1", "S2")
        }
        assert len(values) == 3

    def test_explicit_fusion_groups(self, sequence_scop):
        config = kernel_specific(
            name="fuse-first-two",
            fusion=(FusionSpec(dimension=0, groups=(("0", "1"), ("2",))),),
        )
        result, _ = _schedule(sequence_scop, config)
        row0 = {name: int(result.schedule.rows_for(name)[0].constant) for name in ("S0", "S1", "S2")}
        assert row0["S0"] == row0["S1"] != row0["S2"]

    def test_illegal_fusion_order_raises(self, sequence_scop):
        config = kernel_specific(
            name="illegal",
            fusion=(FusionSpec(dimension=0, groups=(("2",), ("0", "1"))),),
        )
        deps = compute_dependences(sequence_scop)
        with pytest.raises(SchedulingError):
            PolyTOPSScheduler(sequence_scop, config, dependences=deps).schedule()

    def test_dimensionality_heuristic_distributes_gemm(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        # S0 (depth 2) and S1 (depth 3) are separated at the outermost scalar dim.
        first_s0 = result.schedule.rows_for("S0")[0]
        first_s1 = result.schedule.rows_for("S1")[0]
        assert first_s0.is_constant() and first_s1.is_constant()
        assert first_s0.constant != first_s1.constant



class TestRunState:
    """The bookkeeping of one run of Algorithm 1 (``scheduler.core._Run``) on
    the S0 -> S1 -> S2 chain (dependences 0 and 1)."""

    @staticmethod
    def _run(scheduler):
        statements = scheduler.statements
        return _Run(ProgressionState(statements), {s.name: [] for s in statements}, [0, 1])

    def test_restore_undoes_exactly_the_last_ilp_row(self, sequence_scop):
        scheduler = PolyTOPSScheduler(sequence_scop)
        run = self._run(scheduler)
        run.satisfied, run.dimension = {1: 0}, 1  # S1 -> S2 carried earlier
        values = {
            iterator_coefficient(s.name, s.iterators[0]): Fraction(1)
            for s in scheduler.statements
        }
        values[constant_coefficient("S1")] = Fraction(1)
        scheduler._append_solution(run, IlpSolution(values, []))
        assert [str(rows[-1]) for rows in run.rows.values()] == ["i", "j + 1", "k"]
        assert run.satisfied == {1: 0, 0: 1}
        assert (run.bands, run.parallel, run.last_parallel) == ([0], [False], False)
        assert (run.dimension, run.undo) == (2, 1)
        assert all(run.progression.rank(name) == 1 for name in run.rows)
        run.restore()
        assert run.rows == {"S0": [], "S1": [], "S2": []}
        assert (run.bands, run.parallel, run.satisfied) == ([], [], {1: 0})
        assert (run.dimension, run.undo) == (1, None)
        assert all(run.progression.rank(name) == 0 for name in run.rows)

    def test_distribution_keeps_an_earlier_carrying_dimension(self, sequence_scop):
        scheduler = PolyTOPSScheduler(sequence_scop)
        run = self._run(scheduler)
        run.satisfied, run.dimension, run.undo = {0: 0}, 1, 0
        scheduler._distribute(run, DistributionDecision((("S0",), ("S1", "S2")), "config"))
        # S0 -> S1 is separated but was carried at dimension 0 already; it
        # leaves the active set.  S1 -> S2 is not separated and stays.
        assert run.satisfied == {0: 0} and run.active == [1]
        assert [str(rows[-1]) for rows in run.rows.values()] == ["0", "1", "1"]
        assert (run.bands, run.parallel) == ([0], [False])
        assert (run.band, run.dimension, run.last_parallel, run.undo) == (1, 2, False, None)
        assert not run.drop_satisfied() and run.active == [1]
        scheduler._distribute(run, DistributionDecision((("S0", "S1"), ("S2",)), "config"))
        assert run.satisfied == {0: 0, 1: 2} and run.active == []

class TestDirectivesAndConstraints:
    def test_vectorize_directive_recorded(self, gemm_scop):
        config = kernel_specific(
            name="vec",
            directives=(Directive(kind="vectorize", statements=("1",), iterator="j"),),
        )
        result, _ = _schedule(gemm_scop, config)
        assert result.schedule.vectorized.get("S1") == "j"
        assert schedule_is_legal(result.schedule, result.dependences)

    def test_auto_vectorization_detects_contiguous_iterator(self, gemm_scop):
        config = kernel_specific(name="autovec", auto_vectorize=True)
        result, _ = _schedule(gemm_scop, config)
        assert result.schedule.vectorized.get("S1") == "j"

    def test_illegal_directive_is_dropped(self, jacobi_scop):
        # Asking for the time loop to be parallel cannot be satisfied; the
        # scheduler must drop the directive rather than fail.
        config = kernel_specific(
            name="bad-directive",
            directives=(Directive(kind="parallel", statements=("0", "1")),),
        )
        result, _ = _schedule(jacobi_scop, config)
        assert not result.fallback_to_original
        assert schedule_is_legal(result.schedule, result.dependences)

    def test_parallel_directive_blocks_are_remembered_on_the_dependence(self):
        """Both halves of the zero-distance rows live on the dependence: a
        second run against the same dependences linearises nothing."""
        from repro.suites.polybench import build_kernel

        scop = build_kernel("jacobi-2d")
        config = kernel_specific(
            name="bad-directive",
            directives=(Directive(kind="parallel", statements=("0", "1")),),
        )
        deps = compute_dependences(scop)
        first = PolyTOPSScheduler(scop, config, dependences=deps).schedule()
        second = PolyTOPSScheduler(scop, config, dependences=deps).schedule()
        assert first.schedule.statements == second.schedule.statements
        assert first.statistics["fm_rows_generated"] > 0
        assert second.statistics["fm_rows_generated"] == 0
        blocks = [
            key
            for dependence in first.dependences
            for key in dependence._memo or {}
            if key[0] != "empty"
        ]
        assert ("reversed legality", 0) in blocks
        # Each block linearised by the first run is one more reuse in the second.
        reused = second.statistics["farkas_blocks_reused"]
        assert reused == first.statistics["farkas_blocks_reused"] + len(blocks)

    def test_sequential_directive_removes_parallel_annotations(self, gemm_scop):
        """A ``sequential`` statement adds no constraint: the scheduler's rows
        and parallel flags stay, but no loop enclosing it is annotated
        parallel in the C, the AST or the execution statistics."""
        from repro import compile
        from repro.codegen import CallNode, Executor, LoopNode, generate_ast
        from repro.pipeline.serialize import decode_schedule, encode_schedule

        def compiled(directives):
            result = compile(
                gemm_scop, kernel_specific(name="seq", directives=directives), machine="Intel1"
            )
            ast = generate_ast(gemm_scop, result.schedule, result.tiling)
            return result, ast, Executor(gemm_scop).run(ast, gemm_scop.allocate_arrays())

        base, base_ast, base_stats = compiled(())
        seq, seq_ast, seq_stats = compiled((Directive("sequential", ("0",)),))
        assert base.schedule.sequential == () and seq.schedule.sequential == ("S0",)
        assert seq.schedule.statements == base.schedule.statements
        assert seq.schedule.parallel_dims == base.schedule.parallel_dims == [
            False, True, True, False
        ]

        def parallel_loops(ast):
            return [
                {call.statement.name for call in node.walk() if isinstance(call, CallNode)}
                for node in ast.walk()
                if isinstance(node, LoopNode) and node.is_parallel
            ]

        # Two parallel loops (t1, t2) around each statement's own nest; S0's go.
        assert parallel_loops(base_ast) == [{"S0"}, {"S0"}, {"S1"}, {"S1"}]
        assert parallel_loops(seq_ast) == [{"S1"}, {"S1"}]
        assert base.generated_c.count("#pragma omp parallel for") == 4
        assert seq.generated_c.count("#pragma omp parallel for") == 2

        def without_pragmas(code):
            return [line for line in code.splitlines() if "#pragma omp parallel for" not in line]

        assert without_pragmas(seq.generated_c) == without_pragmas(base.generated_c)
        ni, nj = (gemm_scop.resolved_parameters(None)[name] for name in ("NI", "NJ"))
        assert base_stats.parallel_loops == {"t1": [2, 2 * ni], "t2": [2 * ni, 2 * ni * nj]}
        assert seq_stats.parallel_loops == {"t1": [1, ni], "t2": [ni, ni * nj]}
        assert seq.report.parallel_entries == 1 < base.report.parallel_entries

        # Serialised only when non-empty, and decoded back.
        assert "sequential" not in encode_schedule(base.schedule)
        assert decode_schedule(encode_schedule(seq.schedule)).sequential == ("S0",)
        assert seq.schedule.copy().sequential == ("S0",)

    def test_sequential_directive_survives_the_fallback(self):
        """doitgen falls back to the original schedule under the proximity
        strategy; that schedule still names the sequential statements (in
        statement order), so a later parallelism pass cannot annotate them."""
        from repro.suites.polybench import build_kernel

        config = kernel_specific(name="seq", directives=(Directive("sequential", ("1", "0")),))
        result = PolyTOPSScheduler(build_kernel("doitgen"), config).schedule()
        assert result.fallback_to_original
        assert result.schedule.sequential == ("S0", "S1")

    def test_custom_constraint_disables_skewing(self, jacobi_scop):
        config = kernel_specific(name="noskew", constraints=("no-skewing",))
        result, _ = _schedule(jacobi_scop, config)
        for statement in jacobi_scop.statements:
            for row in result.schedule.rows_for(statement.name):
                nonzero = [n for n in statement.iterators if row.coefficient(n) != 0]
                assert len(nonzero) <= 1

    def test_custom_constraint_on_specific_coefficient(self, gemm_scop):
        # Force the k coefficient of S1 to stay zero on every dimension except
        # the last one it needs; combined with legality this pushes k innermost.
        config = kernel_specific(name="custom", constraints=("S1_it_0 >= 0",))
        result, _ = _schedule(gemm_scop, config)
        assert schedule_is_legal(result.schedule, result.dependences)


class TestResultBookkeeping:
    def test_all_dependences_strongly_satisfied_for_gemm(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        assert result.unsatisfied_dependences() == []

    def test_parallel_detection_matches_recomputation(self, gemm_scop):
        result, _ = _schedule(gemm_scop)
        recomputed = detect_parallel_dimensions(result.schedule, result.dependences)
        assert recomputed == list(result.schedule.parallel_dims)

    def test_scheduler_with_explicit_dependences(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        result = PolyTOPSScheduler(gemm_scop, pluto_style(), dependences=deps).schedule()
        assert len(result.dependences) <= len(deps)  # duplicates are merged

    def test_empty_scop(self):
        from repro.model import ScopBuilder

        scop = ScopBuilder("empty").build()
        result = PolyTOPSScheduler(scop, pluto_style(), dependences=[]).schedule()
        assert result.schedule.n_dims == 0


class TestBuildContextRows:
    """``IlpBuildContext.add_rows``: the one way a row enters a scheduling ILP."""

    @staticmethod
    def _context(gemm_scop):
        from repro.ilp import LinearProblem
        from repro.scheduler.context import IlpBuildContext

        problem = LinearProblem()
        for name in ("x", "y"):
            problem.add_variable(name, 0, 4)
        return IlpBuildContext(
            problem, gemm_scop, gemm_scop.statements, [], 0, {}, pluto_style()
        )

    def test_first_occurrence_is_kept_in_order(self, gemm_scop):
        from fractions import Fraction

        from repro.ilp import ConstraintSense, LinearConstraint

        context = self._context(gemm_scop)
        a = LinearConstraint({"x": 1}, ConstraintSense.GE, 1)
        b = LinearConstraint({"x": 1, "y": -1}, ConstraintSense.EQ, 0)
        c = LinearConstraint({"y": 1}, ConstraintSense.GE, 2)
        again_a = LinearConstraint({"x": Fraction(1)}, ConstraintSense.GE, Fraction(1))
        context.add_rows([a, b])
        context.add_rows([again_a, c, b])
        assert context.problem.constraints == [a, b, c]
        assert context.problem.constraints[0] is a

    def test_a_cost_function_row_over_an_undeclared_variable_is_a_key_error(
        self, gemm_scop, monkeypatch
    ):
        from repro.ilp import ConstraintSense, LinearConstraint
        from repro.scheduler.config import DimensionConfig
        from repro.scheduler.cost import CostFunction, base
        from repro.scheduler.ilp_builder import IlpBuilder
        from repro.scheduler.progression import ProgressionState

        class Ghostly(CostFunction):
            name = "ghostly"

            def contribute(self, context):
                context.add_rows([LinearConstraint({"ghost": 1}, ConstraintSense.GE, 0)])

        monkeypatch.setitem(base._REGISTRY, Ghostly.name, Ghostly)
        builder = IlpBuilder(gemm_scop, pluto_style(), {})
        with pytest.raises(KeyError, match="ghost"):
            builder.build(
                0,
                compute_dependences(gemm_scop),
                ProgressionState(gemm_scop.statements),
                DimensionConfig(cost_functions=(Ghostly.name,)),
            )

    def test_the_repeated_infeasible_progression_row_is_added_once(self, monkeypatch):
        """cholesky under isl_style: several statements' progression rows
        cancel to ``0 >= 1`` in one build; the problem holds that row once."""
        from repro.scheduler import ilp_builder
        from repro.scheduler.progression import ProgressionState
        from repro.suites.polybench import build_kernel

        offered: list[int] = []
        problems = []
        original_rows = ProgressionState.rows
        original_build = ilp_builder.IlpBuilder.build

        def counting_rows(state, statement):
            rows = original_rows(state, statement)
            offered[-1] += sum(1 for row in rows if not row.coefficients)
            return rows

        def counting_build(self, *args, **kwargs):
            offered.append(0)
            problem = original_build(self, *args, **kwargs)
            problems.append(problem)
            return problem

        monkeypatch.setattr(ProgressionState, "rows", counting_rows)
        monkeypatch.setattr(ilp_builder.IlpBuilder, "build", counting_build)
        _schedule(build_kernel("cholesky"), isl_style())
        assert max(offered) > 1
        for count, problem in zip(offered, problems):
            held = [row for row in problem.constraints if not row.coefficients]
            assert len(held) == min(count, 1)
            assert all(row.rhs == 1 for row in held)

    def test_builds_at_one_progression_state_hold_its_rows_themselves(self, gemm_scop):
        """A statement's Eq. 3 rows are built once per span: every build at
        that state (a directive attempt and its retry, a band-closing retry)
        holds the very same objects, and so does a build after a recorded
        row that adds nothing to the span.  With the Farkas blocks remembered
        on the dependences, such a rebuild is the same list of objects."""
        from repro.scheduler.config import DimensionConfig
        from repro.scheduler.ilp_builder import IlpBuilder
        from repro.scheduler.progression import ProgressionState

        builder = IlpBuilder(gemm_scop, pluto_style(), {})
        progression = ProgressionState(gemm_scop.statements)
        dependences = compute_dependences(gemm_scop)

        def build():
            return builder.build(0, dependences, progression, DimensionConfig(("proximity",)))

        first = build()
        for statement in gemm_scop.statements:
            progression.record(statement.name, [0] * statement.depth)
        second = build()
        assert len(second.constraints) == len(first.constraints)
        assert all(a is b for a, b in zip(first.constraints, second.constraints))
        held = {id(row) for row in first.constraints}
        assert any(
            id(row) in held
            for statement in gemm_scop.statements
            for row in progression.rows(statement.name)
        )
