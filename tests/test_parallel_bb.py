"""Determinism and cancellation tests for the parallel branch & bound layer.

The contract of :mod:`repro.ilp.parallel`: solving with any number of
workers — threads or processes — returns *bit-identical* solutions to the
sequential engine (same objective values, same chosen assignment, same
winning branch path), because the shared :class:`IncumbentStore` tie-break
(lexicographically smallest branch path on equal values) is exactly the
sequential first-found rule.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.ilp import (
    IlpSolver,
    IncumbentStore,
    LinearProblem,
    SolverOptions,
    WorkerPool,
    solve_lexicographic,
)
from repro.ilp.engine import IncrementalIlpEngine, _BranchNode


def _random_problem(rng: random.Random) -> LinearProblem:
    """Scheduler-shaped random MILP (bounded integers, mixed senses)."""
    problem = LinearProblem()
    n = rng.randint(2, 6)
    names = [f"x{i}" for i in range(n)]
    for name in names:
        problem.add_variable(name, 0, rng.randint(2, 8))
    for _ in range(rng.randint(1, 7)):
        coefficients = {
            name: rng.randint(-3, 3) for name in rng.sample(names, rng.randint(1, n))
        }
        coefficients = {k: v for k, v in coefficients.items() if v}
        if not coefficients:
            continue
        problem.add_constraint(
            coefficients, rng.choice([">=", "<=", "=="]), rng.randint(-5, 9)
        )
    for _ in range(rng.randint(0, 2)):
        objective = {name: rng.randint(-3, 3) for name in names}
        objective = {k: v for k, v in objective.items() if v}
        if objective:
            problem.add_objective(objective)
    return problem


def _branching_heavy() -> LinearProblem:
    """A small knapsack-style MILP whose B&B tree clears the warm-up."""
    problem = LinearProblem()
    coefficients = [2, 3, 5, 7, 11]
    for index, coefficient in enumerate(coefficients):
        problem.add_variable(f"x{index}", 0, 3)
    problem.add_constraint(
        {f"x{index}": value for index, value in enumerate(coefficients)}, "==", 23
    )
    problem.add_objective({f"x{index}": 1 for index in range(len(coefficients))})
    return problem


# --------------------------------------------------------------------------- #
# IncumbentStore semantics (the determinism argument, order-free)
# --------------------------------------------------------------------------- #
class TestIncumbentStore:
    def test_strictly_better_value_wins(self):
        store = IncumbentStore()
        assert store.offer(Fraction(5), (1,), {"x": Fraction(1)})
        assert store.offer(Fraction(3), (1, 1), {"x": Fraction(2)})
        assert store.best()[0] == Fraction(3)

    def test_equal_value_smaller_path_wins_regardless_of_arrival_order(self):
        first = IncumbentStore()
        first.offer(Fraction(3), (0, 1), {"x": Fraction(1)})
        first.offer(Fraction(3), (1, 0), {"x": Fraction(2)})
        second = IncumbentStore()
        second.offer(Fraction(3), (1, 0), {"x": Fraction(2)})
        second.offer(Fraction(3), (0, 1), {"x": Fraction(1)})
        assert first.best() == second.best()
        assert first.path == (0, 1)

    def test_prune_is_strict_on_ties(self):
        store = IncumbentStore()
        store.offer(Fraction(3), (1, 0), None)
        # An equal bound with a smaller path may still hide the tie-break
        # winner: must NOT be pruned.
        assert not store.should_prune(Fraction(3), (0,))
        assert store.should_prune(Fraction(3), (1, 1))
        assert store.should_prune(Fraction(4), (0,))

    def test_no_incumbent_never_prunes(self):
        store = IncumbentStore()
        assert not store.should_prune(Fraction(-100), (1, 1, 1))


# --------------------------------------------------------------------------- #
# Randomised determinism across worker counts
# --------------------------------------------------------------------------- #
class TestWorkerDeterminism:
    def test_workers_1_2_8_return_identical_solutions(self):
        rng = random.Random(20260730)
        solvers = {workers: IlpSolver(options=SolverOptions.resolve(workers=workers)) for workers in (1, 2, 8)}
        try:
            for _ in range(60):
                problem = _random_problem(rng)
                solutions = {
                    workers: solver.solve(problem)
                    for workers, solver in solvers.items()
                }
                base = solutions[1]
                for workers, solution in solutions.items():
                    assert (solution is None) == (base is None), workers
                    if solution is None or base is None:
                        continue
                    assert solution.objective_values == base.objective_values
                    assert solution.assignment == base.assignment, workers
                    # The winning branch path is the tie-break witness.
                    assert solution.node_key == base.node_key, workers
        finally:
            for solver in solvers.values():
                solver.close()

    def test_parallel_matches_oracle_objectives(self):
        rng = random.Random(7)
        parallel = IlpSolver(options=SolverOptions.resolve(workers=4))
        try:
            for _ in range(30):
                problem = _random_problem(rng)
                a = parallel.solve(problem)
                b = solve_lexicographic(problem)
                assert (a is None) == (b is None)
                if a is not None and b is not None:
                    assert a.objective_values == b.objective_values
                    assert problem.is_feasible_assignment(a.assignment)
        finally:
            parallel.close()

    def test_process_mode_is_deterministic_too(self):
        sequential = IlpSolver(options=SolverOptions.resolve(workers=1))
        processes = IlpSolver(options=SolverOptions.resolve(workers=2, processes=True))
        try:
            for seed in range(8):
                problem = _random_problem(random.Random(1000 + seed))
                a = sequential.solve(problem)
                b = processes.solve(problem)
                assert (a is None) == (b is None), seed
                if a is not None and b is not None:
                    assert a.assignment == b.assignment, seed
                    assert a.node_key == b.node_key, seed
            # The heavy problem actually reaches the forked frontier.
            heavy = _branching_heavy()
            assert processes.solve(heavy).assignment == sequential.solve(heavy).assignment
        finally:
            processes.close()


# --------------------------------------------------------------------------- #
# Cancellation: a proven incumbent drains the queue without stale work
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_stale_node_is_dropped_without_reoptimising(self):
        """A queued node that can no longer win is discarded pre-expansion."""
        problem = _branching_heavy()
        engine = IncrementalIlpEngine(problem)
        tableau = engine._build_root()
        assert tableau is not None
        objective = dict(problem.objectives[0])
        costs, scale, offset = engine._encode_objective(objective)
        tableau.set_objective(costs)
        from repro.ilp.simplex import LpStatus

        assert tableau.primal_simplex() is LpStatus.OPTIMAL
        stage_args = (objective, scale, offset, False)

        store = IncumbentStore()
        children = engine._process_node(
            _BranchNode(tableau, None, (), None), store, *stage_args
        )
        assert len(children) == 2  # the relaxation is fractional: it branched
        # An incumbent that already beats everything below the ceil child:
        store.offer(Fraction(-10**6), (0,), {"x0": Fraction(0)})
        pivots_before = engine.stats.pivots
        stale = engine.stats.stale_drops
        assert engine._process_node(children[1], store, *stage_args) == []
        assert engine.stats.stale_drops == stale + 1
        # Dropped from the parent bound alone: no dual simplex, no pivots.
        assert engine.stats.pivots == pivots_before

    def test_feasibility_stale_nodes_do_not_charge_the_node_budget(self):
        """The sequential early break never pops stale nodes; neither may the
        threaded drain charge them, or a node_limit that workers=1 satisfies
        could flakily trip at workers>1."""
        problem = LinearProblem()
        coefficients = [2, 3, 5, 7, 11]
        for index, coefficient in enumerate(coefficients):
            problem.add_variable(f"x{index}", 0, 3)
        problem.add_constraint(
            {f"x{index}": value for index, value in enumerate(coefficients)},
            "==",
            23,
        )  # feasibility-only: no objective
        sequential = IlpSolver(options=SolverOptions.resolve(workers=1))
        base = sequential.solve(problem)
        budget = sequential.statistics_summary()["nodes"] + 2
        for _ in range(5):
            solver = IlpSolver(options=SolverOptions.resolve(workers=4, node_limit=budget))
            try:
                solution = solver.solve(problem)
                assert solution is not None
                assert solution.assignment == base.assignment
                assert solution.node_key == base.node_key
            finally:
                solver.close()

    def test_node_limit_verdict_is_worker_count_independent(self):
        """The node-limit error fires iff the sequential engine would hit it.

        Parallel exploration may overshoot (threads prune late) or undershoot
        (process buckets hold private budgets) the budget; on a parallel
        limit error the stage retries sequentially, so the verdict matches
        workers=1 either way.
        """
        heavy = _branching_heavy()
        with pytest.raises(RuntimeError, match="node limit"):
            IlpSolver(options=SolverOptions.resolve(workers=1, node_limit=5)).solve(heavy)
        for processes in (False, True):
            parallel = IlpSolver(options=SolverOptions.resolve(workers=4, processes=processes, node_limit=5))
            try:
                with pytest.raises(RuntimeError, match="node limit"):
                    parallel.solve(heavy)
            finally:
                parallel.close()
        # And a budget the sequential engine satisfies must succeed parallel.
        sequential = IlpSolver(options=SolverOptions.resolve(workers=1))
        base = sequential.solve(heavy)
        nodes = sequential.statistics_summary()["nodes"]
        roomy = IlpSolver(options=SolverOptions.resolve(workers=4, node_limit=nodes + 1))
        try:
            assert roomy.solve(heavy).assignment == base.assignment
        finally:
            roomy.close()

    def test_parallel_queue_drains_with_prunes(self):
        """Once optimality is proven, the shared queue drains via prunes."""
        solver = IlpSolver(options=SolverOptions.resolve(workers=4))
        try:
            solution = solver.solve(_branching_heavy())
            stats = solver.statistics_summary()
            assert solution is not None
            assert stats["parallel_stages"] >= 1  # the pool really engaged
            assert stats["bound_prunes"] + stats["stale_drops"] >= 1
            assert sum(stats["worker_nodes"]) > 0
            # Identical to the sequential engine, node path included.
            sequential = IlpSolver(options=SolverOptions.resolve(workers=1)).solve(_branching_heavy())
            assert solution.assignment == sequential.assignment
            assert solution.node_key == sequential.node_key == (0, 1, 0, 0)
        finally:
            solver.close()


# --------------------------------------------------------------------------- #
# Knob plumbing: env var, config JSON, scheduler, pipeline
# --------------------------------------------------------------------------- #
class TestPlumbing:
    def test_env_var_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_ILP_WORKERS", "3")
        assert IlpSolver().workers == 3
        monkeypatch.setenv("REPRO_ILP_WORKERS", "zero")
        with pytest.raises(ValueError, match="REPRO_ILP_WORKERS"):
            IlpSolver()
        monkeypatch.setenv("REPRO_ILP_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            IlpSolver()

    def test_env_var_opts_into_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_ILP_PROCESSES", "1")
        assert IlpSolver().processes is True
        monkeypatch.delenv("REPRO_ILP_PROCESSES")
        assert IlpSolver().processes is False

    def test_explicit_workers_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ILP_WORKERS", "7")
        assert IlpSolver(options=SolverOptions.resolve(workers=2)).workers == 2

    def test_worker_pool_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.executor()
        pool.close()
        pool.close()
        # Usable again after close (lazily recreated).
        assert pool.executor() is not None
        pool.close()

    def test_scheduler_config_round_trips_the_knobs(self):
        from repro.scheduler.config import SchedulerConfig

        config = SchedulerConfig(
            name="par", solver_options=SolverOptions(workers=4, processes=True)
        )
        restored = SchedulerConfig.from_json(config.to_json())
        assert restored.solver_options.workers == 4
        assert restored.solver_options.processes is True
        defaults = SchedulerConfig.from_json(SchedulerConfig().to_json())
        assert defaults.solver_options is None
        # An explicit False survives the round trip (it forces threads even
        # when REPRO_ILP_PROCESSES is set).
        threads = SchedulerConfig(name="thr", solver_options=SolverOptions(processes=False))
        assert SchedulerConfig.from_json(threads.to_json()).solver_options.processes is False

    def test_config_false_forces_threads_over_the_environment(self, monkeypatch):
        import dataclasses

        from repro.scheduler.core import PolyTOPSScheduler
        from repro.scheduler.strategies import pluto_style
        from repro.suites.polybench.blas import gemm

        monkeypatch.setenv("REPRO_ILP_PROCESSES", "1")
        config = dataclasses.replace(
            pluto_style(), solver_options=SolverOptions(workers=2, processes=False)
        )
        scheduler = PolyTOPSScheduler(gemm(6, 6, 6), config)
        assert scheduler.solver.processes is False
        config_default = dataclasses.replace(
            pluto_style(), solver_options=SolverOptions.resolve(workers=2)
        )
        scheduler = PolyTOPSScheduler(gemm(6, 6, 6), config_default)
        assert scheduler.solver.processes is True

    def test_scheduler_produces_identical_schedules_across_workers(self):
        import dataclasses

        from repro.scheduler.core import PolyTOPSScheduler
        from repro.scheduler.strategies import pluto_style
        from repro.suites.polybench.blas import gemm

        scop = gemm(6, 6, 6)
        base = PolyTOPSScheduler(scop, pluto_style()).schedule()
        config = dataclasses.replace(
            pluto_style(), solver_options=SolverOptions.resolve(workers=4)
        )
        parallel = PolyTOPSScheduler(scop, config).schedule()
        for statement in scop.statements:
            assert (
                parallel.schedule.statements[statement.name].rows
                == base.schedule.statements[statement.name].rows
            )
        assert parallel.statistics["workers"] == 4

    def test_pipeline_exposes_the_knob_and_the_counters(self):
        from repro.pipeline import Session
        from repro.scheduler.strategies import pluto_style
        from repro.suites.polybench.blas import gemm

        session = Session()
        scop = gemm(6, 6, 6)
        base = session.compile(scop, pluto_style())
        two_workers = SolverOptions.resolve(workers=2)
        parallel = session.compile(scop, pluto_style(), solver=two_workers)
        assert parallel.schedule.statements == base.schedule.statements
        assert parallel.solver_statistics["workers"] == 2
        assert base.solver_statistics["workers"] == 1
        # Different worker counts are distinct cache entries, not collisions.
        assert session.compile(scop, pluto_style(), solver=two_workers) is parallel
        assert any("workers" in line for line in parallel.diagnostics)
