"""The engine's branch & bound search: one depth-first driver, one thread.

What pins the search (beside the ``node_key`` goldens and the differentials
against ``solve_lexicographic`` and brute force elsewhere in the suite):

* the incumbent's ``(value, path)`` ordering — strictly better wins, ties go
  to the lexicographically smaller branch path, pruning is strict on ties;
* the bound that rule is applied to is the LP bound rounded up onto the grid
  the stage objective takes its values on (``tests/test_solver_engine.py``
  holds the evidence that it is the right grid);
* a stale node is dropped from its parent's bound alone, and a stage ends —
  leaving its stack unpopped and uncharged — once the incumbent sits on the
  root's rounded bound;
* ``node_limit`` is exact: the search that needs N nodes succeeds at N and
  raises :class:`EngineLimitError` at N - 1;
* nothing in the process environment reaches the solver: the four
  ``REPRO_ILP_*`` names earlier versions read select nothing, start no thread
  and no child process, and change no counter.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
from fractions import Fraction

import pytest

from repro.ilp import EngineLimitError, LinearProblem, LpStatus, SolverOptions
from repro.ilp.engine import IncrementalIlpEngine, _BranchNode, _Incumbent


def _branching_heavy() -> LinearProblem:
    """A small knapsack-style ILP: 26 nodes (39 on the exact bound), winner
    four branches deep; root LP bound 23/11, optimum 3."""
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
# The incumbent's ordering rule (order-free: it names the winner by its path)
# --------------------------------------------------------------------------- #
class TestIncumbentStore:
    def test_strictly_better_value_wins(self):
        store = _Incumbent(Fraction(1))
        assert store.offer(Fraction(5), (1,), {"x": Fraction(1)})
        assert store.offer(Fraction(3), (1, 1), {"x": Fraction(2)})
        assert not store.offer(Fraction(4), (0,), {"x": Fraction(3)})
        assert store.value == Fraction(3)

    def test_equal_value_smaller_path_wins_regardless_of_arrival_order(self):
        first = _Incumbent(Fraction(1))
        first.offer(Fraction(3), (0, 1), {"x": Fraction(1)})
        first.offer(Fraction(3), (1, 0), {"x": Fraction(2)})
        second = _Incumbent(Fraction(1))
        second.offer(Fraction(3), (1, 0), {"x": Fraction(2)})
        second.offer(Fraction(3), (0, 1), {"x": Fraction(1)})
        assert (first.value, first.path, first.assignment) == (
            second.value, second.path, second.assignment
        )
        assert first.path == (0, 1)

    def test_prune_is_strict_on_ties(self):
        store = _Incumbent(Fraction(1))
        store.offer(Fraction(3), (1, 0), None)
        # An equal bound with a smaller path may still hide the tie-break
        # winner: must NOT be pruned.
        assert not store.should_prune(Fraction(3), (0,))
        assert store.should_prune(Fraction(3), (1, 1))
        assert store.should_prune(Fraction(4), (0,))

    def test_no_incumbent_never_prunes(self):
        store = _Incumbent(Fraction(1))
        assert not store.should_prune(Fraction(-100), (1, 1, 1))

    def test_bound_is_rounded_up_onto_the_grid_under_the_same_rule(self):
        store = _Incumbent(Fraction(2, 3))  # values on (2/3) Z
        assert store.round_up(Fraction(2, 3)) == Fraction(2, 3)
        assert store.round_up(Fraction(7, 10)) == Fraction(4, 3)
        assert store.round_up(Fraction(-1, 100)) == 0
        assert store.round_up(Fraction(-7, 10)) == Fraction(-2, 3)
        store.offer(Fraction(4, 3), (1, 0), None)
        # 7/10 rounds onto the incumbent's value: the path decides, as on a tie.
        assert store.should_prune(Fraction(7, 10), (1, 1))
        assert not store.should_prune(Fraction(7, 10), (0,))
        assert not store.beats(Fraction(7, 10), (1, 1))  # the exact bound keeps it
        assert not store.should_prune(Fraction(2, 3), (1, 1))
        assert store.should_prune(Fraction(7, 5), (0,))


# --------------------------------------------------------------------------- #
# The depth-first drain
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_stale_node_is_dropped_without_reoptimising(self):
        """A stacked node that can no longer win is discarded pre-expansion."""
        problem = _branching_heavy()
        engine = IncrementalIlpEngine(problem)
        tableau = engine._build_root()
        assert tableau is not None
        objective = dict(problem.objectives[0])
        costs, scale, offset = engine._encoder.objective_row(objective)
        tableau.set_objective(costs)
        assert tableau.primal_simplex() is LpStatus.OPTIMAL
        stage_args = (objective, scale, offset)

        store = _Incumbent(Fraction(1))
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

    def test_search_path_and_counters_are_pinned(self):
        engine = IncrementalIlpEngine(_branching_heavy())
        solution = engine.solve()
        assert solution is not None and solution.node_key == (0, 1, 0, 0)
        stats = engine.stats.as_dict()
        assert (stats["nodes"], stats["pivots"], stats["warm_start_hits"]) == (26, 19, 16)
        assert (stats["bound_prunes"], stats["stale_drops"], stats["incumbent_updates"]) == (0, 3, 3)
        # Every prune of this search is one the exact bound would not have
        # made: 3 popped as stale, 3 left on the stack when the third
        # incumbent reached ceil(23/11) = 3.
        assert stats["grid_prunes"] == 6

    def test_node_limit_is_exact(self):
        heavy = _branching_heavy()
        base = IncrementalIlpEngine(heavy).solve()
        with pytest.raises(EngineLimitError, match=r"node limit \(25\)"):
            IncrementalIlpEngine(heavy, 25).solve()
        exact = IncrementalIlpEngine(heavy, 26).solve()
        assert (exact.assignment, exact.node_key) == (base.assignment, base.node_key)

    def test_costed_stale_nodes_do_not_charge_the_node_budget(self):
        """The costed stage ends on the incumbent that reaches the root's
        rounded bound: the search above succeeds at exactly the nodes it
        solved, with nodes still stacked that were never popped."""
        engine = IncrementalIlpEngine(_branching_heavy())
        engine.solve()
        stats = engine.stats.as_dict()
        popped_prunes = stats["stale_drops"] + stats["bound_prunes"]
        assert stats["grid_prunes"] > popped_prunes  # the rest stayed stacked
        assert IncrementalIlpEngine(_branching_heavy(), stats["nodes"]).solve() is not None

    def test_feasibility_stale_nodes_do_not_charge_the_node_budget(self):
        """With no objective every leaf ties, so the first one found wins and
        what is left on the stack is neither solved nor charged to the limit."""
        problem = _branching_heavy()
        problem.objectives = []
        engine = IncrementalIlpEngine(problem)
        solution = engine.solve()
        nodes = engine.stats.nodes
        assert solution is not None and nodes < 26
        assert engine.stats.grid_prunes == 0  # ties, not rounding
        limited = IncrementalIlpEngine(problem, nodes).solve()
        assert (limited.assignment, limited.node_key) == (
            solution.assignment, solution.node_key
        )


# --------------------------------------------------------------------------- #
# The environment is inert and the solve stays on the calling thread
# --------------------------------------------------------------------------- #
def _search_fingerprint():
    """node_keys and integer counters of a knapsack solve and a gemm compile."""
    from repro.pipeline import Session
    from repro.scheduler import PolyTOPSScheduler
    from repro.suites.polybench.blas import gemm

    engine = IncrementalIlpEngine(_branching_heavy())
    knapsack = engine.solve()
    node_keys = [knapsack.node_key]
    original_solve = PolyTOPSScheduler._solve

    def recording_solve(self, problem):
        solution = original_solve(self, problem)
        node_keys.append(None if solution is None else solution.node_key)
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolyTOPSScheduler, "_solve", recording_solve)
        result = Session().compile(gemm(6, 6, 6))
    counters = [
        {name: value for name, value in statistics.items() if isinstance(value, int)}
        for statistics in (engine.stats.as_dict(), result.solver_statistics)
    ]
    return node_keys, counters, result.schedule.statements


def test_historical_environment_is_inert_and_starts_nothing(monkeypatch):
    clean = _search_fingerprint()
    monkeypatch.setenv("REPRO_ILP_WORKERS", "4")
    monkeypatch.setenv("REPRO_ILP_PROCESSES", "1")
    monkeypatch.setenv("REPRO_ILP_ENGINE", "oracle")
    monkeypatch.setenv("REPRO_ILP_CORE", "tableau")
    started: list[threading.Thread] = []
    original_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    threads_before = threading.enumerate()
    children_before = multiprocessing.active_children()
    assert _search_fingerprint() == clean
    assert started == []
    assert threading.enumerate() == threads_before
    assert multiprocessing.active_children() == children_before
    node_keys, (knapsack_counters, compile_counters), _ = clean
    assert knapsack_counters["nodes"] == 26 and compile_counters["solve_calls"] >= 1
    assert len(node_keys) == 1 + compile_counters["solve_calls"]


# --------------------------------------------------------------------------- #
# Plumbing of the one knob: config JSON, pipeline, statistics
# --------------------------------------------------------------------------- #
class TestPlumbing:
    def test_scheduler_config_round_trips_the_knobs(self):
        from repro.scheduler.config import SchedulerConfig

        config = SchedulerConfig(name="nl", solver_options=SolverOptions(node_limit=77))
        restored = SchedulerConfig.from_json(config.to_json())
        assert restored.solver_options == SolverOptions(node_limit=77)
        defaults = SchedulerConfig.from_json(SchedulerConfig().to_json())
        assert defaults.solver_options is None

    def test_pipeline_exposes_the_knob_and_the_counters(self):
        from repro.pipeline import Session
        from repro.scheduler.strategies import pluto_style
        from repro.suites.polybench.solvers import trisolv

        def limited(node_limit):
            return dataclasses.replace(
                pluto_style(), solver_options=SolverOptions(node_limit=node_limit)
            )

        session = Session()
        scop = trisolv(6)
        base = session.compile(scop, pluto_style())
        roomy = session.compile(scop, limited(500))
        assert roomy.schedule.statements == base.schedule.statements
        # A different limit is a distinct cache entry, not a collision.
        assert roomy is not base
        assert session.compile(scop, limited(500)) is roomy
        statistics = base.solver_statistics
        assert {"nodes", "bound_prunes", "stale_drops", "incumbent_updates"} <= set(statistics)
        removed = {"workers", "worker_mode", "worker_nodes", "steals", "parallel_stages",
                   "parallel_wall_seconds", "parallel_busy_seconds", "parallel_speedup"}
        assert not removed & set(statistics)
        assert not any("workers" in line for line in base.diagnostics)
        with pytest.raises(EngineLimitError, match=r"node limit \(1\)"):
            session.compile(scop, limited(1))
