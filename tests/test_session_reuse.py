"""What a ``Session`` remembers per SCoP below whole results.

``Session.remembered`` keeps, beside each SCoP's dependences, whole
scheduling runs (keyed on the configuration, and on the parameter values
when the run read them), the scheduling ILP solutions (keyed on the
problem's digest and the node limit), the legality verdicts and the
generated C (keyed on the final schedule and its tiling) of every compile of
that SCoP.  A remembered answer must be the answer a fresh session computes:
every test here compiles once through one session and once with a fresh
session per case, and compares what a caller sees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import threading
from fractions import Fraction

import pytest

from repro.ilp import EngineError, SolverOptions
from repro.scheduler.config import (
    DEFAULT_DIMENSION,
    DimensionConfig,
    FusionSpec,
    SchedulerConfig,
    StrategyDecision,
)
from repro.scheduler.cost import base as cost_base
from repro.scheduler.cost.base import CostFunction
from repro.scheduler.naming import iterator_coefficient
from repro.ilp.problem import ConstraintSense, LinearConstraint, LinearProblem
from repro.obs import Tracer, ledger
from repro.pipeline import Session, scop_fingerprint
from repro.pipeline import session as session_module
from repro.pipeline.serialize import encode_schedule
from repro.pipeline.stages import _solver_summary
from repro.scheduler import strategies
from repro.scheduler.core import NO_WORK, PolyTOPSScheduler
from repro.suites.polybench import build_kernel

#: The ``triangular_sweep`` corpus of ``benchmarks/e2e``: 9 kernels x 5 strategies.
TRIANGULAR_KERNELS = (
    "cholesky", "lu", "trmm", "durbin", "correlation", "covariance", "symm",
    "gramschmidt", "trisolv",
)
TRIANGULAR_STRATEGIES = (
    "pluto_style", "tensor_scheduler_style", "isl_style", "feautrier_style",
    "big_loops_first_style",
)
#: Small problem sizes keep the Intel1 evaluation of 90 compiles affordable.
SIZE = 4

#: The kernels ``service_mixed`` asks at fresh parameter values.
SERVICE_MISS_KERNELS = ("mvt", "bicg", "atax", "trisolv")

#: Engine counters a remembered solution counts again, as its solve did.
ENGINE_COUNTS = ("solves", "pivots", "nodes")


def _digest(schedule) -> str:
    text = json.dumps(encode_schedule(schedule), sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


def _seen(result, node_keys=None) -> dict:
    """What a caller of one compile sees, beside the work counters."""
    return {
        "digest": _digest(result.schedule),
        "generated_c": result.generated_c,
        "legal": result.legal,
        "cycles": result.cycles,
        "failed": result.failed,
        "node_keys": node_keys,
    }


def _answers(session: Session, scop) -> int:
    return len(session._answers.get(scop_fingerprint(scop), ()))


def _counts(result) -> dict:
    """The work counters of a compile, without the seconds."""
    return {
        name: value
        for name, value in result.solver_statistics.items()
        if not name.endswith("_seconds")
    }


# --------------------------------------------------------------------------- #
# The triangular_sweep corpus, one session against a fresh one per case
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def triangular_runs():
    """``(shared, fresh, shared_session)``: per case what a caller sees plus
    ``(asked, executed, engine counts)`` of the scheduling solves, compiled
    on Intel1 at ``SIZE``."""
    keys: list = []
    original_solve = PolyTOPSScheduler._solve

    def recording_solve(self, problem):
        solution = original_solve(self, problem)
        keys.append(None if solution is None else solution.node_key)
        return solution

    def compile_case(session, kernel, strategy):
        scop = build_kernel(kernel)
        keys.clear()
        result = session.compile(
            scop,
            getattr(strategies, strategy)(),
            parameter_values={name: SIZE for name in scop.parameters},
        )
        statistics = result.solver_statistics
        asked = statistics["solve_calls"]
        return _seen(result, list(keys)), (
            asked,
            asked - statistics["ilp_solutions_reused"],
            tuple(statistics[name] for name in ENGINE_COUNTS),
        )

    cases = [(k, s) for k in TRIANGULAR_KERNELS for s in TRIANGULAR_STRATEGIES]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolyTOPSScheduler, "_solve", recording_solve)
        shared_session = Session(machine="Intel1")
        shared = {case: compile_case(shared_session, *case) for case in cases}
        fresh = {case: compile_case(Session(machine="Intel1"), *case) for case in cases}
    return shared, fresh, shared_session


def test_one_session_compiles_the_corpus_as_fresh_sessions_do(triangular_runs):
    shared, fresh, _ = triangular_runs
    for case in shared:
        assert shared[case][0] == fresh[case][0], case
    assert all(seen["legal"] is True for seen, _ in shared.values())


def test_one_session_asks_every_ilp_and_solves_under_half(triangular_runs):
    shared, fresh, session = triangular_runs
    asked = sum(work[0] for _, work in shared.values())
    executed = sum(work[1] for _, work in shared.values())
    # Asked as often as in fresh sessions (at the kernels' default sizes the
    # corpus asks 365); a fresh session already answers the repeats inside
    # one compile (under isl_style and feautrier_style).
    assert asked == sum(work[0] for _, work in fresh.values()) == 366
    assert sum(work[1] for _, work in fresh.values()) > executed
    assert executed <= 170
    statistics = session.statistics
    # ILP solutions, legality verdicts and C texts, each stored once.
    assert statistics["reuse_hits"] > asked - executed
    assert statistics["reuse_evictions"] == 0


def test_one_session_counts_the_engine_work_a_scheduler_without_one_counts(triangular_runs):
    """A remembered solution counts the solves, pivots and nodes its solve
    took: the counts of a compile do not depend on what the session already
    knew, and equal those of a bare scheduler (which solves every ILP)."""
    shared, fresh, _ = triangular_runs
    for case in shared:
        assert shared[case][1][2] == fresh[case][1][2], case
    for strategy in TRIANGULAR_STRATEGIES:
        scop = build_kernel("trisolv")
        bare = PolyTOPSScheduler(
            scop,
            getattr(strategies, strategy)(),
            parameter_values={name: SIZE for name in scop.parameters},
        ).schedule().statistics
        assert bare["ilp_solutions_reused"] == 0
        assert tuple(bare[name] for name in ENGINE_COUNTS) == shared["trisolv", strategy][1][2]


# --------------------------------------------------------------------------- #
# Service traffic: one kernel at fresh parameter values
# --------------------------------------------------------------------------- #
def test_fresh_parameter_values_reuse_everything_after_the_first():
    session = Session()
    for kernel in SERVICE_MISS_KERNELS:
        scop = build_kernel(kernel)
        sizes = []
        for value in (1_000, 20_000, 300_000):
            values = {name: value for name in scop.parameters}
            with ledger() as work:
                result = session.compile(scop, strategies.pluto_style(), parameter_values=values)
            expected = Session().compile(
                build_kernel(kernel), strategies.pluto_style(), parameter_values=values
            )
            assert _seen(result) == _seen(expected), (kernel, value)
            sizes.append(_answers(session, scop))
            if value != 1_000:
                # Every ILP, the legality check and the C come from the first value.
                assert work["solve_calls"] == work["ilp_solutions_reused"] > 0
                # No engine ran, yet the engine counts are those of a fresh compile.
                assert work.get("solve_seconds", 0) == 0
                for name in ENGINE_COUNTS:
                    assert work[name] == expected.solver_statistics[name], (kernel, name)
                assert "stage.codegen" in work
        assert sizes == [sizes[0]] * 3, kernel


def test_the_answers_of_one_scop_stop_at_the_cap(monkeypatch):
    """``big_loops_first`` reads the rank order of the loop extents, so fresh
    values that reorder gemm's three parameters ask new ILPs; at a small cap
    the entry fills and the oldest answers go, and results do not move."""
    cap = 6
    monkeypatch.setattr(session_module, "REMEMBERED_PER_SCOP", cap)
    session, scop = Session(), build_kernel("gemm")
    orders = [(10, 20, 30), (30, 20, 10), (20, 30, 10), (10, 30, 20), (30, 10, 20)]
    for sizes in orders + orders[:2]:
        values = dict(zip(scop.parameters, sizes))
        result = session.compile(scop, strategies.big_loops_first_style(), parameter_values=values)
        expected = Session().compile(
            build_kernel("gemm"), strategies.big_loops_first_style(), parameter_values=values
        )
        assert _seen(result) == _seen(expected), sizes
        assert _answers(session, scop) <= cap
    assert _answers(session, scop) == cap
    assert session.statistics["reuse_evictions"] > 0


def _retexted(scop):
    """*scop* with other statement text: the same structural fingerprint."""
    statements = [dataclasses.replace(s, text=f"/* {s.name} */ work();") for s in scop.statements]
    return dataclasses.replace(scop, statements=statements)


@pytest.mark.parametrize(
    "variant",
    [
        lambda scop, config: (_retexted(scop), config),
        lambda scop, config: (scop, dataclasses.replace(config, tile_sizes=(4, 4, 4))),
    ],
    ids=["statement-text", "tiling"],
)
def test_a_remembered_c_text_is_one_of_the_same_statements_and_tiling(variant):
    """The C reads the statements' text (which the SCoP fingerprint leaves
    out) and the tiling: neither may be answered from the other's compile.
    (Fresh parameter values keep the whole-result cache out of the way.)"""
    values = {"NI": 11, "NJ": 12, "NK": 13}
    session = Session()
    first = session.compile(build_kernel("gemm"), strategies.pluto_style())
    scop, config = variant(build_kernel("gemm"), strategies.pluto_style())
    assert scop_fingerprint(scop) == scop_fingerprint(build_kernel("gemm"))
    result = session.compile(scop, config, parameter_values=values)
    fresh = Session().compile(*variant(build_kernel("gemm"), config), parameter_values=values)
    assert _seen(result) == _seen(fresh)
    assert result.generated_c != first.generated_c


def test_a_retexted_scop_at_the_same_values_is_a_miss_with_its_own_c():
    """The whole-result key holds the statements' text: a copy of gemm with
    other text is not answered from gemm's cached result."""
    session = Session()
    first = session.compile_with_origin(build_kernel("gemm"), strategies.pluto_style())
    outcome = session.compile_with_origin(_retexted(build_kernel("gemm")), strategies.pluto_style())
    fresh = Session().compile(_retexted(build_kernel("gemm")), strategies.pluto_style())
    assert (first.origin, outcome.origin) == ("miss", "miss")
    assert "/* S0 */ work();" in outcome.result.generated_c
    assert outcome.result.generated_c == fresh.generated_c != first.result.generated_c
    # The best-of cache is keyed on the text as well.
    best = [
        session.compile_best(scop, [strategies.pluto_style()], machine="Intel1").generated_c
        for scop in (build_kernel("gemm"), _retexted(build_kernel("gemm")))
    ]
    assert "/* S0 */ work();" in best[1] and best[0] != best[1]


def test_two_threads_compiling_one_scop_agree_with_fresh_sessions(compile_on_threads):
    scop = build_kernel("trisolv")
    configs = [getattr(strategies, name)() for name in TRIANGULAR_STRATEGIES]
    jobs = [(scop, config) for config in configs for _ in range(2)]
    session = Session()
    results = compile_on_threads(session, jobs, 2)
    for (_, config), result in zip(jobs, results):
        assert _seen(result) == _seen(Session().compile(build_kernel("trisolv"), config))
    assert session.statistics["reuse_hits"] > 0
    session.clear()
    assert session._answers == {} and _answers(session, scop) == 0


# --------------------------------------------------------------------------- #
# The reuse path itself
# --------------------------------------------------------------------------- #
def test_an_exception_is_never_remembered():
    session, scop = Session(), build_kernel("atax")
    calls = []

    def failing():
        calls.append(1)
        raise RuntimeError("no answer")

    for _ in range(2):
        with pytest.raises(RuntimeError):
            session.remembered(scop, "key", failing)
    assert len(calls) == 2
    assert session.remembered(scop, "key", lambda: 7) == 7
    assert session.remembered(scop, "key", lambda: 8) == 7
    assert (session.statistics["reuse_misses"], session.statistics["reuse_hits"]) == (1, 1)


def test_threads_asking_one_key_all_get_the_first_stored_answer():
    session, scop = Session(), build_kernel("atax")
    threads, keys, rounds = 4, 16, 50
    seen: list[list] = [[] for _ in range(threads)]
    # Every thread computes the first key before any stores it.
    together = threading.Barrier(threads)

    def first(key):
        together.wait(timeout=30)
        return [key]

    def worker(index):
        seen[index].append(("first", session.remembered(scop, "first", lambda: first("first"))))
        for round_ in range(rounds):
            key = (round_ * 7 + index) % keys
            # A fresh object per compute: only the first stored one may come back.
            seen[index].append((key, session.remembered(scop, key, lambda: [key])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    answers = {}
    for key, value in (pair for pairs in seen for pair in pairs):
        assert value == [key] and answers.setdefault(key, value) is value
    statistics = session.statistics
    assert statistics["reuse_misses"] == keys + 1 == _answers(session, scop)
    assert statistics["reuse_hits"] + statistics["reuse_misses"] == threads * (rounds + 1)


def test_an_engine_error_is_solved_again_at_every_ask(monkeypatch):
    from repro.scheduler import core
    from repro.suites.polybench.solvers import trisolv

    engines = []

    class CountedEngine(core.IncrementalIlpEngine):
        def __init__(self, *args):
            engines.append(1)
            super().__init__(*args)

    monkeypatch.setattr(core, "IncrementalIlpEngine", CountedEngine)
    tiny = dataclasses.replace(
        strategies.pluto_style(), solver_options=SolverOptions(node_limit=1)
    )
    session, scop = Session(), trisolv(6)
    # Solved under the default limit first: the limit is part of the key.
    session.compile(scop, strategies.pluto_style())
    stored = []
    for _ in range(2):
        engines.clear()
        with pytest.raises(EngineError):
            session.compile(scop, tiny)
        stored.append(_answers(session, scop))
        # The ILP that hit the limit goes to the engine again.
        assert len(engines) >= 1
    assert stored[0] == stored[1]


def test_a_scheduler_without_a_session_remembers_nothing():
    scop = build_kernel("gemm")
    for _ in range(2):
        statistics = PolyTOPSScheduler(scop, strategies.pluto_style()).schedule().statistics
        assert statistics["ilp_solutions_reused"] == 0
        assert statistics["solves"] == statistics["solve_calls"] > 0


def test_the_problem_digest_reads_order_and_number_types():
    def problem(first: LinearConstraint, second: LinearConstraint, weight=Fraction(1)):
        built = LinearProblem()
        built.add_variable("x", 0, 4)
        built.add_variable("y", 0, 4)
        built.constraints.extend([first, second])
        built.add_objective({"x": weight, "y": 1})
        return built

    a = LinearConstraint({"x": 1, "y": 2}, ConstraintSense.GE, 1)
    b = LinearConstraint({"x": 1}, ConstraintSense.LE, 3)
    reordered = LinearConstraint({"y": 2, "x": 1}, ConstraintSense.GE, 1)
    as_fraction = LinearConstraint({"x": Fraction(1), "y": 2}, ConstraintSense.GE, 1)
    assert problem(a, b).digest() == problem(LinearConstraint(dict(a.coefficients), a.sense, 1), b).digest()
    # Equal under ``==``, yet not the same input to the engine's encoder.
    assert reordered == a and as_fraction == a
    assert len({problem(a, b).digest(), problem(reordered, b).digest(),
                problem(as_fraction, b).digest(), problem(b, a).digest(),
                problem(a, b, Fraction(2)).digest()}) == 5
    bounded = problem(a, b)
    bounded.variables["y"] = dataclasses.replace(bounded.variables["y"], upper=5)
    assert bounded.digest() != problem(a, b).digest()


# --------------------------------------------------------------------------- #
# Where the reuse shows
# --------------------------------------------------------------------------- #
def test_memo_hits_show_in_statistics_diagnostics_and_spans():
    assert NO_WORK["ilp_solutions_reused"] == 0
    tracer = Tracer()
    session, scop = Session(tracer=tracer), build_kernel("trisolv")
    session.compile(scop, strategies.pluto_style())
    tracer.clear()
    # Renamed, so the session does not answer the whole run: its ILPs are asked.
    renamed = dataclasses.replace(strategies.pluto_style(), name="pluto-again")
    result = session.compile(scop, renamed, parameter_values={"N": 77})
    hits = result.solver_statistics["ilp_solutions_reused"]
    assert hits == result.solver_statistics["solve_calls"] > 0
    assert f"{hits} ilp solutions" in _solver_summary(result.solver_statistics)
    assert any(f"{hits} ilp solutions" in line for line in result.diagnostics)
    dimensions = [r for r in tracer.records if r.name == "scheduler.dimension"]
    assert dimensions and sum(r.counters["ilp.memo_hit"] for r in dimensions) == hits
    assert session.statistics["reuse_hits"] >= hits + 2  # + legality + codegen


# --------------------------------------------------------------------------- #
# Whole runs: keyed on the configuration, and on the values when read
# --------------------------------------------------------------------------- #
def test_a_fresh_value_is_answered_by_the_remembered_run():
    """Under ``pluto_style`` no step reads the parameter values, so from the
    second value on the session answers the whole run: the caller sees what
    a fresh session computes, counts included, and ``schedules_reused``."""
    session = Session()
    for kernel in SERVICE_MISS_KERNELS:
        scop = build_kernel(kernel)
        for value in (1_000, 20_000, 300_000):
            values = {name: value for name in scop.parameters}
            result = session.compile(scop, strategies.pluto_style(), parameter_values=values)
            fresh = Session().compile(
                build_kernel(kernel), strategies.pluto_style(), parameter_values=values
            )
            assert _seen(result) == _seen(fresh), (kernel, value)
            ours, theirs = _counts(result), _counts(fresh)
            assert theirs["schedules_reused"] == 0
            if value != 1_000:
                assert ours.pop("schedules_reused") == 1
                assert ours.pop("ilp_solutions_reused") == ours["solve_calls"] > 0
                del theirs["schedules_reused"], theirs["ilp_solutions_reused"]
            assert ours == theirs, (kernel, value)


def test_big_loops_first_reads_the_values_so_no_run_is_answered_across_them():
    """``bigLoopsFirst`` reads the values: a run under it is never answered
    for other values, whether their extent order is the same (the ILPs then
    are) or not."""
    session = Session()
    digests = set()
    for index, sizes in enumerate([(10, 20, 30), (11, 22, 33), (30, 20, 10), (20, 10, 30)]):
        scop = build_kernel("gemm")
        values = dict(zip(scop.parameters, sizes))
        result = session.compile(scop, strategies.big_loops_first_style(), parameter_values=values)
        fresh = Session().compile(
            build_kernel("gemm"), strategies.big_loops_first_style(), parameter_values=values
        )
        assert _seen(result) == _seen(fresh), sizes
        statistics = result.solver_statistics
        assert statistics["schedules_reused"] == 0, sizes
        if index == 1:  # the extent order of the first: every ILP repeats
            assert statistics["ilp_solutions_reused"] == statistics["solve_calls"] > 0
        digests.add(_seen(result)["digest"])
    assert len(digests) > 1


class _ByParity(CostFunction):
    """A user cost function that reads the values: an even ``N`` puts the
    last iterator of every statement outermost, an odd one the first."""

    name = "byParity"

    def contribute(self, context) -> None:
        keep = -1 if context.parameter_values["N"] % 2 == 0 else 0
        objective = {}
        for statement in context.active_statements():
            kept = statement.iterators[keep]
            for iterator in statement.iterators:
                if iterator != kept:
                    objective[iterator_coefficient(statement.name, iterator)] = Fraction(1)
        if objective:
            context.add_objective(objective)


def test_a_cost_function_reading_the_values_is_never_given_another_values_run(monkeypatch):
    monkeypatch.setitem(cost_base._REGISTRY, _ByParity.name, _ByParity)
    config = SchedulerConfig(
        name="by-parity",
        ilp_construction={DEFAULT_DIMENSION: DimensionConfig((_ByParity.name, "proximity"))},
    )
    session = Session()
    seen = {}
    for n in (10, 11, 12, 13):
        result = session.compile(build_kernel("mvt"), config, parameter_values={"N": n})
        fresh = Session().compile(build_kernel("mvt"), config, parameter_values={"N": n})
        assert _seen(result) == _seen(fresh), n
        assert result.solver_statistics["schedules_reused"] == 0
        seen[n] = _seen(result)["digest"]
    assert seen[10] == seen[12] != seen[11] == seen[13]
    # The same values on another machine: a new result, the same run.
    result = session.compile(build_kernel("mvt"), config, "Intel1", parameter_values={"N": 11})
    assert result.solver_statistics["schedules_reused"] == 1
    assert _seen(result)["digest"] == seen[11]


def test_a_caller_mutating_its_result_does_not_change_a_later_answer():
    """The postprocess stage writes ``parallel_dims`` in place: the session
    hands out copies of the remembered schedule and satisfaction map."""
    session = Session()
    first = session.compile(build_kernel("trisolv"), strategies.pluto_style(),
                            parameter_values={"N": 30})
    for schedule in (first.schedule, first.scheduling.schedule):
        schedule.parallel_dims[:] = [True] * len(schedule.parallel_dims)
    first.scheduling.satisfaction_dimension.clear()
    result = session.compile(build_kernel("trisolv"), strategies.pluto_style(),
                             parameter_values={"N": 31})
    fresh = Session().compile(build_kernel("trisolv"), strategies.pluto_style(),
                              parameter_values={"N": 31})
    assert result.solver_statistics["schedules_reused"] == 1
    assert _seen(result) == _seen(fresh)
    assert result.scheduling.schedule.parallel_dims == fresh.scheduling.schedule.parallel_dims
    assert result.scheduling.satisfaction_dimension == fresh.scheduling.satisfaction_dimension


def test_two_strategy_callbacks_do_not_share_a_remembered_run():
    def plain(state):
        return None

    def feautrier_first(state):
        return StrategyDecision(cost_functions=("feautrier",))

    # One JSON document: only the callback object tells the two apart.
    configs = {
        callback: dataclasses.replace(strategies.pluto_style(), strategy_callback=callback)
        for callback in (plain, feautrier_first)
    }
    session = Session()
    digests = {}
    for n, callback, reused in [
        (20, plain, 0), (21, feautrier_first, 0), (22, plain, 1), (23, feautrier_first, 1),
    ]:
        result = session.compile(build_kernel("mvt"), configs[callback], parameter_values={"N": n})
        fresh = Session().compile(build_kernel("mvt"), configs[callback], parameter_values={"N": n})
        assert _seen(result) == _seen(fresh), n
        assert result.solver_statistics["schedules_reused"] == reused, n
        digests.setdefault(callback, set()).add(_seen(result)["digest"])
    assert len(digests[plain]) == len(digests[feautrier_first]) == 1
    assert digests[plain] != digests[feautrier_first]


def test_a_scheduling_error_is_run_again_every_time(sequence_scop, monkeypatch):
    runs = []
    original = PolyTOPSScheduler._schedule

    def counted(self, parameter_values):
        runs.append(1)
        return original(self, parameter_values)

    monkeypatch.setattr(PolyTOPSScheduler, "_schedule", counted)
    illegal = strategies.kernel_specific(
        name="illegal", fusion=(FusionSpec(dimension=0, groups=(("2",), ("0", "1"))),)
    )
    session = Session()
    for n in (12, 13, 14):
        result = session.compile(sequence_scop, illegal, parameter_values={"N": n})
        assert result.failed and "SchedulingError" in result.error
    assert len(runs) == 3
    keys = session._answers[scop_fingerprint(sequence_scop)]
    assert not [key for key in keys if "schedule" in (key[0], key[0][0])]


def test_a_run_on_other_dependences_than_the_sessions_is_not_remembered():
    session, scop = Session(), build_kernel("trisolv")
    own = session.dependences(scop)
    for dependences, reused in [(list(own), 0), (own, 0), (list(own), 0), (own, 1)]:
        result = PolyTOPSScheduler(
            scop, strategies.pluto_style(), dependences=dependences, session=session
        ).schedule()
        assert result.statistics["schedules_reused"] == reused


def test_a_remembered_run_shows_in_statistics_diagnostics_and_spans():
    assert NO_WORK["schedules_reused"] == 0
    tracer = Tracer()
    session, scop = Session(tracer=tracer), build_kernel("trisolv")
    first = session.compile(scop, strategies.pluto_style())
    assert first.solver_statistics["schedules_reused"] == 0
    assert not any("schedules_reused" in line for line in first.diagnostics)
    tracer.clear()
    result = session.compile(scop, strategies.pluto_style(), parameter_values={"N": 77})
    assert result.solver_statistics["schedules_reused"] == 1
    assert sum("schedules_reused=1" in line for line in result.diagnostics) == 1
    runs = [r for r in tracer.records if r.name == "scheduler.run"]
    assert [r.counters["schedules_reused"] for r in runs] == [1]
    # Algorithm 1 did not run: no dimension and no solve was traced.
    assert not [r for r in tracer.records if r.name in ("scheduler.dimension", "ilp.solve")]
