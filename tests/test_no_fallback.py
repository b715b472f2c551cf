"""The no-fallback contract, by fault injection.

An inconsistency the engine detects in itself is an error that carries its
reproducer at every layer — solver, session, batch, HTTP route, async job —
and never a silent switch to the reference solver.  Two of the engine's own
checks are made to fire (the exact incumbent verification and the singular
basis guard of the factorisation), and a sentinel on the reference solver's
entry points proves nothing reached them.  A healthy compile does not even
import the reference: a subprocess checks ``sys.modules`` after one.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.ilp import EngineError, EngineStatistics, IncrementalIlpEngine, LinearProblem
from repro.ilp.revised import _RevisedTableau
from repro.linalg.sparse_lu import EtaFile, SingularBasisError
from repro.pipeline import Session
from repro.service import CompilationServer, ServiceClient, ServiceClientError

_REFERENCE_ENTRY_POINTS = (
    "repro.ilp.branch_bound.solve_milp",
    "repro.ilp.branch_bound.solve_standard_form",
    "repro.ilp.backend.solve_standard_form",
    "repro.ilp.simplex.solve_standard_form",
)


@pytest.fixture(params=["infeasible-incumbent", "singular-basis"])
def reference_calls(request, monkeypatch):
    """Break the engine; returns the (expected empty) log of reference calls."""
    if request.param == "infeasible-incumbent":
        monkeypatch.setattr(
            LinearProblem, "is_feasible_assignment", lambda self, assignment: False
        )
    else:

        def singular(self, columns):
            raise SingularBasisError("injected singular basis")

        monkeypatch.setattr(EtaFile, "refactor", singular)
        # Appended rows border the eta file instead of re-inverting it, and a
        # compile's update tails rarely outgrow the threshold: a zero
        # threshold re-inverts before every FTRAN/BTRAN, so the guard fires.
        monkeypatch.setattr(_RevisedTableau, "_ensure_factored", _RevisedTableau._refactor)
    calls: list[tuple] = []

    def sentinel(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a reference solver ran: the engine error switched code path")

    for target in _REFERENCE_ENTRY_POINTS:
        monkeypatch.setattr(target, sentinel)
    return calls


def _two_stage_problem() -> LinearProblem:
    """Branches, and its second stage appends rows (borders of the eta file)."""
    problem = LinearProblem()
    weights = {f"x{index}": weight for index, weight in enumerate((2, 3, 5, 7, 11))}
    for name in weights:
        problem.add_variable(name, 0, 3)
    problem.add_constraint(weights, "==", 23)
    problem.add_objective(dict.fromkeys(weights, 1))
    problem.add_objective({"x0": -1, "x4": 1})
    return problem


def test_solver_raises_with_the_problem_attached(reference_calls):
    problem = _two_stage_problem()
    stats = EngineStatistics()
    with pytest.raises(EngineError) as excinfo:
        IncrementalIlpEngine(problem, stats=stats).solve()
    assert excinfo.value.problem is problem
    assert str(problem) in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, EngineError)
    assert stats.solves == 1  # one attempt, no second path
    assert reference_calls == []


def test_session_propagates_and_batches_isolate(reference_calls, gemm_scop, jacobi_scop):
    session = Session()
    with pytest.raises(EngineError) as excinfo:
        session.compile(gemm_scop)
    assert isinstance(excinfo.value.problem, LinearProblem)
    results = session.compile_many([gemm_scop, jacobi_scop])
    assert [result.failed for result in results] == [True, True]
    assert all("EngineError" in result.diagnostics[0] for result in results)
    assert reference_calls == []


def test_service_answers_500_and_jobs_fail(reference_calls, gemm_scop):
    server = CompilationServer()
    server.start_in_thread()
    try:
        client = ServiceClient(server.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(gemm_scop)
        assert (excinfo.value.status, excinfo.value.code) == (500, "internal")
        assert "EngineError:" in excinfo.value.detail
        job_id = client.submit(gemm_scop)["id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.wait(job_id)
        assert excinfo.value.code == "compile_failed"
        assert "EngineError:" in excinfo.value.message
        assert client.job(job_id)["job"]["state"] == "failed"
    finally:
        server.shutdown()
    assert reference_calls == []


def test_a_compile_imports_neither_the_reference_nor_numpy():
    """The import fact: the reference modules import the production encoding
    (:mod:`repro.ilp.encode`), never the other way round, and numpy is needed
    to execute statement bodies, not to compile."""
    script = """
import sys
import repro
from repro.suites.polybench import build_kernel
result = repro.Session().compile(build_kernel("gemm"), machine="Intel1")
assert result.legal and result.cycles and not result.failed
unwanted = ("numpy", "scipy", "repro.ilp.simplex", "repro.ilp.branch_bound", "repro.ilp.backend")
print([name for name in unwanted if name in sys.modules])
"""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
