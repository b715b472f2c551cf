"""Unit tests for dependence analysis and the dependence graph."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import (
    Dependence,
    DependenceGraph,
    DependenceKind,
    compute_dependences,
)
from repro.model import ScopBuilder
from repro.model.schedule import Schedule
from repro.obs import Tracer, activate, ledger
from repro.polyhedra import AffineConstraint, AffineExpr, Polyhedron, Space
from repro.suites.polybench import build_kernel
from repro.transform import schedule_is_legal


class TestDependenceAnalysis:
    def test_listing1_has_no_dependences(self, listing1_scop):
        assert compute_dependences(listing1_scop) == []

    def test_gemm_dependences(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        assert deps  # init -> update and update -> update on C
        pairs = {(d.source, d.target) for d in deps}
        assert ("S0", "S1") in pairs
        assert ("S1", "S1") in pairs
        # No dependence can flow back from the update to the initialisation.
        assert ("S1", "S0") not in pairs

    def test_dependence_kinds(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        kinds = {d.kind for d in deps}
        assert DependenceKind.FLOW in kinds
        assert DependenceKind.OUTPUT in kinds
        assert DependenceKind.ANTI in kinds

    def test_jacobi_dependences_cross_time_steps(self, jacobi_scop):
        deps = compute_dependences(jacobi_scop)
        pairs = {(d.source, d.target) for d in deps}
        assert ("S0", "S1") in pairs  # B produced then consumed in the same step
        assert ("S1", "S0") in pairs  # A written at step t read at step t+1

    def test_sequence_producer_consumer_chain(self, sequence_scop):
        deps = compute_dependences(sequence_scop)
        pairs = {(d.source, d.target) for d in deps}
        assert ("S0", "S1") in pairs and ("S1", "S2") in pairs
        assert ("S0", "S2") not in pairs  # no shared array between S0 and S2

    def test_dependence_polyhedra_are_nonempty(self, gemm_scop):
        for dependence in compute_dependences(gemm_scop):
            assert not dependence.polyhedron.is_empty()

    def test_depths_are_recorded(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        assert all(d.depth >= 0 for d in deps)
        self_deps = [d for d in deps if d.is_self_dependence]
        assert self_deps and all(d.source == "S1" for d in self_deps)


    @pytest.mark.parametrize(
        "kernel, count, digest",
        [
            ("cholesky", 20, "ea2073e8d90b080e7d6858eafcca5645914128b9"),
            ("jacobi-2d", 32, "73ab3aa9171b5429a56b2648fdfe1b3ce2fec835"),
            ("gemm", 6, "96d70068245ebd570bb53c3f755283b5936b2889"),
        ],
    )
    def test_dependence_polyhedra_are_pinned(self, kernel, count, digest):
        """Constraint tuples — order, signs, coefficient-key order — as computed
        when every depth's polyhedron was still simplified from scratch."""
        dependences = compute_dependences(build_kernel(kernel))
        payload = [
            [
                d.source, d.target, d.kind.value, d.array, d.depth,
                [
                    [
                        [[name, str(value)] for name, value in c.expression.coefficients.items()],
                        str(c.expression.constant),
                        c.kind.value,
                    ]
                    for c in d.polyhedron.constraints
                ],
            ]
            for d in dependences
        ]
        assert len(payload) == count
        assert hashlib.sha1(json.dumps(payload).encode()).hexdigest() == digest

    def test_constant_subscripts_that_differ_cost_no_probe(self):
        """``A[0] = ...; A[1] = ...``: the pair whose level needs a probe has a
        contradictory base, found once per access pair, before any probe."""
        builder = ScopBuilder("two-cells")
        builder.array("A", 2)
        builder.statement(writes=[("A", [0])], reads=[])
        builder.statement(writes=[("A", [1])], reads=[])
        with ledger() as work:
            assert compute_dependences(builder.build()) == []
        assert work == {}

    def test_statement_pair_spans_account_for_every_probe(self, gemm_scop):
        statistics: dict = {}
        tracer = Tracer()
        with activate(tracer):
            deps = compute_dependences(gemm_scop, probe_statistics=statistics)
        pairs = [r.counters for r in tracer.records if r.name == "deps.pair"]
        assert len(pairs) == len(gemm_scop.statements) ** 2
        assert sum(p["nonempty"] for p in pairs) == len(deps)
        assert sum(p.get("access_pairs", 0) for p in pairs) > 0
        # A pair's span is a ledger scope: it carries the levels asked under it
        # (one a level its constants do not decide), each either remembered or
        # solved, and the engine work of those that were solved; the pairs add
        # up to what the analysis reports, name by name.
        assert statistics["emptiness_probes"] == (
            statistics["probe_solves"] + statistics["probe_verdicts_reused"]
        )
        assert statistics["probe_solves"] > statistics["probe_roots"] > 0
        for name, total in statistics.items():
            assert sum(p.get(name, 0) for p in pairs) == pytest.approx(total), name


def _distance_one_dependence() -> Dependence:
    """S(i) -> T(i + 1) over 0 <= i, i + 1 < N."""
    source, target, n = (AffineExpr.variable(x) for x in ("i__src", "i__tgt", "N"))
    polyhedron = Polyhedron.from_constraints(
        Space(("i__src", "i__tgt"), ("N",)),
        [
            AffineConstraint.greater_equal(source, 0),
            AffineConstraint.less_equal(target, n - 1),
            AffineConstraint.equals(target, source + 1),
        ],
    )
    return Dependence(
        "S", "T", DependenceKind.FLOW, "A", polyhedron, {"i": "i__src"}, {"i": "i__tgt"}, 0
    )


class TestLegalityConstantLevels:
    """``schedule_is_legal`` decides constant differences without a polyhedron."""

    I = AffineExpr.variable("i")

    @pytest.mark.parametrize(
        "source_rows, target_rows, legal, counters",
        [
            # A tie at every level is legal: nothing to probe.
            ([0, 0], [0, 0], True, {"levels": 2, "constant_levels": 2}),
            # Carried by the constant at level 0; the rows behind it would be
            # violated but sit behind the contradiction 1 == 0.
            ([0, I], [1, -1 * I], True, {"levels": 1, "constant_levels": 1}),
            # A negative constant with a satisfiable prefix is a violation.
            ([1], [0], False, {"levels": 1, "probes": 1}),
            # ... and harmless when the prefix i__tgt - i__src == 0 is empty.
            ([I, 1], [I, 0], True, {"levels": 2, "probes": 2}),
        ],
    )
    def test_constant_difference_branches(self, source_rows, target_rows, legal, counters):
        schedule = Schedule.identity(
            {
                name: [r if isinstance(r, AffineExpr) else AffineExpr.const(r) for r in rows]
                for name, rows in (("S", source_rows), ("T", target_rows))
            }
        )
        assert schedule_is_legal(schedule, [_distance_one_dependence()]) is legal
        # Traced against a dependence nothing was proved about yet, then again:
        # the second pass asks the same questions and is answered from memory.
        dependence = _distance_one_dependence()
        tracer = Tracer()
        with activate(tracer):
            assert schedule_is_legal(schedule, [dependence]) is legal
            assert schedule_is_legal(schedule, [dependence]) is legal
        first, again = [
            {k: v for k, v in r.counters.items() if k != "dependence"}
            for r in tracer.records
            if r.name == "legality.dependence"
        ]
        # The first pass pays for its probes (``probe_*``: the engine work of
        # those no trivial contradiction answered), the second is handed the
        # verdicts: nothing solved, one ``probe_verdicts_reused`` a probe.
        paid = {k: v for k, v in first.items() if k.startswith("probe_")}
        assert {k: v for k, v in first.items() if k not in paid} == counters
        assert paid.get("probe_solves", 0) <= counters.get("probes", 0)
        assert "probe_verdicts_reused" not in paid
        remembered = (
            {"probe_verdicts_reused": counters["probes"]} if "probes" in counters else {}
        )
        assert again == {**counters, **remembered}


class TestDependenceHelpers:
    def test_strong_and_weak_satisfaction(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        self_dep = next(d for d in deps if d.is_self_dependence)
        k_row = AffineExpr.variable("k")
        zero = AffineExpr.const(0)
        # The k loop strongly satisfies the C self-dependence (distance 1).
        assert self_dep.is_strongly_satisfied_by(k_row, k_row)
        assert self_dep.is_weakly_satisfied_by(k_row, k_row)
        # A constant dimension leaves the distance at zero.
        assert self_dep.has_zero_distance_under(zero, zero)
        assert not self_dep.is_strongly_satisfied_by(zero, zero)

    def test_identifier_is_unique_per_dependence(self, gemm_scop):
        deps = compute_dependences(gemm_scop)
        identifiers = [d.identifier() for d in deps]
        assert len(identifiers) == len(set(identifiers))

    def test_kind_of_requires_a_write(self):
        from repro.model import ArrayAccess

        with pytest.raises(ValueError):
            DependenceKind.of(ArrayAccess.read("A", []), ArrayAccess.read("A", []))


@functools.lru_cache(maxsize=None)
def _kernel_dependences(kernel: str) -> tuple[Dependence, ...]:
    return tuple(compute_dependences(build_kernel(kernel)))


@st.composite
def _dependence_and_extra(draw):
    """A cholesky / jacobi-2d dependence and one to three random rows over its space."""
    dependences = _kernel_dependences(draw(st.sampled_from(("cholesky", "jacobi-2d"))))
    dependence = dependences[draw(st.integers(0, len(dependences) - 1))]
    names = dependence.polyhedron.space.names
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        expression = AffineExpr.from_terms(
            {name: draw(st.integers(-3, 3)) for name in chosen}, draw(st.integers(-4, 4))
        )
        make = draw(st.sampled_from((AffineConstraint.greater_equal, AffineConstraint.equals)))
        extra.append(make(expression, 0))
    return dependence, extra


class TestDependenceMemo:
    """What a dependence remembers: equal to recomputing it, and private to the object."""

    # The same 60 examples every run (a few ms each): a random constraint that
    # sends an exact probe spinning for minutes cannot turn up in tier-1, and a
    # probe that slows a thousandfold fails here instead of stalling the suite.
    @settings(max_examples=60, deadline=2000, derandomize=True)
    @given(_dependence_and_extra())
    def test_is_empty_with_equals_a_fresh_probe_first_and_repeated(self, case):
        dependence, extra = case
        expected = Polyhedron(
            dependence.polyhedron.space, dependence.polyhedron.constraints
        ).is_empty(extra)
        known = ("empty", *extra) in (dependence._memo or {})
        with ledger() as work:
            assert dependence.is_empty_with(extra) is expected
            assert dependence.is_empty_with(list(extra)) is expected
        assert dependence.is_empty_with(tuple(extra)) is expected
        # The ledger counts the answers that were remembered, not the ones
        # computed — and only while a scope is open.
        assert work["probe_verdicts_reused"] == (2 if known else 1)
        assert work.get("probe_solves", 0) <= (0 if known else 1)

    def test_order_is_part_of_the_key_and_the_empty_extra_is_the_polyhedron(self):
        dependence = _distance_one_dependence()
        i, n = AffineExpr.variable("i__src"), AffineExpr.variable("N")
        extra = [AffineConstraint.greater_equal(i, 2), AffineConstraint.less_equal(n, 5)]
        assert dependence.is_empty_with(extra) is dependence.is_empty_with(extra[::-1]) is False
        assert len(dependence._memo) == 2  # as given: no canonical order is derived
        assert dependence.is_empty_with([]) is dependence.polyhedron.is_empty() is False

    def test_the_memo_is_never_copied_compared_or_serialised(self):
        from repro.pipeline import CompilationResult, Session
        from repro.pipeline.serialize import decode_dependence, encode_dependence
        from repro.service.wire import decode_result, encode_result

        session = Session()
        result = session.compile(build_kernel("trisolv"))
        remembering = [d for d in result.dependences if d._memo]
        assert remembering and any(k[0] == "legality" for d in remembering for k in d._memo)
        assert any(k[0] == "empty" for d in remembering for k in d._memo)
        dependence = remembering[0]
        assert "_memo" not in repr(dependence)
        blob = pickle.dumps(dependence)
        assert b"_memo" not in blob and b"legality" not in blob
        encoded = result.to_dict(), encode_result(result)["result"]
        for document in encoded:
            assert "_memo" not in json.dumps(document)
            # (stage_timings and diagnostics legitimately say "legality".)
            for part in ("dependences", "scheduling"):
                assert "legality" not in json.dumps(document[part])
        copies = [
            pickle.loads(blob),
            dataclasses.replace(dependence),
            decode_dependence(encode_dependence(dependence)),
            CompilationResult.from_dict(result.to_dict()).dependences[
                result.dependences.index(dependence)
            ],
            decode_result(encode_result(result)).dependences[
                result.dependences.index(dependence)
            ],
        ]
        for copy in copies:
            assert copy == dependence and copy._memo is None
        # A copy proves things for itself, and agrees.
        key = next(k for k in dependence._memo if k[0] == "empty")
        assert copies[0].is_empty_with(key[1:]) is dependence._memo[key]


    def test_threads_sharing_a_dependence_agree(self):
        """Workers may race to prove the same thing; every answer is the fresh one."""
        import sys
        import threading

        from repro.scheduler.legality import legality_rows

        scop = build_kernel("trisolv")
        by_name = {statement.name: statement for statement in scop.statements}
        dependence = compute_dependences(scop)[0]
        source, target = by_name[dependence.source], by_name[dependence.target]
        names = dependence.polyhedron.space.names
        extras = [
            [AffineConstraint.greater_equal(AffineExpr.variable(name), bound)]
            for name in names
            for bound in (-1, 0, 3)
        ]
        reference = dataclasses.replace(dependence)
        expected = [reference.is_empty_with(extra) for extra in extras]
        expected_rows = list(legality_rows(reference, source, target))
        failures: list[str] = []

        def worker() -> None:
            for _ in range(3):
                if [dependence.is_empty_with(extra) for extra in extras] != expected:
                    failures.append("verdict")
                if list(legality_rows(dependence, source, target)) != expected_rows:
                    failures.append("block")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(dependence._memo) == len(extras) + 1


class TestDependenceFarkasBlockMemo:
    """The Farkas row blocks of the scheduling ILPs are remembered on the dependence."""

    @staticmethod
    def _gemm_builder():
        from repro.scheduler.config import SchedulerConfig
        from repro.scheduler.ilp_builder import IlpBuilder
        from repro.scheduler.progression import ProgressionState
        from repro.suites.polybench.blas import gemm

        scop = gemm(6, 6, 6)
        dependences = compute_dependences(scop)
        config = SchedulerConfig(name="test")

        def build():
            builder = IlpBuilder(scop, config, {})
            progression = ProgressionState(list(scop.statements))
            with ledger() as work:
                problem = builder.build(0, dependences, progression, config.dimension_config(0))
            return problem, work

        return scop, dependences, build

    def test_blocks_follow_the_dependence_across_runs(self):
        scop, dependences, build = self._gemm_builder()
        first_problem, first = build()
        # A second run — its own ledger scope, as another strategy would
        # have — linearises nothing: every block comes off the dependences.
        second_problem, second = build()
        # legality (always present) + bounding (the default proximity cost).
        assert "farkas_blocks_reused" not in first and first["fm_rows_generated"] > 0
        assert second == {"farkas_blocks_reused": 2 * len(dependences)}
        assert second_problem.constraints == first_problem.constraints
        for dependence in dependences:
            assert {key[0] for key in dependence._memo} == {"legality", "bounding"}
        # The memo belongs to the object: an equal copy starts without one.
        copy = dataclasses.replace(dependences[0])
        assert copy == dependences[0] and copy._memo is None

    def test_builds_hold_the_remembered_rows_themselves(self):
        """No copy between a dependence's block and a build: legality comes
        first in every build, and its rows are the block's own objects."""
        from repro.scheduler.legality import legality_rows

        scop, dependences, build = self._gemm_builder()
        by_name = {statement.name: statement for statement in scop.statements}
        first, _ = build()
        second, _ = build()
        expected = []
        for dependence in dependences:
            source, target = by_name[dependence.source], by_name[dependence.target]
            for row in legality_rows(dependence, source, target):
                if row not in expected:
                    expected.append(row)
        for problem in (first, second):
            held = problem.constraints[: len(expected)]
            assert len(held) == len(expected)
            assert all(row is remembered for row, remembered in zip(held, expected))

    def test_remembered_blocks_equal_a_fresh_linearisation_and_stay_immutable(self):
        from repro.polyhedra.farkas import farkas_nonnegative
        from repro.scheduler.legality import legality_rows
        from repro.scheduler.naming import dependence_difference_templates

        scop, dependences, build = self._gemm_builder()
        by_name = {statement.name: statement for statement in scop.statements}
        build()
        build()  # add_rows has consumed every block twice by now
        for dependence in dependences:
            source, target = by_name[dependence.source], by_name[dependence.target]
            with ledger() as work:
                block = legality_rows(dependence, source, target, minimum=0)
            assert work == {"farkas_blocks_reused": 1}
            assert block is legality_rows(dependence, source, target, minimum=0)
            # Counters are not threaded through signatures any more.
            with pytest.raises(TypeError):
                legality_rows(dependence, source, target, minimum=0, reuse={})
            with pytest.raises(TypeError):
                legality_rows(dependence, source, target, minimum=0, stats=None)
            with pytest.raises(TypeError):
                dependence.is_empty_with([], reuse={})
            coefficients, constant = dependence_difference_templates(
                dependence, source, target
            )
            fresh = farkas_nonnegative(dependence.polyhedron, coefficients, constant)
            assert block == fresh
            with pytest.raises(TypeError):
                farkas_nonnegative(dependence.polyhedron, coefficients, constant, stats=None)
            # minimum=1 asks for something else: its own entry, other rows.
            assert legality_rows(dependence, source, target, minimum=1) is not block
            # The rows themselves are read-only: a remembered block cannot
            # be changed under the builds that share it.
            with pytest.raises(TypeError):
                block[0].coefficients["c_S0_i"] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                block[0].rhs = 1
            with pytest.raises(TypeError):
                block[0] = ()


class TestDependenceGraph:
    def test_scc_of_chain(self, sequence_scop):
        deps = compute_dependences(sequence_scop)
        graph = DependenceGraph.from_dependences(["S0", "S1", "S2"], deps)
        components = graph.condensation_order()
        assert [c[0] for c in components] == ["S0", "S1", "S2"]

    def test_scc_groups_cycles(self):
        class FakeDep:
            def __init__(self, source, target):
                self.source = source
                self.target = target

        graph = DependenceGraph(["A", "B", "C"])
        graph.edges = [
            ("A", "B", FakeDep("A", "B")),
            ("B", "A", FakeDep("B", "A")),
            ("B", "C", FakeDep("B", "C")),
        ]
        components = graph.condensation_order()
        assert components == [["A", "B"], ["C"]]

    def test_group_order_legality(self, sequence_scop):
        deps = compute_dependences(sequence_scop)
        graph = DependenceGraph.from_dependences(["S0", "S1", "S2"], deps)
        legal = [["S0"], ["S1"], ["S2"]]
        assert graph.topological_order(legal) == legal
        assert graph.topological_order([["S2"], ["S1"], ["S0"]]) == legal
        assert graph.topological_order([["S0", "S1", "S2"]]) == [["S0", "S1", "S2"]]
        # S0 -> S1 -> S2 runs from the first group to the second and back.
        assert graph.topological_order([["S0", "S2"], ["S1"]]) is None


@st.composite
def _grouped_graphs(draw):
    """Up to 6 nodes, up to 5 groups (some possibly empty, some nodes in none)
    and random edges, self-loops and 2-cycles included."""
    n_nodes = draw(st.integers(1, 6))
    n_groups = draw(st.integers(1, 5))
    nodes = [f"n{index}" for index in range(n_nodes)]
    member = draw(st.lists(st.integers(-1, n_groups - 1), min_size=n_nodes, max_size=n_nodes))
    groups: list[list[str]] = [[] for _ in range(n_groups)]
    for node, group in zip(nodes, member):
        if group >= 0:
            groups[group].append(node)
    node = st.integers(0, n_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=10))
    if draw(st.booleans()):  # make sure 2-cycles turn up
        a, b = draw(node), draw(node)
        edges += [(a, b), (b, a)]
    graph = DependenceGraph(nodes, [(nodes[s], nodes[t], None) for s, t in edges])
    return graph, groups


def _is_legal(graph, order) -> bool:
    position = {node: index for index, group in enumerate(order) for node in group}
    return all(
        position[source] <= position[target]
        for source, target, _ in graph.edges
        if source in position and target in position
    )


class TestTopologicalOrder:
    @given(_grouped_graphs())
    def test_result_is_the_least_legal_permutation(self, case):
        graph, groups = case
        legal = [
            permutation
            for permutation in itertools.permutations(range(len(groups)))
            if _is_legal(graph, [groups[index] for index in permutation])
        ]
        result = graph.topological_order(groups)
        if not legal:
            assert result is None
            return
        # permutations() enumerates in lexicographic order.
        assert result is not None
        assert [id(group) for group in result] == [id(groups[i]) for i in legal[0]]
        for permutation in legal:
            order = [groups[index] for index in permutation]
            assert [id(group) for group in graph.topological_order(order)] == [
                id(group) for group in order
            ]

    @given(_grouped_graphs())
    def test_condensation_runs_every_edge_forward(self, case):
        graph, _ = case
        components = graph.condensation_order()
        assert sorted(node for component in components for node in component) == sorted(
            graph.nodes
        )
        position = {node: index for index, group in enumerate(components) for node in group}
        for source, target, _ in graph.edges:
            assert position[source] <= position[target]
        # Ties go to the component whose first node comes first in the text:
        # the least legal permutation of the components in that order.
        by_text = sorted(components, key=lambda component: graph.nodes.index(component[0]))
        least = next(
            order
            for order in map(list, itertools.permutations(by_text))
            if _is_legal(graph, order)
        )
        assert components == least
