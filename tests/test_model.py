"""Unit tests for the SCoP model: accesses, statements, schedules, builder, scop."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.model import (
    AccessKind,
    ArrayAccess,
    Schedule,
    ScopBuilder,
    StatementSchedule,
)
from repro.polyhedra import AffineExpr
from repro.scheduler.config import resolve_statement


class TestArrayAccess:
    def test_read_write_constructors(self):
        i = AffineExpr.variable("i")
        read = ArrayAccess.read("A", [i, 2])
        write = ArrayAccess.write("A", [i])
        assert read.is_read and not read.is_write
        assert write.is_write
        assert read.rank == 2

    def test_kind_of(self):
        assert ArrayAccess.read("A", []).kind is AccessKind.READ

    def test_evaluate(self):
        i = AffineExpr.variable("i")
        access = ArrayAccess.read("A", [2 * i + 1, i])
        assert access.evaluate({"i": 3}) == (7, 3)

    def test_rename(self):
        i = AffineExpr.variable("i")
        access = ArrayAccess.read("A", [i]).rename({"i": "x"})
        assert access.indices[0].coefficient("x") == 1

    def test_contiguous_iterator_last_subscript(self):
        i, j = AffineExpr.variable("i"), AffineExpr.variable("j")
        assert ArrayAccess.read("A", [i, j]).contiguous_iterator() == "j"
        assert ArrayAccess.read("A", [j, i]).contiguous_iterator() == "i"
        assert ArrayAccess.read("A", []).contiguous_iterator() is None
        # A strided last subscript has no single unit-coefficient iterator.
        assert ArrayAccess.read("A", [i, 2 * j]).contiguous_iterator() is None


class TestBuilder:
    def test_statement_domain_and_schedule(self, gemm_scop):
        update = gemm_scop.statement("S1")
        assert update.iterators == ("i", "j", "k")
        assert update.depth == 3
        # 2d+1 representation: beta, i, beta, j, beta, k, beta
        assert len(update.original_schedule) == 7

    def test_textual_order_is_recorded(self, gemm_scop):
        init = gemm_scop.statement("S0")
        update = gemm_scop.statement("S1")
        # S0 and S1 share the i and j loops; the beta at depth 2 orders them.
        assert init.original_schedule[4].constant == 0
        assert update.original_schedule[4].constant == 1

    def test_duplicate_iterator_rejected(self):
        b = ScopBuilder("bad", parameters={"N": 4})
        N = b.parameter("N")
        with b.loop("i", 0, N):
            with pytest.raises(ValueError):
                b.loop("i", 0, N).__enter__()

    def test_unknown_parameter_rejected(self):
        b = ScopBuilder("bad")
        with pytest.raises(KeyError):
            b.parameter("N")

    def test_build_with_open_loops_rejected(self):
        b = ScopBuilder("bad", parameters={"N": 4})
        N = b.parameter("N")
        context = b.loop("i", 0, N)
        context.__enter__()
        with pytest.raises(RuntimeError):
            b.build()

    def test_context_constraints_assume_positive_parameters(self, gemm_scop):
        assert len(gemm_scop.context) == 3  # NI, NJ, NK >= 1

    def test_triangular_domain(self):
        b = ScopBuilder("tri", parameters={"N": 6})
        N = b.parameter("N")
        b.array("A", N, N)
        with b.loop("i", 0, N) as i:
            with b.loop("j", 0, i) as j:
                b.statement(writes=[("A", [i, j])])
        scop = b.build()
        domain = scop.statement("S0").domain
        assert domain.contains({"i": 3, "j": 2, "N": 6})
        assert not domain.contains({"i": 3, "j": 3, "N": 6})

    def test_generic_body_reads_and_writes(self):
        b = ScopBuilder("body", parameters={"N": 4})
        N = b.parameter("N")
        b.array("A", N)
        b.array("B", N)
        with b.loop("i", 0, N) as i:
            b.statement(writes=[("B", [i])], reads=[("A", [i])])
        scop = b.build()
        arrays = scop.allocate_arrays()
        before = arrays["B"].copy()
        scop.statement("S0").execute(arrays, {"i": 1, "N": 4})
        assert arrays["B"][1] != before[1]
        assert (arrays["B"][2:] == before[2:]).all()


class TestStatementHelpers:
    def test_contiguity_votes(self, gemm_scop):
        update = gemm_scop.statement("S1")
        votes = update.contiguity_votes()
        # C[i][j] (x2) and B[k][j] are contiguous in j, A[i][k] in k.
        assert votes["j"] == 3
        assert votes["k"] == 1
        assert update.preferred_vector_iterator() == "j"

    def test_iterator_extent(self, gemm_scop):
        update = gemm_scop.statement("S1")
        assert update.iterator_extent("i", {"NI": 10, "NJ": 10, "NK": 10}) == 10

    def test_reads_and_writes_partition(self, gemm_scop):
        update = gemm_scop.statement("S1")
        assert len(update.writes()) == 1
        assert len(update.reads()) == 3
        assert update.accessed_arrays() == {"A", "B", "C"}


class TestSchedule:
    def test_identity_and_padding(self):
        schedule = Schedule.identity(
            {"S0": [AffineExpr.variable("i")], "S1": [AffineExpr.variable("j"), AffineExpr.const(1)]}
        )
        padded = schedule.padded()
        assert padded.statements["S0"].n_dims == 2
        assert padded.statements["S0"].rows[1] == AffineExpr.const(0)

    def test_date_and_lexicographic_use(self):
        statement = StatementSchedule("S0", (AffineExpr.variable("i") + 1,))
        assert statement.date({"i": 3}) == (Fraction(4),)

    def test_scalar_dim_detection(self):
        schedule = Schedule.identity(
            {"S0": [AffineExpr.const(0), AffineExpr.variable("i")]}
        )
        assert schedule.is_scalar_dim(0)
        assert not schedule.is_scalar_dim(1)

    def test_band_members(self):
        schedule = Schedule.identity({"S0": [AffineExpr.variable("i"), AffineExpr.variable("j")]})
        schedule.bands = [0, 0]
        assert schedule.band_members(0) == [0, 1]
        assert schedule.band_ids() == [0]


class TestScop:
    def test_statement_lookup(self, gemm_scop):
        assert gemm_scop.statement("S0").index == 0
        assert resolve_statement(gemm_scop.statements, "1").name == "S1"
        with pytest.raises(KeyError):
            gemm_scop.statement("does-not-exist")

    def test_original_schedule_orders_instances(self, gemm_scop):
        schedule = gemm_scop.original_schedule()
        init_date = schedule.date("S0", {"i": 2, "j": 3, "NI": 10, "NJ": 10, "NK": 10})
        update_date = schedule.date("S1", {"i": 2, "j": 3, "k": 0, "NI": 10, "NJ": 10, "NK": 10})
        assert tuple(init_date) < tuple(update_date)

    def test_allocate_arrays_shapes(self, gemm_scop):
        arrays = gemm_scop.allocate_arrays()
        assert arrays["C"].shape == (10, 10)
        assert arrays["A"].dtype == np.float64

    def test_resolved_parameters_missing(self):
        b = ScopBuilder("x", parameters=("N",))
        scop = b.build()
        with pytest.raises(ValueError):
            scop.resolved_parameters()

    def test_max_depth(self, gemm_scop, sequence_scop):
        assert gemm_scop.max_depth() == 3
        assert sequence_scop.max_depth() == 1
