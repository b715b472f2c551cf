"""Memory-based dependence analysis.

For every ordered pair of statements and every pair of accesses to the same
array (with at least one write), a dependence polyhedron is built per original
execution depth: both instances in their domains, equal subscripts, and the
source instance lexicographically before the target instance with the first
difference at that depth.  Non-empty polyhedra become :class:`Dependence`
objects.  This matches the abstraction used by Candl/Pluto (memory-based
dependences, per-depth splitting).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..model.access import ArrayAccess
from ..model.scop import Scop
from ..model.statement import Statement
from ..obs import active_tracer, ledger
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.emptiness import BatchProbe
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from .dependence import SOURCE_SUFFIX, TARGET_SUFFIX, Dependence, DependenceKind

__all__ = ["DependenceAnalysis", "compute_dependences", "deduplicate_dependences"]


def deduplicate_dependences(dependences: Sequence[Dependence]) -> list[Dependence]:
    """Drop dependences whose (source, target, polyhedron) repeats an earlier one.

    Dependences that only differ by their kind (RAW/WAR/WAW on the same access
    pair) impose identical scheduling constraints; keeping one representative
    each keeps the scheduler's ILPs small.
    """
    seen: set[tuple] = set()
    unique: list[Dependence] = []
    for dependence in dependences:
        signature = (
            dependence.source,
            dependence.target,
            dependence.polyhedron.signature(),
        )
        if signature in seen:
            continue
        seen.add(signature)
        unique.append(dependence)
    return unique


class DependenceAnalysis:
    """The dependence analysis: flow, anti and output dependences of a SCoP.

    Every candidate polyhedron of one :meth:`run` is probed for integer
    emptiness through a single :class:`~repro.polyhedra.emptiness.BatchProbe`
    (one verdict cache per SCoP); what the probes cost is counted on the work
    ledger, so a ``deps.pair`` span carries the probes of its pair (one
    ``emptiness_probes`` a level) and :func:`compute_dependences` reports the
    run's.
    """

    def run(self, scop: Scop) -> list[Dependence]:
        probe = BatchProbe()
        tracer = active_tracer()
        dependences: list[Dependence] = []
        for source in scop.statements:
            for target in scop.statements:
                with tracer.span(
                    "deps.pair", category="deps", source=source.name, target=target.name
                ) as span:
                    found = list(self._statement_pair(scop, source, target, probe, span))
                    span.add("nonempty", len(found))
                dependences.extend(found)
        return dependences

    # ------------------------------------------------------------------ #
    # Per statement pair
    # ------------------------------------------------------------------ #
    def _statement_pair(
        self, scop: Scop, source: Statement, target: Statement, probe: BatchProbe, span
    ) -> Iterable[Dependence]:
        arrays = source.accessed_arrays() & target.accessed_arrays()
        for array in sorted(arrays):
            for source_access in source.accesses_to(array):
                for target_access in target.accesses_to(array):
                    if not (source_access.is_write or target_access.is_write):
                        continue
                    kind = DependenceKind.of(source_access, target_access)
                    span.add("access_pairs")
                    yield from self._access_pair(
                        scop, source, target, source_access, target_access, kind, probe
                    )

    def _access_pair(
        self,
        scop: Scop,
        source: Statement,
        target: Statement,
        source_access: ArrayAccess,
        target_access: ArrayAccess,
        kind: DependenceKind,
        probe: BatchProbe,
    ) -> Iterable[Dependence]:
        source_map = {name: f"{name}{SOURCE_SUFFIX}" for name in source.iterators}
        target_map = {name: f"{name}{TARGET_SUFFIX}" for name in target.iterators}
        combined_space = Space(
            tuple(source_map[name] for name in source.iterators)
            + tuple(target_map[name] for name in target.iterators),
            scop.parameters,
        )

        base_constraints: list[AffineConstraint] = []
        base_constraints.extend(
            constraint.rename(source_map) for constraint in source.domain.constraints
        )
        base_constraints.extend(
            constraint.rename(target_map) for constraint in target.domain.constraints
        )
        base_constraints.extend(scop.context)
        for source_index, target_index in zip(source_access.indices, target_access.indices):
            base_constraints.append(
                AffineConstraint.equals(
                    source_index.rename(source_map), target_index.rename(target_map)
                )
            )

        # Normalised once per access pair; every depth extends it.
        base = Polyhedron.from_constraints(combined_space, base_constraints)

        source_rows = list(source.original_schedule)
        target_rows = list(target.original_schedule)
        n_levels = max(len(source_rows), len(target_rows))
        source_rows += [AffineExpr.const(0)] * (n_levels - len(source_rows))
        target_rows += [AffineExpr.const(0)] * (n_levels - len(target_rows))

        prefix_equalities: list[AffineConstraint] = []
        for depth in range(n_levels):
            difference = target_rows[depth].rename(target_map) - source_rows[depth].rename(
                source_map
            )
            polyhedron = base.add_constraints(
                prefix_equalities + [AffineConstraint.greater_equal(difference, 1)]
            )
            if not probe.is_integer_empty(polyhedron):
                yield Dependence(
                    source=source.name,
                    target=target.name,
                    kind=kind,
                    array=source_access.array,
                    polyhedron=polyhedron,
                    source_map=source_map,
                    target_map=target_map,
                    depth=depth,
                    source_access=source_access,
                    target_access=target_access,
                )
            prefix_equalities.append(AffineConstraint.equals(difference, 0))


def compute_dependences(scop: Scop, probe_statistics: dict | None = None) -> list[Dependence]:
    """Compute the flow, anti and output dependences of *scop*.

    Passing a dict as ``probe_statistics`` fills it with what the analysis
    counted on the work ledger: the batched emptiness-probe counters
    (``emptiness_probes``, ``emptiness_trivial_hits``, ``emptiness_reuse_hits``,
    ``emptiness_engine_probes``) and the engine work of the probes that were
    solved (``probe_solves``, ``probe_pivots``, ...).
    """
    with ledger() as work:
        dependences = DependenceAnalysis().run(scop)
    if probe_statistics is not None:
        probe_statistics.update(work)
    return dependences
