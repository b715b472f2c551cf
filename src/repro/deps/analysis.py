"""Memory-based dependence analysis.

For every ordered pair of statements and every pair of accesses to the same
array (with at least one write), a dependence is a candidate per original
execution depth: both instances in their domains, equal subscripts (the access
pair's *base*), and the source instance lexicographically before the target
instance with the first difference at that depth (the level's extra
constraints).  Non-empty candidates become :class:`Dependence` objects.  This
matches the abstraction used by Candl/Pluto (memory-based dependences,
per-depth splitting).

Levels the constant schedule rows decide are never probed
(:func:`~repro.deps.dependence.lexicographic_levels`).  The others are asked
of one root per distinct base, and a level asked twice of the same base in
one run is answered from memory; only a non-empty level is normalised into
its dependence polyhedron.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..ilp.engine import IncrementalIlpEngine
from ..model.access import ArrayAccess
from ..model.scop import Scop
from ..model.statement import Statement
from ..obs import active_tracer, count, ledger
from ..polyhedra.constraint import AffineConstraint
from ..polyhedra.emptiness import is_empty_with_root
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from .dependence import (
    PROBE_VERDICTS_REUSED,
    SOURCE_SUFFIX,
    TARGET_SUFFIX,
    Dependence,
    DependenceKind,
    lexicographic_levels,
)

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

    A :meth:`run` asks each level the constant schedule rows leave open
    whether its candidate — the access pair's base plus the level's extra
    constraints — is empty, and keeps, for that run only, one root per
    distinct base (by :meth:`Polyhedron.signature`) and the verdicts asked of
    it (by the extra constraints as given, the shape of
    :meth:`Dependence.is_empty_with`).  A candidate becomes a normalised
    polyhedron only once it is known to be a dependence.  Each level asked
    counts one ``emptiness_probes`` on the work ledger and a remembered
    verdict one ``probe_verdicts_reused``; the probes that were solved report
    their engine work (``probe_solves``, ``probe_roots``, ...).  So a
    ``deps.pair`` span carries the probes of its pair and
    :func:`compute_dependences` reports the run's.
    """

    def run(self, scop: Scop) -> list[Dependence]:
        roots: dict[tuple, IncrementalIlpEngine] = {}
        verdicts: dict[tuple, dict[tuple, bool]] = {}
        tracer = active_tracer()
        dependences: list[Dependence] = []
        for source in scop.statements:
            for target in scop.statements:
                with tracer.span(
                    "deps.pair", category="deps", source=source.name, target=target.name
                ) as span:
                    found = list(
                        self._statement_pair(scop, source, target, roots, verdicts, span)
                    )
                    span.add("nonempty", len(found))
                dependences.extend(found)
        return dependences

    # ------------------------------------------------------------------ #
    # Per statement pair
    # ------------------------------------------------------------------ #
    def _statement_pair(
        self,
        scop: Scop,
        source: Statement,
        target: Statement,
        roots: dict[tuple, IncrementalIlpEngine],
        verdicts: dict[tuple, dict[tuple, bool]],
        span,
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
                        scop, source, target, source_access, target_access, kind,
                        roots, verdicts,
                    )

    def _access_pair(
        self,
        scop: Scop,
        source: Statement,
        target: Statement,
        source_access: ArrayAccess,
        target_access: ArrayAccess,
        kind: DependenceKind,
        roots: dict[tuple, IncrementalIlpEngine],
        verdicts: dict[tuple, dict[tuple, bool]],
    ) -> Iterable[Dependence]:
        source_map = {name: f"{name}{SOURCE_SUFFIX}" for name in source.iterators}
        target_map = {name: f"{name}{TARGET_SUFFIX}" for name in target.iterators}
        base: Polyhedron | None = None  # built when a level first needs a probe
        levels = lexicographic_levels(
            source.original_schedule, target.original_schedule, source_map, target_map, sign=1
        )
        for depth, extra in enumerate(levels):
            if extra is None:
                continue
            if base is None:
                base = Polyhedron.from_constraints(
                    Space((*source_map.values(), *target_map.values()), scop.parameters),
                    [
                        *(c.rename(source_map) for c in source.domain.constraints),
                        *(c.rename(target_map) for c in target.domain.constraints),
                        *scop.context,
                        *(
                            AffineConstraint.equals(s.rename(source_map), t.rename(target_map))
                            for s, t in zip(source_access.indices, target_access.indices)
                        ),
                    ],
                )
                if base.has_trivial_contradiction():
                    return  # e.g. two constant subscripts that differ
                signature = base.signature()
                asked = verdicts.setdefault(signature, {})
            count("emptiness_probes")
            key = tuple(extra)
            empty = asked.get(key)
            if empty is None:
                empty, roots[signature] = is_empty_with_root(base, extra, roots.get(signature))
                asked[key] = empty
            else:
                count(PROBE_VERDICTS_REUSED)
            if not empty:
                yield Dependence(
                    source=source.name,
                    target=target.name,
                    kind=kind,
                    array=source_access.array,
                    polyhedron=base.add_constraints(extra),
                    source_map=source_map,
                    target_map=target_map,
                    depth=depth,
                    source_access=source_access,
                    target_access=target_access,
                )


def compute_dependences(scop: Scop, probe_statistics: dict | None = None) -> list[Dependence]:
    """Compute the flow, anti and output dependences of *scop*.

    Passing a dict as ``probe_statistics`` fills it with what the analysis
    counted on the work ledger: the levels asked (``emptiness_probes``), those
    answered from the run's memory (``probe_verdicts_reused``) and the engine
    work of the probes that were solved (``probe_solves``, ``probe_roots``,
    ``probe_pivots``, ...).  Constant levels are decided without a probe
    (:func:`~repro.deps.dependence.lexicographic_levels`).
    """
    with ledger() as work:
        dependences = DependenceAnalysis().run(scop)
    if probe_statistics is not None:
        probe_statistics.update(work)
    return dependences
