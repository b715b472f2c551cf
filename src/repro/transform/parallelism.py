"""Parallelism detection on final schedules.

A schedule dimension is parallel when no dependence is carried by it, i.e.
every dependence that is not already carried by an outer dimension has zero
distance at this dimension.  The scheduler records this incrementally; this
module recomputes it from scratch on arbitrary schedules (useful after tiling
or for schedules not produced by the scheduler) and also provides a legality
check used by the test-suite.  Both join the open probe scope, or open one
for the call (:func:`~repro.polyhedra.emptiness.probe_scope`).
"""

from __future__ import annotations

from typing import Sequence

from ..deps.dependence import Dependence, lexicographic_levels
from ..model.schedule import Schedule
from ..obs import active_tracer
from ..polyhedra.affine import AffineExpr
from ..polyhedra.emptiness import probe_scope

__all__ = ["detect_parallel_dimensions", "schedule_is_legal", "carried_dimension"]


def carried_dimension(dependence: Dependence, schedule: Schedule) -> int | None:
    """The outermost dimension that strongly satisfies *dependence*, if any."""
    source_rows = schedule.rows_for(dependence.source)
    target_rows = schedule.rows_for(dependence.target)
    for dimension in range(min(len(source_rows), len(target_rows))):
        if dependence.is_strongly_satisfied_by(
            source_rows[dimension], target_rows[dimension]
        ):
            return dimension
    return None


@probe_scope()
def detect_parallel_dimensions(
    schedule: Schedule, dependences: Sequence[Dependence]
) -> list[bool]:
    """Recompute, for every schedule dimension, whether it is parallel."""
    n_dims = schedule.n_dims
    carried: dict[int, int | None] = {
        index: carried_dimension(dependence, schedule)
        for index, dependence in enumerate(dependences)
    }
    parallel: list[bool] = []
    for dimension in range(n_dims):
        dimension_parallel = True
        for index, dependence in enumerate(dependences):
            outer = carried[index]
            if outer is not None and outer < dimension:
                continue  # already carried outside: cannot constrain this dimension
            source_row = _row(schedule, dependence.source, dimension)
            target_row = _row(schedule, dependence.target, dimension)
            if not dependence.has_zero_distance_under(source_row, target_row):
                dimension_parallel = False
                break
        parallel.append(dimension_parallel)
    return parallel


@probe_scope()
def schedule_is_legal(schedule: Schedule, dependences: Sequence[Dependence]) -> bool:
    """Exact legality check: every dependence must be lexicographically respected.

    For each dependence we verify there is no instance pair whose target date
    is lexicographically smaller than its source date.  (Ties — equal dates —
    are allowed: the code generator then falls back to the original textual
    order, which is legal because the dependence's source statement precedes
    its target in that order or the dependence is loop-carried and cannot tie.)

    A prefix another strategy already produced for the dependence is not probed
    again (:meth:`Dependence.is_empty_with`; the ``legality.dependence`` span
    carries ``probe_verdicts_reused`` beside ``probes``).  Constant levels are
    decided by :func:`~repro.deps.dependence.lexicographic_levels` (``constant_levels``).
    """
    tracer = active_tracer()
    for dependence in dependences:
        source_rows = schedule.rows_for(dependence.source)
        target_rows = schedule.rows_for(dependence.target)
        levels = lexicographic_levels(
            source_rows, target_rows, dependence.source_map, dependence.target_map, sign=-1
        )
        with tracer.span(
            "legality.dependence", category="legality", dependence=dependence.identifier()
        ) as span:
            for extra in levels:
                span.add("levels")
                if extra is None:
                    span.add("constant_levels")
                    continue
                span.add("probes")
                if not dependence.is_empty_with(extra):
                    return False
    return True


def _row(schedule: Schedule, statement: str, dimension: int) -> AffineExpr:
    rows = schedule.rows_for(statement)
    if dimension < len(rows):
        return rows[dimension]
    return AffineExpr.const(0)
