"""Exact integer emptiness, sampling and enumeration for polyhedra.

Emptiness and sampling are delegated to the ILP layer with all dimensions
(iterators *and* parameters) treated as free integer variables.  A *root* is
an :class:`~repro.ilp.engine.IncrementalIlpEngine` over a polyhedron's integer
:class:`~repro.polyhedra.polyhedron.RowView` (plain ``int`` rows, exactly as
given: normalising is :meth:`Polyhedron.is_empty`'s business), and the engine
answers probes warm: phase 1 runs once per root, a probe adds its extra rows
to a copy of the feasible root and reoptimises with the dual simplex.  The
questions asked of one :class:`~repro.deps.dependence.Dependence` (satisfaction,
parallelism, legality) share the root the open :func:`probe_scope` keeps for
it; ``Session._run_pipeline`` opens the scope around a compile's stages, so a
root lives for one compile.  Dependence analysis keeps its own roots, one per
distinct base for one run, through :func:`is_empty_with_root`.  Any other
probe — :meth:`Polyhedron.is_empty` and :meth:`Polyhedron.sample_point`, the
cold reference — builds a root and drops it.  Enumeration requires a bounded
set and proceeds dimension by dimension using the rational bounds from
Fourier–Motzkin projection, checking each candidate point against the
original constraints.

Every probe, on a root it is handed or on a fresh one, goes through one
helper (:func:`_probe`): it runs under an ``emptiness.probe`` span and reports
the engine work it took — a root's build included, on the probe that built it
— to the work ledger (:mod:`repro.obs.ledger`) under ``probe_<name>``, one
name per :class:`~repro.ilp.engine.EngineStatistics` field (``probe_solves``,
``probe_roots``, ``probe_pivots``, ...).  Nothing else in the package calls
the engine's ``probe``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping, Sequence

from ..ilp.engine import IncrementalIlpEngine
from ..ilp.problem import ConstraintSense, LinearConstraint, LinearProblem
from ..obs import active_tracer, count
from .constraint import AffineConstraint
from .polyhedron import Polyhedron

__all__ = [
    "probe_scope",
    "is_empty_from_root",
    "is_empty_with_root",
    "enumerate_integer_points",
    "count_integer_points",
]

_ENUMERATION_LIMIT = 2_000_000
#: A row ``e >= 0`` / ``e == 0`` (by ``is_equality``) as ``e.x sense -constant``.
_SENSE = {False: ConstraintSense.GE, True: ConstraintSense.EQ}

#: The roots of the open probe scope, by owner identity (the owner is held so
#: its identity cannot be reused while the scope lives).
_ROOTS: ContextVar[dict[int, tuple[object, IncrementalIlpEngine]] | None] = ContextVar(
    "repro_probe_roots", default=None
)


@contextmanager
def probe_scope() -> Iterator[None]:
    """Keep one root per probed owner for the block, or join the open scope.

    Only the outermost scope of a context owns roots; they are dropped when
    it closes.  Scopes are context-local, like the work ledger: a thread
    starts with none open.
    """
    if _ROOTS.get() is not None:
        yield
        return
    token = _ROOTS.set({})
    try:
        yield
    finally:
        _ROOTS.reset(token)


def _root(polyhedron: Polyhedron) -> IncrementalIlpEngine:
    """An engine over the polyhedron's integer rows (all dimensions free)."""
    problem = LinearProblem()
    for name in polyhedron.space.names:
        problem.add_variable(name, lower=None, upper=None)
    names, rows, kinds, _ = polyhedron.row_view()
    # Appended directly: every name is a dimension of the space
    # (Polyhedron.__post_init__), which is all add_constraint would check.
    problem.constraints.extend(
        LinearConstraint(
            {names[column]: value for column, value in row.terms},
            _SENSE[is_equality],
            -row.constant,
        )
        for row, is_equality in zip(rows, kinds)
    )
    return IncrementalIlpEngine(problem)


def _probe(
    polyhedron: Polyhedron,
    extra: Sequence[AffineConstraint] = (),
    root: IncrementalIlpEngine | None = None,
) -> tuple[dict[str, int] | None, IncrementalIlpEngine]:
    """One counted probe: an integer point of *polyhedron* and *extra* (or
    ``None``), and the root it was asked of — *root*, kept by the caller from
    a probe of a polyhedron with the same signature, else one built here.
    """
    with active_tracer().span(
        "emptiness.probe",
        category="emptiness",
        dimensions=len(polyhedron.space.names),
        constraints=len(polyhedron.constraints),
        extra=len(extra),
    ) as span:
        engine = root if root is not None else _root(polyhedron)
        point = engine.probe([
            LinearConstraint(
                c.expression.coefficients, _SENSE[c.is_equality], -c.expression.constant
            )
            for c in extra
        ])
        for name, amount in engine.stats.as_dict().items():
            count("probe_" + name, amount)
        span.set("empty", point is None)
    if point is not None:
        point = {name: int(value) for name, value in point.items()}
    return point, engine


def is_empty_from_root(
    owner: object, polyhedron: Polyhedron, extra: Sequence[AffineConstraint]
) -> bool:
    """``polyhedron.is_empty(extra)``, asked of the open scope's root for
    *owner* (one polyhedron per owner; built on its first probe)."""
    roots = _ROOTS.get()
    kept = roots.get(id(owner)) if roots is not None else None
    point, root = _probe(polyhedron, extra, None if kept is None else kept[1])
    if roots is not None and kept is None:
        roots[id(owner)] = (owner, root)
    return point is None


def is_empty_with_root(
    polyhedron: Polyhedron,
    extra: Sequence[AffineConstraint],
    root: IncrementalIlpEngine | None = None,
) -> tuple[bool, IncrementalIlpEngine]:
    """``polyhedron.is_empty(extra)`` and the root it was asked of: *root*, as
    an earlier call on a polyhedron with the same signature returned it, or a
    new one for the caller to keep."""
    point, root = _probe(polyhedron, extra, root)
    return point is None, root


def enumerate_integer_points(polyhedron: Polyhedron) -> list[dict[str, int]]:
    """All integer points of a bounded polyhedron with no remaining parameters.

    The points are produced in lexicographic order of the space's iterator
    names.  A :class:`ValueError` is raised when a dimension is unbounded or
    when the point count exceeds a safety limit.
    """
    if polyhedron.space.parameters:
        raise ValueError("enumeration requires all parameters to be fixed first")
    names = list(polyhedron.space.iterators)
    points: list[dict[str, int]] = []
    _enumerate_rec(polyhedron, names, 0, {}, points)
    return points


def count_integer_points(
    polyhedron: Polyhedron, parameter_values: Mapping[str, int] | None = None
) -> int:
    """Number of integer points after fixing the parameters."""
    fixed = polyhedron.fix_dimensions(parameter_values or {})
    return len(enumerate_integer_points(fixed))


def _enumerate_rec(
    polyhedron: Polyhedron,
    names: list[str],
    depth: int,
    partial: dict[str, int],
    points: list[dict[str, int]],
) -> None:
    if depth == len(names):
        if polyhedron.contains(partial):
            points.append(dict(partial))
        return
    name = names[depth]
    # Project away the deeper dimensions to obtain bounds for `name` in terms of
    # the already fixed outer dimensions.
    projected = polyhedron.project_onto(names[: depth + 1])
    substituted = projected.fix_dimensions({k: partial[k] for k in names[:depth]})
    lower, upper = substituted.dimension_bounds(name)
    if not lower or not upper:
        raise ValueError(f"dimension {name!r} is unbounded; cannot enumerate")
    low = max(math.ceil(bound.constant) for bound in lower)
    high = min(math.floor(bound.constant) for bound in upper)
    if len(points) > _ENUMERATION_LIMIT:
        raise ValueError("enumeration limit exceeded")
    for value in range(int(low), int(high) + 1):
        partial[name] = value
        _enumerate_rec(polyhedron, names, depth + 1, partial, points)
    partial.pop(name, None)
