"""Exact integer emptiness and sampling for polyhedra.

Emptiness and sampling are delegated to the ILP layer, every dimension
(iterators *and* parameters) an integer variable.  A *root* is an
:class:`~repro.ilp.engine.IncrementalIlpEngine` over a polyhedron's integer
:class:`~repro.polyhedra.polyhedron.RowView` (plain ``int`` rows, exactly as
given: normalising is :meth:`Polyhedron.is_empty`'s business), except that
an inequality over one dimension is not a row but a bound in its variable's
box (:func:`_root`).  The engine answers probes warm: phase 1 runs once per
root, a probe adds its extra rows to a copy of the feasible root and
reoptimises with the dual simplex.  The
questions asked of one :class:`~repro.deps.dependence.Dependence` (satisfaction,
parallelism, legality) share the root the open :func:`probe_scope` keeps for
it; ``Session._run_pipeline`` opens the scope around a compile's stages, so a
root lives for one compile.  Dependence analysis keeps its own roots, one per
distinct base for one run, through :func:`is_empty_with_root`.  Any other
probe — :meth:`Polyhedron.is_empty`, the cold reference — builds a root and
drops it.

Every probe, on a root it is handed or on a fresh one, goes through one
helper (:func:`_probe`): it runs under an ``emptiness.probe`` span and reports
the engine work it took — a root's build included, on the probe that built it
— to the work ledger (:mod:`repro.obs.ledger`) under ``probe_<name>``, one
name per :class:`~repro.ilp.engine.EngineStatistics` field (``probe_solves``,
``probe_roots``, ``probe_pivots``, ...).  Nothing else in the package calls
the engine's ``probe``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

from ..ilp.engine import IncrementalIlpEngine
from ..ilp.problem import ConstraintSense, LinearConstraint, LinearProblem
from ..obs import active_tracer, count
from .constraint import AffineConstraint
from .polyhedron import Polyhedron

__all__ = [
    "probe_scope",
    "is_empty_from_root",
    "is_empty_with_root",
]

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
    """An engine over the polyhedron's integer rows, one-variable rows as boxes.

    An inequality ``a*x + c >= 0`` over one dimension is the bound
    ``x >= ceil(-c/a)`` (``a > 0``) or ``x <= floor(c/-a)``; the tightest on
    each side becomes the variable's box, which the engine keeps as a shifted
    column (and a column span) rather than a row over two split columns.  A
    variable with no lower bound stays split, its upper bound an explicit row;
    a variable whose bounds cross keeps its rows, so phase 1 finds the root
    empty the ordinary way.  Equalities and rows over several dimensions stay
    rows.  Rounding loses no integer point, so the verdicts are exact.
    """
    names, rows, kinds, _ = polyhedron.row_view()
    lower: dict[str, int] = {}
    upper: dict[str, int] = {}
    for row, is_equality in zip(rows, kinds):
        if is_equality or len(row.terms) != 1:
            continue
        ((column, a),) = row.terms
        name = names[column]
        if a > 0:
            bound = -(row.constant // a)
            lower[name] = max(bound, lower.get(name, bound))
        else:
            bound = row.constant // -a
            upper[name] = min(bound, upper.get(name, bound))
    crossing = {name for name in lower.keys() & upper.keys() if lower[name] > upper[name]}
    for name in crossing:
        del lower[name], upper[name]
    problem = LinearProblem()
    for name in polyhedron.space.names:
        problem.add_variable(name, lower=lower.get(name), upper=upper.get(name))
    # Appended directly: every name is a dimension of the space
    # (Polyhedron.__post_init__), which is all add_constraint would check.
    problem.constraints.extend(
        LinearConstraint(
            {names[column]: value for column, value in row.terms},
            _SENSE[is_equality],
            -row.constant,
        )
        for row, is_equality in zip(rows, kinds)
        if is_equality or len(row.terms) != 1 or names[row.terms[0][0]] in crossing
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
