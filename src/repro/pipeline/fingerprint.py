"""Stable fingerprints for SCoPs and scheduler configurations.

The session caches (:mod:`repro.pipeline.session`) are keyed by *content*, not
by object identity: two structurally identical SCoPs — e.g. the same PolyBench
kernel built twice — share one cache entry, and two configurations serialising
to the same JSON document are treated as the same configuration.

The structural SCoP fingerprint deliberately ignores the concrete parameter
values: dependence analysis is symbolic, so the dependences of ``gemm`` with
``NI=16`` and ``NI=1024`` are identical.  The concrete values only enter the
*result* cache key (via :func:`parameter_values_key`), because the machine
model evaluates on concrete problem sizes.

Each of the three content fingerprints is memoised on the object it hashes,
in its private ``_fingerprint_memo`` field (the precedent is
``Dependence._memo``): a :class:`Session` memory hit then costs a tuple
comparison, not a walk over every statement, access and constraint.  The memo
is ``(snapshot, digest)``; the snapshot holds every other dataclass field of
the object, a ``dict`` as ``tuple(d.items())`` and a ``list`` as ``tuple(l)``,
and the digest is recomputed whenever the snapshot taken now differs from the
one kept.  Tuple ``==`` takes the identity shortcut element by element, so a
repeat call on the same objects compares pointers; a field replaced or edited
in place (``scop.statements.append``, ``config.ilp_construction[0] = ...``,
``machine.cache_levels.append``) changes the snapshot and the digest is
computed again.  The guard is shallow: it relies on the nested parts
(``Statement``, ``Polyhedron``, ``AffineExpr``, ``AffineConstraint``,
``DimensionConfig``, ``FusionSpec``, ``Directive``, ``SolverOptions``,
``CacheLevelSpec``) being frozen, as ``AffineExpr.__hash__`` already does.  A
part replaced by an equal one compares equal and keeps the digest, which
equal content hashes to anyway; equal is ``==``, so a number replaced by an
equal one of another type (``4`` by ``4.0``) keeps the digest of the first.
The memo is left out of ``repr``, ``==``, ``dataclasses.replace``, pickles,
``to_json`` and the wire codec, so the fingerprint strings are the ones
computed without it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from functools import cache
from operator import attrgetter
from typing import Callable, Mapping

from ..machine.machine import MachineModel
from ..model.schedule import Schedule
from ..model.scop import Scop
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from ..scheduler.config import SchedulerConfig
from ..transform.tiling import TilingSpec
from .serialize import encode_schedule, encode_tiling

__all__ = [
    "scop_fingerprint",
    "config_fingerprint",
    "machine_fingerprint",
    "parameter_values_key",
    "result_parts",
    "parts_fingerprint",
    "result_fingerprint",
    "schedule_fingerprint",
]


@cache
def _guarded_fields(cls: type) -> attrgetter:
    """Reads every dataclass field of *cls* but the memo, as one tuple."""
    return attrgetter(*(f.name for f in fields(cls) if f.name != "_fingerprint_memo"))


def _memoised(
    obj: Scop | SchedulerConfig | MachineModel, compute: Callable[..., str]
) -> str:
    """``compute(obj)``, kept on *obj* until one of its fields changes."""
    snapshot = tuple([
        tuple(value.items()) if isinstance(value, dict)
        else tuple(value) if isinstance(value, list)
        else value
        for value in _guarded_fields(type(obj))(obj)
    ])
    memo = obj._fingerprint_memo
    if memo is not None and memo[0] == snapshot:
        return memo[1]
    # The snapshot is taken before the digest: a field changed in between is
    # seen by the next call.
    digest = compute(obj)
    obj._fingerprint_memo = (snapshot, digest)
    return digest


def _expr_token(expression: AffineExpr) -> tuple:
    return (
        tuple(sorted((name, str(value)) for name, value in expression.coefficients.items())),
        str(expression.constant),
    )


def _constraint_token(constraint: AffineConstraint) -> tuple:
    return (constraint.kind, _expr_token(constraint.expression))


def scop_fingerprint(scop: Scop) -> str:
    """A stable hash of the SCoP's structure (domains, accesses, ordering).

    Statement bodies and source text are excluded: they do not influence
    dependence analysis, scheduling or the trace-driven cost model.
    Memoised on *scop* (see the module docstring).
    """
    return _memoised(scop, _scop_digest)


def _scop_digest(scop: Scop) -> str:
    statements = []
    for statement in scop.statements:
        statements.append(
            (
                statement.name,
                statement.index,
                statement.iterators,
                statement.parameters,
                tuple(sorted(_constraint_token(c) for c in statement.domain.constraints)),
                tuple(_expr_token(row) for row in statement.original_schedule),
                tuple(
                    (
                        access.array,
                        str(access.kind),
                        tuple(_expr_token(index) for index in access.indices),
                    )
                    for access in statement.accesses
                ),
            )
        )
    payload = repr(
        (
            scop.name,
            scop.parameters,
            tuple(sorted(_constraint_token(c) for c in scop.context)),
            tuple(
                (name, tuple(_expr_token(e) for e in shape))
                for name, shape in sorted(scop.arrays.items())
            ),
            tuple(statements),
        )
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def config_fingerprint(config: SchedulerConfig) -> str:
    """A stable hash of the *static* part of a configuration.

    The JSON serialisation captures everything except the dynamic strategy
    callback; callers that must distinguish callbacks (the session result
    cache) additionally key on the callback object itself.  Memoised on
    *config* (see the module docstring).
    """
    return _memoised(config, lambda c: hashlib.sha1(c.to_json().encode()).hexdigest())


def machine_fingerprint(machine: MachineModel) -> str:
    """A stable hash of a machine model's full parameter set.

    Keying caches on the name alone would let two models sharing a name (e.g.
    a ``dataclasses.replace``-tweaked variant in a machine-parameter sweep)
    collide; the dataclass repr covers every field deterministically.
    Memoised on *machine* (see the module docstring).
    """
    return _memoised(machine, lambda m: hashlib.sha1(repr(m).encode()).hexdigest())


def parameter_values_key(
    scop: Scop, parameter_values: Mapping[str, int] | None = None
) -> tuple[tuple[str, int], ...]:
    """The concrete parameter values (defaults + overrides) as a hashable key."""
    values = dict(scop.parameter_values)
    if parameter_values:
        values.update(parameter_values)
    return tuple(sorted(values.items()))


def result_parts(
    scop: Scop,
    config: SchedulerConfig,
    machine=None,
    parameter_values: Mapping[str, int] | None = None,
    knobs: tuple = (),
) -> tuple:
    """Everything static one compilation *result* is a function of, hashable.

    The ``(scop, config, machine)`` fingerprint triple, the statements'
    ``text`` (which the generated C prints and :func:`scop_fingerprint` leaves
    out), the concrete parameter values and *knobs* — what the compiling
    session adds of its own (:meth:`Session._knobs`: post-processing switch
    and stage names).  The session's in-memory key and the persistent-store
    fingerprint are both derived from this one tuple.
    """
    return (
        scop_fingerprint(scop),
        tuple([statement.text for statement in scop.statements]),
        config_fingerprint(config),
        machine_fingerprint(machine) if machine is not None else None,
        parameter_values_key(scop, parameter_values),
        knobs,
    )


def parts_fingerprint(parts: tuple) -> str:
    """The content fingerprint of a :func:`result_parts` tuple."""
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def result_fingerprint(
    scop: Scop,
    config: SchedulerConfig,
    machine=None,
    parameter_values: Mapping[str, int] | None = None,
    knobs: tuple = (),
) -> str:
    """The content fingerprint identifying one compilation *result*.

    The schedule is a pure function of exactly the :func:`result_parts`, so
    the fingerprint is a valid shared-cache key across processes, clients and
    restarts.

    Configurations with a dynamic ``strategy_callback`` have behaviour the
    static JSON fingerprint cannot capture; callers (the session's persistent
    store path) must not use this fingerprint for them.
    """
    return parts_fingerprint(result_parts(scop, config, machine, parameter_values, knobs))


def schedule_fingerprint(schedule: Schedule, tiling: TilingSpec | None = None) -> str:
    """A hash of everything of a final schedule the legality check and the
    code generator read: the schedule and its tiling as the result document
    encodes them (:func:`~repro.pipeline.serialize.encode_schedule`,
    :func:`~repro.pipeline.serialize.encode_tiling`).  Not memoised: a
    schedule is made once per compile and hashed twice.
    """
    document = [encode_schedule(schedule), None if tiling is None else encode_tiling(tiling)]
    return hashlib.sha1(json.dumps(document, sort_keys=True).encode()).hexdigest()
