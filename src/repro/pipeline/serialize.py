"""JSON codecs for the pipeline's model objects.

One module owns the mapping between the in-memory polyhedral model
(:class:`AffineExpr`, :class:`Polyhedron`, :class:`Schedule`,
:class:`Dependence`, ...) and plain JSON-compatible dictionaries.  Both the
persistent result store (:mod:`repro.service.store`) and the service wire
format (:mod:`repro.service.wire`) build on these codecs, so a result written
by one process decodes bit-identically in another: every coefficient is an
exact :class:`~fractions.Fraction` serialised as a string, and all the
dataclasses involved compare equal after a round trip.

Statement *bodies* (arbitrary Python callables used by the validation
executor) are the one thing that cannot cross a process boundary; a decoded
:class:`Scop` carries ``body=None`` for every statement.  Nothing in the
default pipeline executes bodies — the trace-driven cost model derives memory
accesses from the access functions — so decoded SCoPs still compile and
evaluate normally.

Decoders raise :class:`SerializationError` (with a stable ``code``) on
malformed input instead of leaking ``KeyError``/``TypeError`` tracebacks; the
service front door maps those codes onto structured error envelopes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from ..deps.dependence import Dependence, DependenceKind
from ..machine.cost_model import PerformanceReport
from ..machine.machine import CacheLevelSpec, MachineModel
from ..model.access import AccessKind, ArrayAccess
from ..model.schedule import Schedule, StatementSchedule
from ..model.scop import Scop
from ..model.statement import Statement
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint, ConstraintKind
from ..polyhedra.polyhedron import Polyhedron
from ..polyhedra.space import Space
from ..scheduler.core import SchedulingResult
from ..transform.tiling import TiledBand, TilingSpec

__all__ = [
    "SerializationError",
    "encode_expr",
    "decode_expr",
    "encode_constraint",
    "decode_constraint",
    "encode_polyhedron",
    "decode_polyhedron",
    "encode_schedule",
    "decode_schedule",
    "encode_dependence",
    "decode_dependence",
    "encode_scheduling_result",
    "decode_scheduling_result",
    "decode_table_indices",
    "encode_tiling",
    "decode_tiling",
    "encode_report",
    "decode_report",
    "encode_scop",
    "decode_scop",
    "encode_machine",
    "decode_machine",
]


class SerializationError(ValueError):
    """Malformed serialised model data.

    ``code`` is a stable, machine-readable identifier (``bad_fraction``,
    ``missing_field``, ...) that the service layer reports in its error
    envelopes instead of a traceback.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _require(mapping: Any, key: str, kind: str) -> Any:
    # ``json.loads`` only makes dicts; the exact-type test spares them the
    # ``Mapping`` ABC check, a dozen calls each on tens of thousands of nodes.
    if type(mapping) is not dict and not isinstance(mapping, Mapping):
        raise SerializationError("bad_type", f"expected a {kind} object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SerializationError("missing_field", f"{kind} object is missing field {key!r}")
    return mapping[key]


# --------------------------------------------------------------------------- #
# Fractions / affine expressions / constraints
# --------------------------------------------------------------------------- #
def _encode_fraction(value: Fraction) -> str:
    return str(value)


def _decode_fraction(value: Any) -> Fraction:
    try:
        if type(value) is str:
            # Nearly every coefficient is a plain integer; ``Fraction(str)``
            # would send each through its regular expression.  Anything else
            # (fractions, decimals, exponents, whitespace, underscores,
            # non-ASCII digits) keeps ``Fraction``'s own verdict.
            digits = value[1:] if value[:1] in ("-", "+") else value
            if digits.isdigit() and digits.isascii():
                return Fraction(int(value))
        elif isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        elif isinstance(value, int):
            return Fraction(value)
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, TypeError) as error:
        raise SerializationError("bad_fraction", f"not a rational number: {value!r} ({error})")


def encode_expr(expression: AffineExpr) -> dict:
    return {
        "terms": {name: _encode_fraction(coeff) for name, coeff in sorted(expression.coefficients.items())},
        "constant": _encode_fraction(expression.constant),
    }


def decode_expr(data: Any) -> AffineExpr:
    terms = _require(data, "terms", "expression")
    if type(terms) is not dict and not isinstance(terms, Mapping):
        raise SerializationError("bad_type", "expression 'terms' must be an object")
    return AffineExpr(
        {str(name): _decode_fraction(coeff) for name, coeff in terms.items()},
        _decode_fraction(_require(data, "constant", "expression")),
    )


def encode_constraint(constraint: AffineConstraint) -> dict:
    return {"kind": constraint.kind.value, "expression": encode_expr(constraint.expression)}


def decode_constraint(data: Any) -> AffineConstraint:
    kind = _require(data, "kind", "constraint")
    try:
        parsed = ConstraintKind(kind)
    except ValueError:
        raise SerializationError("bad_enum", f"unknown constraint kind {kind!r}")
    return AffineConstraint(decode_expr(_require(data, "expression", "constraint")), parsed)


# --------------------------------------------------------------------------- #
# Spaces / polyhedra
# --------------------------------------------------------------------------- #
def _decode_names(value: Any, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise SerializationError("bad_type", f"{what} must be a list of names")
    return tuple(str(name) for name in value)


def encode_polyhedron(polyhedron: Polyhedron) -> dict:
    return {
        "iterators": list(polyhedron.space.iterators),
        "parameters": list(polyhedron.space.parameters),
        "constraints": [encode_constraint(c) for c in polyhedron.constraints],
    }


def decode_polyhedron(data: Any) -> Polyhedron:
    space = Space(
        _decode_names(_require(data, "iterators", "polyhedron"), "iterators"),
        _decode_names(_require(data, "parameters", "polyhedron"), "parameters"),
    )
    constraints = _require(data, "constraints", "polyhedron")
    if not isinstance(constraints, list):
        raise SerializationError("bad_type", "polyhedron 'constraints' must be a list")
    try:
        return Polyhedron(space, tuple(decode_constraint(c) for c in constraints))
    except ValueError as error:
        raise SerializationError("bad_polyhedron", str(error))


# --------------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------------- #
def encode_schedule(schedule: Schedule) -> dict:
    encoded = {
        "statements": {
            name: [encode_expr(row) for row in statement.rows]
            for name, statement in schedule.statements.items()
        },
        "bands": list(schedule.bands),
        "parallel_dims": list(schedule.parallel_dims),
        "vectorized": dict(schedule.vectorized),
    }
    if schedule.sequential:
        encoded["sequential"] = list(schedule.sequential)
    return encoded


def decode_schedule(data: Any) -> Schedule:
    statements = _require(data, "statements", "schedule")
    if not isinstance(statements, Mapping):
        raise SerializationError("bad_type", "schedule 'statements' must be an object")
    schedule = Schedule()
    for name, rows in statements.items():
        if not isinstance(rows, list):
            raise SerializationError("bad_type", f"schedule rows of {name!r} must be a list")
        schedule.statements[str(name)] = StatementSchedule(
            str(name), tuple(decode_expr(row) for row in rows)
        )
    schedule.bands = [int(band) for band in _require(data, "bands", "schedule")]
    schedule.parallel_dims = [bool(flag) for flag in _require(data, "parallel_dims", "schedule")]
    vectorized = data.get("vectorized", {})
    if not isinstance(vectorized, Mapping):
        raise SerializationError("bad_type", "schedule 'vectorized' must be an object")
    schedule.vectorized = {str(k): str(v) for k, v in vectorized.items()}
    sequential = data.get("sequential", [])
    if not isinstance(sequential, list):
        raise SerializationError("bad_type", "schedule 'sequential' must be a list")
    schedule.sequential = tuple(str(name) for name in sequential)
    return schedule


# --------------------------------------------------------------------------- #
# Accesses / dependences
# --------------------------------------------------------------------------- #
def _encode_access(access: ArrayAccess) -> dict:
    return {
        "array": access.array,
        "kind": access.kind.value,
        "indices": [encode_expr(index) for index in access.indices],
    }


def _decode_access(data: Any) -> ArrayAccess:
    kind = _require(data, "kind", "access")
    try:
        parsed = AccessKind(kind)
    except ValueError:
        raise SerializationError("bad_enum", f"unknown access kind {kind!r}")
    return ArrayAccess(
        str(_require(data, "array", "access")),
        tuple(decode_expr(index) for index in _require(data, "indices", "access")),
        parsed,
    )


def encode_dependence(dependence: Dependence) -> dict:
    return {
        "source": dependence.source,
        "target": dependence.target,
        "kind": dependence.kind.value,
        "array": dependence.array,
        "polyhedron": encode_polyhedron(dependence.polyhedron),
        "source_map": dict(dependence.source_map),
        "target_map": dict(dependence.target_map),
        "depth": dependence.depth,
        "source_access": _encode_access(dependence.source_access)
        if dependence.source_access is not None
        else None,
        "target_access": _encode_access(dependence.target_access)
        if dependence.target_access is not None
        else None,
    }


def decode_dependence(data: Any) -> Dependence:
    kind = _require(data, "kind", "dependence")
    try:
        parsed = DependenceKind(kind)
    except ValueError:
        raise SerializationError("bad_enum", f"unknown dependence kind {kind!r}")
    source_access = data.get("source_access")
    target_access = data.get("target_access")
    return Dependence(
        source=str(_require(data, "source", "dependence")),
        target=str(_require(data, "target", "dependence")),
        kind=parsed,
        array=str(_require(data, "array", "dependence")),
        polyhedron=decode_polyhedron(_require(data, "polyhedron", "dependence")),
        source_map={str(k): str(v) for k, v in _require(data, "source_map", "dependence").items()},
        target_map={str(k): str(v) for k, v in _require(data, "target_map", "dependence").items()},
        depth=int(_require(data, "depth", "dependence")),
        source_access=_decode_access(source_access) if source_access is not None else None,
        target_access=_decode_access(target_access) if target_access is not None else None,
    )


# --------------------------------------------------------------------------- #
# Scheduling results / tiling / performance reports
# --------------------------------------------------------------------------- #
def encode_scheduling_result(result: SchedulingResult, table_index: Mapping[int, int]) -> dict:
    """``dependences`` are positions in the enclosing result's dependence
    table; *table_index* maps ``id(dependence)`` to that position."""
    return {
        "schedule": encode_schedule(result.schedule),
        "dependences": [table_index[id(d)] for d in result.dependences],
        "satisfaction_dimension": {
            str(index): dimension for index, dimension in result.satisfaction_dimension.items()
        },
        "fallback_to_original": result.fallback_to_original,
        "statistics": dict(result.statistics),
    }


def decode_table_indices(indices: Any, table: list[Dependence]) -> list[Dependence]:
    """The dependences of *table* at *indices*, shared rather than copied."""
    if not isinstance(indices, list):
        raise SerializationError("bad_type", "dependence indices must be a list")
    for index in indices:
        if type(index) is not int or not 0 <= index < len(table):
            raise SerializationError(
                "bad_index",
                f"not an index into a dependence table of {len(table)}: {index!r}",
            )
    return [table[index] for index in indices]


def decode_scheduling_result(data: Any, table: list[Dependence]) -> SchedulingResult:
    satisfaction = _require(data, "satisfaction_dimension", "scheduling result")
    if not isinstance(satisfaction, Mapping):
        raise SerializationError("bad_type", "'satisfaction_dimension' must be an object")
    return SchedulingResult(
        schedule=decode_schedule(_require(data, "schedule", "scheduling result")),
        dependences=decode_table_indices(
            _require(data, "dependences", "scheduling result"), table
        ),
        satisfaction_dimension={int(k): int(v) for k, v in satisfaction.items()},
        fallback_to_original=bool(data.get("fallback_to_original", False)),
        statistics=dict(data.get("statistics", {})),
    )


def encode_tiling(tiling: TilingSpec) -> dict:
    return {
        "bands": [
            {"dimensions": list(band.dimensions), "tile_sizes": list(band.tile_sizes)}
            for band in tiling.bands
        ]
    }


def decode_tiling(data: Any) -> TilingSpec:
    bands = _require(data, "bands", "tiling")
    try:
        return TilingSpec(
            [
                TiledBand(
                    tuple(int(d) for d in _require(band, "dimensions", "tiled band")),
                    tuple(int(s) for s in _require(band, "tile_sizes", "tiled band")),
                )
                for band in bands
            ]
        )
    except ValueError as error:
        raise SerializationError("bad_tiling", str(error))


def encode_report(report: PerformanceReport) -> dict:
    return {
        "kernel": report.kernel,
        "machine": report.machine,
        "cycles": report.cycles,
        "compute_cycles": report.compute_cycles,
        "memory_cycles": report.memory_cycles,
        "overhead_cycles": report.overhead_cycles,
        "parallel_speedup": report.parallel_speedup,
        "parallel_entries": report.parallel_entries,
        "instances": report.instances,
        "cache_statistics": report.cache_statistics,
        "vectorized_statements": dict(report.vectorized_statements),
    }


def decode_report(data: Any) -> PerformanceReport:
    return PerformanceReport(
        kernel=str(_require(data, "kernel", "report")),
        machine=str(_require(data, "machine", "report")),
        cycles=float(_require(data, "cycles", "report")),
        compute_cycles=float(data.get("compute_cycles", 0.0)),
        memory_cycles=float(data.get("memory_cycles", 0.0)),
        overhead_cycles=float(data.get("overhead_cycles", 0.0)),
        parallel_speedup=float(data.get("parallel_speedup", 1.0)),
        parallel_entries=int(data.get("parallel_entries", 0)),
        instances=int(data.get("instances", 0)),
        cache_statistics=dict(data.get("cache_statistics", {})),
        vectorized_statements={
            str(k): bool(v) for k, v in data.get("vectorized_statements", {}).items()
        },
    )


# --------------------------------------------------------------------------- #
# SCoPs / machines (wire format only; not needed by the result store)
# --------------------------------------------------------------------------- #
def encode_scop(scop: Scop) -> dict:
    return {
        "name": scop.name,
        "parameters": list(scop.parameters),
        "context": [encode_constraint(c) for c in scop.context],
        "parameter_values": dict(scop.parameter_values),
        "arrays": {
            name: [encode_expr(extent) for extent in shape]
            for name, shape in scop.arrays.items()
        },
        "statements": [
            {
                "name": statement.name,
                "index": statement.index,
                "domain": encode_polyhedron(statement.domain),
                "accesses": [_encode_access(a) for a in statement.accesses],
                "original_schedule": [encode_expr(row) for row in statement.original_schedule],
                "text": statement.text,
            }
            for statement in scop.statements
        ],
    }


def decode_scop(data: Any) -> Scop:
    # A wrong type or value only a constructor notices (``int("x")``,
    # iterating an ``int``) is malformed data too, never an internal error.
    try:
        return _decode_scop(data)
    except (TypeError, ValueError) as error:
        if isinstance(error, SerializationError):
            raise
        raise SerializationError("bad_scop", str(error))


def _decode_scop(data: Any) -> Scop:
    statements = []
    for entry in _require(data, "statements", "scop"):
        statements.append(
            Statement(
                name=str(_require(entry, "name", "statement")),
                index=int(_require(entry, "index", "statement")),
                domain=decode_polyhedron(_require(entry, "domain", "statement")),
                accesses=tuple(_decode_access(a) for a in _require(entry, "accesses", "statement")),
                original_schedule=tuple(
                    decode_expr(row) for row in _require(entry, "original_schedule", "statement")
                ),
                body=None,  # callables cannot cross the wire
                text=str(entry.get("text", "")),
            )
        )
    parameter_values = data.get("parameter_values", {})
    if not isinstance(parameter_values, Mapping):
        raise SerializationError("bad_type", "scop 'parameter_values' must be an object")
    arrays = data.get("arrays", {})
    if not isinstance(arrays, Mapping):
        raise SerializationError("bad_type", "scop 'arrays' must be an object")
    return Scop(
        name=str(_require(data, "name", "scop")),
        parameters=_decode_names(data.get("parameters", ()), "scop parameters"),
        statements=statements,
        context=tuple(decode_constraint(c) for c in data.get("context", [])),
        parameter_values={str(k): int(v) for k, v in parameter_values.items()},
        arrays={
            str(name): tuple(decode_expr(extent) for extent in shape)
            for name, shape in arrays.items()
        },
    )


def encode_machine(machine: MachineModel) -> dict:
    data = {
        "name": machine.name,
        "cores": machine.cores,
        "threads_per_core": machine.threads_per_core,
        "vector_width": machine.vector_width,
        "frequency_ghz": machine.frequency_ghz,
        "cache_levels": [
            {
                "name": level.name,
                "size_bytes": level.size_bytes,
                "line_bytes": level.line_bytes,
                "associativity": level.associativity,
                "latency_cycles": level.latency_cycles,
            }
            for level in machine.cache_levels
        ],
        "memory_latency_cycles": machine.memory_latency_cycles,
        "operation_cycles": machine.operation_cycles,
        "scalar_penalty": machine.scalar_penalty,
        "loop_overhead_cycles": machine.loop_overhead_cycles,
        "guard_overhead_cycles": machine.guard_overhead_cycles,
        "parallel_startup_cycles": machine.parallel_startup_cycles,
        "parallel_efficiency": machine.parallel_efficiency,
        "vector_efficiency": machine.vector_efficiency,
        "requires_explicit_vectorization": machine.requires_explicit_vectorization,
    }
    return data


def decode_machine(data: Any) -> MachineModel:
    if not isinstance(data, Mapping):
        raise SerializationError("bad_type", f"expected a machine object, got {type(data).__name__}")
    levels = data.get("cache_levels", [])
    if not isinstance(levels, list):
        raise SerializationError("bad_type", "machine 'cache_levels' must be a list")
    try:
        cache_levels = [
            CacheLevelSpec(
                name=str(_require(level, "name", "cache level")),
                size_bytes=int(_require(level, "size_bytes", "cache level")),
                line_bytes=int(level.get("line_bytes", 64)),
                associativity=int(level.get("associativity", 8)),
                latency_cycles=int(level.get("latency_cycles", 4)),
            )
            for level in levels
        ]
        return MachineModel(
            name=str(_require(data, "name", "machine")),
            cores=int(_require(data, "cores", "machine")),
            threads_per_core=int(data.get("threads_per_core", 2)),
            vector_width=int(data.get("vector_width", 4)),
            frequency_ghz=float(data.get("frequency_ghz", 2.5)),
            cache_levels=cache_levels,
            memory_latency_cycles=int(data.get("memory_latency_cycles", 200)),
            operation_cycles=float(data.get("operation_cycles", 1.0)),
            scalar_penalty=float(data.get("scalar_penalty", 1.0)),
            loop_overhead_cycles=float(data.get("loop_overhead_cycles", 1.0)),
            guard_overhead_cycles=float(data.get("guard_overhead_cycles", 0.5)),
            parallel_startup_cycles=float(data.get("parallel_startup_cycles", 2000.0)),
            parallel_efficiency=float(data.get("parallel_efficiency", 0.85)),
            vector_efficiency=float(data.get("vector_efficiency", 0.8)),
            requires_explicit_vectorization=bool(
                data.get("requires_explicit_vectorization", False)
            ),
        )
    except (TypeError, ValueError) as error:
        if isinstance(error, SerializationError):
            raise
        raise SerializationError("bad_machine", str(error))
