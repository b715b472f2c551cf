"""Versioned JSON wire format of the compilation service.

Everything that crosses the HTTP boundary goes through this module: compile
requests (SCoP + configuration + machine + parameter values), compilation
results, and job descriptions.  Payloads carry an explicit ``wire_version``
and decoding failures raise :class:`WireError` with a stable machine-readable
``code`` — the front door turns those into structured error envelopes instead
of tracebacks.

The heavy lifting (exact rational round-trips of schedules, polyhedra and
dependences) is shared with the persistent result store via
:mod:`repro.pipeline.serialize` and ``CompilationResult.to_dict/from_dict``.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..machine.machine import MachineModel, machine_by_name
from ..model.scop import Scop
from ..pipeline.result import CompilationJob, CompilationResult
from ..pipeline.serialize import (
    SerializationError,
    decode_machine,
    decode_scop,
    encode_machine,
    encode_scop,
)
from ..scheduler.config import SchedulerConfig, integral_value
from ..scheduler.errors import ConfigurationError

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "encode_compile_request",
    "decode_compile_request",
    "encode_result",
    "decode_result",
    "ResultEnvelope",
]

WIRE_VERSION = 1


class WireError(ValueError):
    """A malformed or unsupported wire payload.

    ``code`` identifies the failure class (``unsupported_wire_version``,
    ``invalid_scop``, ``invalid_config``, ...); ``detail`` carries the
    human-readable specifics.
    """

    def __init__(self, code: str, message: str, detail: str | None = None):
        super().__init__(message if detail is None else f"{message}: {detail}")
        self.code = code
        self.message = message
        self.detail = detail


def _check_version(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise WireError("invalid_payload", f"{what} must be a JSON object")
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireError(
            "unsupported_wire_version",
            f"unsupported wire version {version!r}",
            f"this server speaks wire version {WIRE_VERSION}",
        )
    return payload


# --------------------------------------------------------------------------- #
# Compile requests
# --------------------------------------------------------------------------- #
def encode_compile_request(
    scop: Scop,
    config: SchedulerConfig | None = None,
    machine: MachineModel | str | None = None,
    parameter_values: Mapping[str, int] | None = None,
    label: str | None = None,
) -> dict:
    """The client-side encoding of one compile/job submission."""
    encoded_machine: Any
    if isinstance(machine, MachineModel):
        encoded_machine = {"model": encode_machine(machine)}
    else:
        encoded_machine = machine
    return {
        "wire_version": WIRE_VERSION,
        "scop": encode_scop(scop),
        "config": config.to_json() if config is not None else None,
        "machine": encoded_machine,
        "parameter_values": dict(parameter_values) if parameter_values is not None else None,
        "label": label,
    }


def decode_compile_request(payload: Any) -> CompilationJob:
    """Validate and decode a compile request into a :class:`CompilationJob`.

    Raises :class:`WireError` with an explicit code on every malformed part;
    a traceback never reaches the client.
    """
    payload = _check_version(payload, "compile request")
    scop_data = payload.get("scop")
    if scop_data is None:
        raise WireError("missing_field", "compile request has no 'scop'")
    try:
        scop = decode_scop(scop_data)
    except SerializationError as error:
        raise WireError("invalid_scop", "cannot decode 'scop'", str(error))

    config = None
    config_json = payload.get("config")
    if config_json is not None:
        if not isinstance(config_json, (str, Mapping)):
            raise WireError("invalid_config", "'config' must be a JSON string or object")
        try:
            config = SchedulerConfig.from_json(config_json)
        except (ConfigurationError, ValueError, KeyError, TypeError, AttributeError) as error:
            # (AttributeError: a nested entry that is not an object.)
            raise WireError("invalid_config", "cannot decode 'config'", str(error))

    machine: MachineModel | str | None = None
    machine_data = payload.get("machine")
    if machine_data is not None:
        if isinstance(machine_data, str):
            try:
                machine = machine_by_name(machine_data)
            except KeyError as error:
                raise WireError("unknown_machine", "unknown machine name", str(error))
        elif isinstance(machine_data, Mapping):
            try:
                machine = decode_machine(machine_data.get("model", machine_data))
            except SerializationError as error:
                raise WireError("invalid_machine", "cannot decode 'machine'", str(error))
        else:
            raise WireError("invalid_machine", "'machine' must be a name or a model object")

    parameter_values = payload.get("parameter_values")
    if parameter_values is not None:
        if not isinstance(parameter_values, Mapping):
            raise WireError("invalid_parameter_values", "'parameter_values' must be an object")
        try:
            parameter_values = {
                name: integral_value(name, value) for name, value in parameter_values.items()
            }
        except ConfigurationError as error:
            raise WireError(
                "invalid_parameter_values", "parameter values must be integers", str(error)
            )
        undeclared = [name for name in parameter_values if name not in scop.parameters]
        if undeclared:
            raise WireError(
                "invalid_parameter_values",
                f"{undeclared} are not parameters of the SCoP",
                f"it declares {list(scop.parameters)}",
            )

    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise WireError("invalid_label", "'label' must be a string")

    # Absent or null is what clients of the removed top-level field send.
    if payload.get("solver_options") is not None:
        raise WireError(
            "invalid_solver_options",
            "top-level 'solver_options' was removed; the solver has one knob, "
            "asked for through config.solver_options = {'node_limit': N}",
        )

    return CompilationJob(scop, config, machine, parameter_values, label)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
def encode_result(result: CompilationResult, **meta: Any) -> dict:
    """A result envelope: the serialised result plus response metadata.

    ``meta`` carries response-level fields (``cache`` origin, ``fingerprint``)
    next to — never inside — the versioned result payload.
    """
    return {"wire_version": WIRE_VERSION, "result": result.to_dict(), **meta}


class ResultEnvelope:
    """The document of :func:`encode_result`, around a result that is already
    JSON text (``CompilationResult.to_json()``).

    The server keeps cached results as text; answering with one splices the
    envelope's few fields around it instead of rebuilding and re-dumping the
    whole dictionary.  ``memo`` is the server's note of how the request was
    recognised (access log only; it is not part of the document).
    """

    __slots__ = ("result_text", "meta", "memo")

    def __init__(self, result_text: str, *, memo: bool | None = None, **meta: Any):
        self.result_text = result_text
        self.meta = meta
        self.memo = memo

    @property
    def cache(self) -> str | None:
        return self.meta.get("cache")

    def to_json(self) -> str:
        head = json.dumps({"wire_version": WIRE_VERSION, **self.meta})
        return f'{head[:-1]}, "result": {self.result_text}}}'


def decode_result(payload: Any) -> CompilationResult:
    payload = _check_version(payload, "result envelope")
    data = payload.get("result")
    if data is None:
        raise WireError("missing_field", "result envelope has no 'result'")
    try:
        return CompilationResult.from_dict(data)
    except SerializationError as error:
        raise WireError("invalid_result", "cannot decode 'result'", str(error))
    except (KeyError, TypeError, ValueError) as error:
        raise WireError("invalid_result", "cannot decode 'result'", str(error))
