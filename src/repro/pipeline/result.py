"""Structured outcomes of the compilation pipeline."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping

from ..deps.dependence import Dependence
from ..machine.cost_model import PerformanceReport
from ..machine.machine import MachineModel
from ..model.schedule import Schedule
from ..model.scop import Scop
from ..scheduler.config import SchedulerConfig
from ..scheduler.core import SchedulingResult
from ..transform.tiling import TilingSpec
from . import serialize

__all__ = ["CachedResult", "CompilationJob", "CompilationResult"]

#: Version of the serialised :class:`CompilationResult` layout.  The
#: persistent result store and the service wire format both refuse payloads
#: whose version they do not understand instead of mis-decoding them.
#: Version 2 writes every dependence once, in ``dependence_table``;
#: ``dependences`` and ``scheduling.dependences`` are positions in it.
#: Version 3 adds a schedule's ``sequential`` statements (written only when
#: there are some), which a version-2 result silently dropped.
RESULT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class CompilationJob:
    """One unit of work for :meth:`repro.pipeline.Session.compile_many`."""

    scop: Scop
    config: SchedulerConfig | None = None
    machine: MachineModel | str | None = None
    parameter_values: Mapping[str, int] | None = None
    label: str | None = None


@dataclass
class CompilationResult:
    """Everything the pipeline produced for one (SCoP, configuration) pair.

    ``legal``, ``generated_c`` and ``report`` are ``None`` when the
    corresponding stage was not part of the session's pipeline (or, for the
    evaluation report, when no machine model was provided).
    """

    kernel: str
    configuration: str
    machine: str | None
    schedule: Schedule
    scheduling: SchedulingResult | None
    dependences: list[Dependence] = field(default_factory=list)
    legal: bool | None = None
    tiling: TilingSpec | None = None
    generated_c: str | None = None
    report: PerformanceReport | None = None
    cycles: float | None = None
    stage_timings: dict[str, float] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    failed: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the pipeline produced a schedule without falling back."""
        return not self.failed

    @property
    def solver_statistics(self) -> dict[str, int | float]:
        """Solver counters of the scheduling run (empty when no scheduling ran).

        Keys mix scheduler-level counters (``dimensions``, ``dependences``)
        with the incremental engine's statistics (``solves``, ``pivots``, ``nodes``,
        ``warm_start_hits``, ``bound_prunes``, ``stale_drops``, ``grid_prunes``,
        ``encode_seconds``, ``solve_seconds``); see
        ``SchedulingResult.statistics``.
        """
        if self.scheduling is None:
            return {}
        return dict(self.scheduling.statistics)

    def relabeled(self, label: str) -> "CompilationResult":
        """A copy reported under a different configuration label.

        The mutable containers are copied so a caller appending to one view's
        diagnostics cannot corrupt the session-cached base result; the heavy
        artifacts (schedule, report, dependence objects) stay shared.
        """
        if label == self.configuration:
            return self
        return replace(
            self,
            configuration=label,
            dependences=list(self.dependences),
            stage_timings=dict(self.stage_timings),
            diagnostics=list(self.diagnostics),
        )

    def to_dict(self) -> dict:
        """A JSON-compatible dictionary that round-trips via :meth:`from_dict`.

        Every rational coefficient is serialised exactly (as a fraction
        string), so ``CompilationResult.from_dict(result.to_dict()) ==
        result`` holds bit-for-bit — the property the persistent result store
        and the service wire format rely on to share schedules across
        processes.  The layout is versioned by ``schema_version``.

        The scheduler's dependences are (a subset of) the result's, by
        identity, so each is written once: the table is the result's list
        extended by any scheduling dependence not in it.
        """
        table: list[Dependence] = []
        table_index: dict[int, int] = {}
        scheduled = self.scheduling.dependences if self.scheduling is not None else ()
        for dependence in (*self.dependences, *scheduled):
            if id(dependence) not in table_index:
                table_index[id(dependence)] = len(table)
                table.append(dependence)
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kernel": self.kernel,
            "configuration": self.configuration,
            "machine": self.machine,
            "schedule": serialize.encode_schedule(self.schedule),
            "scheduling": serialize.encode_scheduling_result(self.scheduling, table_index)
            if self.scheduling is not None
            else None,
            "dependence_table": [serialize.encode_dependence(d) for d in table],
            "dependences": [table_index[id(d)] for d in self.dependences],
            "legal": self.legal,
            "tiling": serialize.encode_tiling(self.tiling) if self.tiling is not None else None,
            "generated_c": self.generated_c,
            "report": serialize.encode_report(self.report) if self.report is not None else None,
            "cycles": self.cycles,
            "stage_timings": dict(self.stage_timings),
            "diagnostics": list(self.diagnostics),
            "failed": self.failed,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CompilationResult":
        """Rebuild a result serialised with :meth:`to_dict`.

        Raises :class:`repro.pipeline.serialize.SerializationError` on
        malformed payloads and on ``schema_version`` mismatches.
        """
        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise serialize.SerializationError(
                "schema_version_mismatch",
                f"cannot decode result schema version {version!r} "
                f"(supported: {RESULT_SCHEMA_VERSION})",
            )
        table = data.get("dependence_table", [])
        if not isinstance(table, list):
            raise serialize.SerializationError("bad_type", "'dependence_table' must be a list")
        table = [serialize.decode_dependence(d) for d in table]
        scheduling = data.get("scheduling")
        tiling = data.get("tiling")
        report = data.get("report")
        legal = data.get("legal")
        cycles = data.get("cycles")
        return cls(
            kernel=str(data["kernel"]),
            configuration=str(data["configuration"]),
            machine=str(data["machine"]) if data.get("machine") is not None else None,
            schedule=serialize.decode_schedule(data["schedule"]),
            scheduling=serialize.decode_scheduling_result(scheduling, table)
            if scheduling is not None
            else None,
            dependences=serialize.decode_table_indices(data.get("dependences", []), table),
            legal=bool(legal) if legal is not None else None,
            tiling=serialize.decode_tiling(tiling) if tiling is not None else None,
            generated_c=data.get("generated_c"),
            report=serialize.decode_report(report) if report is not None else None,
            cycles=float(cycles) if cycles is not None else None,
            stage_timings={str(k): float(v) for k, v in data.get("stage_timings", {}).items()},
            diagnostics=[str(line) for line in data.get("diagnostics", [])],
            failed=bool(data.get("failed", False)),
            error=str(data["error"]) if data.get("error") is not None else None,
        )

    def to_json(self) -> str:
        """:meth:`to_dict` as JSON text: a row of the result store, and the
        ``result`` member of a service response."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CompilationResult":
        return cls.from_dict(json.loads(text))

    def speedup_over(self, other: "CompilationResult") -> float:
        """``other.cycles / self.cycles`` (how much faster *self* is)."""
        if self.cycles is None or other.cycles is None:
            raise ValueError("speedup_over needs evaluated results (cycles set)")
        if self.cycles <= 0:
            return float("inf")
        return other.cycles / self.cycles


class CachedResult:
    """A cached compilation in its two forms: the object and its JSON text.

    In-process callers want the :class:`CompilationResult`; the result store
    keeps, and the service sends, ``result.to_json()``.  An entry starts with
    the form that produced it (the pipeline's object, a store row's text) and
    gains the other the first time somebody asks for it — the
    :class:`~repro.pipeline.Session` holding the entry does that crossing and
    counts it — so each form is made at most once and a repeated request
    moves text, not objects.  ``label`` is the result's ``configuration``,
    known without decoding; ``len(text)`` is the entry's size in a store row.
    """

    __slots__ = ("result", "text", "label")

    def __init__(self, result: CompilationResult | None, text: str | None, label: str):
        self.result = result
        self.text = text
        self.label = label
