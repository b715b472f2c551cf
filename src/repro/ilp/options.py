"""The one solver option: :class:`SolverOptions`.

The solver stack has a single execution path and a single knob two callers
can need different values of, ``node_limit``.  It reaches a compile one way:
``SchedulerConfig.solver_options``, the programmatic twin of the
``"solver_options"`` block of a configuration's JSON
(``dataclasses.replace(config, solver_options=SolverOptions(node_limit=N))``
for one compile).  ``to_dict``/``from_dict`` round-trip it through that JSON,
so it participates in content fingerprints and travels over the service wire
inside ``config`` — no entry point of :mod:`repro.pipeline` or
:mod:`repro.service` takes a ``SolverOptions`` of its own.  A bare
:class:`~repro.ilp.problem.LinearProblem` is solved with
``IncrementalIlpEngine(problem, options.node_limit).solve()``.  Nothing in the
stack reads the process environment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

__all__ = ["SolverOptions"]


@dataclass(frozen=True)
class SolverOptions:
    """The knob of the ILP solver stack (frozen: hashable, shareable)."""

    #: Branch & bound nodes one objective stage may solve before the search
    #: gives up with :class:`~repro.ilp.engine.EngineLimitError`.
    node_limit: int = 20000

    def __post_init__(self) -> None:
        raw = self.node_limit
        try:
            limit = int(raw)
        except (TypeError, ValueError, OverflowError):
            limit = 0
        # ``True`` is an int and ``1.7`` truncates: neither is a node count.
        # An integral string ("12" in a stored document) still decodes.
        if isinstance(raw, bool) or limit < 1 or not (isinstance(raw, str) or limit == raw):
            raise ValueError(f"node_limit={raw!r} must be an integer >= 1")
        object.__setattr__(self, "node_limit", limit)

    def to_dict(self) -> dict:
        """A JSON-compatible dictionary (round-trips via :meth:`from_dict`)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverOptions":
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown solver option(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**{str(key): value for key, value in data.items()})
