"""One front door for every solver knob: :class:`SolverOptions`.

:class:`SolverOptions` is the *single* resolution point of the solver stack:

* :meth:`SolverOptions.from_env` reads the ``REPRO_ILP_*`` environment once,
  loudly: a typo in a value (``REPRO_ILP_WORKERS=two``) or in a variable
  *name* (``REPRO_ILP_WORKER=4``) raises ``ValueError`` instead of silently
  turning an A/B leg into a no-op;
* :meth:`SolverOptions.with_overrides` layers explicit choices on top without
  disturbing the rest;
* ``to_dict``/``from_dict`` round-trip through ``SchedulerConfig`` JSON so
  options participate in content fingerprints and the service wire format.

Options enter the stack one way: ``IlpSolver(options=...)`` /
``SolverContext(options=...)``, ``SchedulerConfig.solver_options`` and the
``solver=`` argument of ``Session.compile`` / ``pipeline.compile``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

__all__ = ["SolverOptions"]

_ENV_PREFIX = "REPRO_ILP_"
_ENV_VARIABLES = frozenset({"REPRO_ILP_WORKERS", "REPRO_ILP_PROCESSES"})

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_bool(variable: str, default: bool) -> bool:
    """Parse a boolean environment variable loudly (one lookup, one message).

    Unset or empty yields *default*; anything that is not a recognised
    true/false word raises — ``REPRO_ILP_PROCESSES=garbage`` silently meaning
    ``False`` would hide typos forever.
    """
    raw = os.environ.get(variable, "")
    word = raw.strip().lower()
    if not word:
        return default
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(
        f"{variable}={raw!r} is not a boolean; "
        f"use one of {_TRUE_WORDS + _FALSE_WORDS}"
    )


@dataclass(frozen=True)
class SolverOptions:
    """Every knob of the ILP solver stack, resolved once and passed around.

    Instances are frozen (hashable, safely shareable across threads and
    cached sessions); derive variants with :meth:`with_overrides`.
    """

    workers: int = 1
    processes: bool = False
    node_limit: int = 20000

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", max(1, int(self.workers)))
        object.__setattr__(self, "node_limit", int(self.node_limit))
        object.__setattr__(self, "processes", bool(self.processes))

    # -- construction ----------------------------------------------------- #
    @classmethod
    def from_env(cls) -> "SolverOptions":
        """Resolve the defaults from the ``REPRO_ILP_*`` environment.

        Every variable is validated here, and *only* here: a bad value
        (``REPRO_ILP_WORKERS=two``, ``REPRO_ILP_PROCESSES=garbage``) and a
        set ``REPRO_ILP_*`` variable this class does not know (a misspelt or
        removed name) both raise ``ValueError`` instead of being silently
        ignored.
        """
        unknown = sorted(
            name
            for name in os.environ
            if name.startswith(_ENV_PREFIX) and name not in _ENV_VARIABLES
        )
        if unknown:
            raise ValueError(
                f"unknown solver environment variable(s) {unknown}; "
                f"known: {sorted(_ENV_VARIABLES)}"
            )
        defaults = cls()
        workers_raw = os.environ.get("REPRO_ILP_WORKERS", "").strip()
        if workers_raw:
            try:
                workers = int(workers_raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_ILP_WORKERS={workers_raw!r} is not an integer worker count"
                ) from None
            if workers < 1:
                raise ValueError(f"REPRO_ILP_WORKERS={workers} must be >= 1")
        else:
            workers = defaults.workers
        return cls(
            workers=workers,
            processes=_parse_bool("REPRO_ILP_PROCESSES", defaults.processes),
        )

    @classmethod
    def resolve(cls, **overrides: Any) -> "SolverOptions":
        """Environment defaults with explicit *overrides* layered on top."""
        return cls.from_env().with_overrides(**overrides)

    def with_overrides(
        self,
        *,
        workers: int | None = None,
        processes: bool | None = None,
        node_limit: int | None = None,
    ) -> "SolverOptions":
        """A copy with the non-``None`` overrides applied (validated)."""
        overrides = {
            "workers": workers,
            "processes": processes,
            "node_limit": node_limit,
        }
        changes = {name: value for name, value in overrides.items() if value is not None}
        if not changes:
            return self
        return replace(self, **changes)

    # -- serialisation ---------------------------------------------------- #
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
