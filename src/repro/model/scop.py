"""The SCoP (static control part) container."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Mapping

from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from .schedule import Schedule
from .statement import Statement

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Scop"]


@dataclass
class Scop:
    """A static control part: parameters, arrays and statements.

    Attributes
    ----------
    name:
        Kernel name (``gemm``, ``jacobi-1d``, ...).
    parameters:
        Symbolic problem-size parameters.
    statements:
        The statements in textual order.
    context:
        Constraints on the parameters assumed to hold (e.g. ``N >= 1``).
    parameter_values:
        Default concrete parameter values used for execution/simulation.
    arrays:
        Shapes of the arrays touched by the kernel, as affine expressions of
        the parameters (empty tuple for scalars).
    """

    name: str
    parameters: tuple[str, ...] = ()
    statements: list[Statement] = field(default_factory=list)
    context: tuple[AffineConstraint, ...] = ()
    parameter_values: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, tuple[AffineExpr, ...]] = field(default_factory=dict)
    #: ``(snapshot, digest)`` of :func:`repro.pipeline.fingerprint.scop_fingerprint`.
    _fingerprint_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The fingerprint memo stays out of pickles; it is computed again on demand.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #
    def statement(self, name: str) -> Statement:
        for statement in self.statements:
            if statement.name == name:
                return statement
        raise KeyError(f"no statement named {name!r} in SCoP {self.name!r}")

    def max_depth(self) -> int:
        return max((statement.depth for statement in self.statements), default=0)

    def accessed_arrays(self) -> set[str]:
        names: set[str] = set()
        for statement in self.statements:
            names |= statement.accessed_arrays()
        return names

    # ------------------------------------------------------------------ #
    # Context handling
    # ------------------------------------------------------------------ #
    def resolved_parameters(self, overrides: Mapping[str, int] | None = None) -> dict[str, int]:
        """Concrete parameter values: defaults overridden by *overrides*."""
        values = dict(self.parameter_values)
        if overrides:
            values.update(overrides)
        missing = [name for name in self.parameters if name not in values]
        if missing:
            raise ValueError(f"no value for parameters {missing} of SCoP {self.name!r}")
        return values

    # ------------------------------------------------------------------ #
    # Original schedule / arrays
    # ------------------------------------------------------------------ #
    def original_schedule(self) -> Schedule:
        """The identity schedule recording the original execution order."""
        return Schedule.identity(
            {statement.name: statement.original_schedule for statement in self.statements}
        ).padded()

    def allocate_arrays(
        self, parameter_values: Mapping[str, int] | None = None, fill: str = "index"
    ) -> dict[str, np.ndarray]:
        """Allocate numpy arrays for every declared array.

        ``fill`` selects the initial contents: ``"index"`` fills with a
        deterministic pattern based on the flat element index (useful to make
        legality violations visible), ``"zero"`` fills with zeros.
        """
        # numpy is needed where arrays are made, not to compile: imported here.
        import numpy as np

        values = self.resolved_parameters(parameter_values)
        arrays: dict[str, np.ndarray] = {}
        for name, shape_exprs in self.arrays.items():
            shape = tuple(max(1, int(expr.evaluate(values))) for expr in shape_exprs)
            if not shape:
                shape = (1,)
            if fill == "zero":
                data = np.zeros(shape, dtype=np.float64)
            else:
                data = (np.arange(int(np.prod(shape)), dtype=np.float64) % 97 + 1).reshape(shape)
            arrays[name] = data
        return arrays

    def __str__(self) -> str:
        lines = [f"SCoP {self.name} [{', '.join(self.parameters)}]"]
        for statement in self.statements:
            lines.append(f"  {statement}")
        return "\n".join(lines)
