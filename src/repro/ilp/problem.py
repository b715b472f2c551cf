"""Declarative description of integer linear problems.

The scheduler builds one :class:`LinearProblem` per scheduling dimension.  A
problem is a set of named integer variables (with optional bounds), a set of
affine constraints and an ordered list of objectives that are minimised
lexicographically.  Linear expressions are plain ``{variable_name: coefficient}``
dictionaries plus an optional constant, which keeps the builder code in the
scheduler readable and order-independent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import ceil, floor
from types import MappingProxyType
from typing import Mapping

from ..linalg.rational import Rational, as_fraction

__all__ = ["ConstraintSense", "LinearConstraint", "Variable", "LinearProblem", "LinearExprDict"]

LinearExprDict = Mapping[str, Rational]


class ConstraintSense(Enum):
    """Relational operator of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


def _exact(value: Rational) -> Rational:
    """*value* unchanged in value, as a plain ``int`` whenever it is integral."""
    if type(value) is int:
        return value
    value = as_fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True, eq=False, slots=True)
class LinearConstraint:
    """A constraint ``sum(coeffs[v] * v) sense rhs``: the one row type from the
    Farkas linearisation to the engine.

    Immutable and hashable: ``coefficients`` is a read-only mapping without
    zero entries, and the hash and :meth:`digest` are computed on first use
    and kept, so a block of rows remembered on a dependence is handed to every
    build as it is.
    Equality ignores coefficient order and the ``int``/``Fraction``
    distinction.  Plain ``int`` data is kept as given (integer rows reach the
    engine's encoder without a ``Fraction``); anything else becomes a
    :class:`Fraction`.
    """

    coefficients: Mapping[str, Rational]
    sense: ConstraintSense
    rhs: Rational
    label: str = ""
    _hash: int | None = field(default=None, init=False, repr=False)
    _digest: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        cleaned = {
            name: value if type(value) is int else as_fraction(value)
            for name, value in self.coefficients.items()
            if value != 0
        }
        object.__setattr__(self, "coefficients", MappingProxyType(cleaned))
        if type(self.rhs) is not int:
            object.__setattr__(self, "rhs", as_fraction(self.rhs))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinearConstraint):
            return NotImplemented
        return (
            self.sense is other.sense
            and self.rhs == other.rhs
            and self.label == other.label
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(
                (frozenset(self.coefficients.items()), self.sense, self.rhs, self.label)
            )
            object.__setattr__(self, "_hash", value)
        return value

    def digest(self) -> bytes:
        """16 bytes naming the row exactly as given: coefficient order and
        ``int`` versus ``Fraction`` count, unlike ``==``."""
        value = self._digest
        if value is None:
            text = repr((tuple(self.coefficients.items()), self.sense.value, self.rhs, self.label))
            value = hashlib.blake2b(text.encode(), digest_size=16).digest()
            object.__setattr__(self, "_digest", value)
        return value

    def __reduce__(self):
        # A read-only mapping does not pickle; the row is rebuilt from a dict.
        return LinearConstraint, (dict(self.coefficients), self.sense, self.rhs, self.label)

    def variables(self) -> set[str]:
        """Names of the variables referenced by the constraint."""
        return set(self.coefficients)

    def evaluate(self, assignment: Mapping[str, Rational]) -> bool:
        """True when *assignment* satisfies the constraint (exact: ``int``
        arithmetic on integral data, ``Fraction``s only for a fractional datum)."""
        value = 0
        for name, coeff in self.coefficients.items():
            value += _exact(coeff) * _exact(assignment.get(name, 0))
        if self.sense is ConstraintSense.LE:
            return value <= self.rhs
        if self.sense is ConstraintSense.GE:
            return value >= self.rhs
        return value == self.rhs

    def __str__(self) -> str:
        terms = " + ".join(f"{coeff}*{name}" for name, coeff in sorted(self.coefficients.items()))
        terms = terms or "0"
        return f"{terms} {self.sense.value} {self.rhs}"


@dataclass(frozen=True)
class Variable:
    """An integer problem variable and its box.

    The bounds are validated as given, then stored once as the box's integral
    hull ``[ceil(lower), floor(upper)]`` (``None``: unbounded on that side):
    no integer point is lost, and the width of a two-sided box is an integer,
    so the bounded-variable simplex keeps it as a column span instead of a
    row.  A fractional box with no integer point inside keeps crossing
    bounds, which every solver reads as an infeasible box.
    """

    name: str
    lower: int | None = 0
    upper: int | None = None

    def __post_init__(self) -> None:
        lower = self._validated_bound("lower", self.lower)
        upper = self._validated_bound("upper", self.upper)
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"variable {self.name}: lower bound exceeds upper bound")
        object.__setattr__(self, "lower", None if lower is None else ceil(lower))
        object.__setattr__(self, "upper", None if upper is None else floor(upper))

    def _validated_bound(self, side: str, value) -> Rational | None:
        if value is None or type(value) is int:
            return value
        try:
            return as_fraction(value)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(
                f"variable {self.name}: {side} bound {value!r} is not a rational number"
            ) from error


@dataclass
class LinearProblem:
    """An integer linear problem with lexicographic objectives."""

    variables: dict[str, Variable] = field(default_factory=dict)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objectives: list[dict[str, Fraction]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_variable(
        self,
        name: str,
        lower: Rational | None = 0,
        upper: Rational | None = None,
    ) -> Variable:
        """Declare a variable; re-declaring an existing name must be consistent."""
        # Bounds go through Variable.__post_init__ untouched: that is the one
        # place they are validated and normalised.
        variable = Variable(name, lower, upper)
        existing = self.variables.get(name)
        if existing is not None:
            if existing != variable:
                raise ValueError(f"variable {name!r} re-declared with different attributes")
            return existing
        self.variables[name] = variable
        return variable

    def add_constraint(
        self,
        coefficients: LinearExprDict,
        sense: ConstraintSense | str,
        rhs: Rational,
        label: str = "",
    ) -> LinearConstraint:
        """Add ``coefficients . x  sense  rhs``; unknown variables are rejected.

        For problems built by hand; the scheduler hands over whole
        :class:`LinearConstraint` objects instead.
        """
        sense = ConstraintSense(sense) if isinstance(sense, str) else sense
        constraint = LinearConstraint(coefficients, sense, rhs, label)
        unknown = constraint.variables() - set(self.variables)
        if unknown:
            raise KeyError(f"constraint references undeclared variables: {sorted(unknown)}")
        self.constraints.append(constraint)
        return constraint

    def add_objective(self, coefficients: LinearExprDict) -> None:
        """Append one lexicographic minimisation objective."""
        objective = {
            name: as_fraction(value)
            for name, value in coefficients.items()
            if as_fraction(value) != 0
        }
        unknown = set(objective) - set(self.variables)
        if unknown:
            raise KeyError(f"objective references undeclared variables: {sorted(unknown)}")
        self.objectives.append(objective)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def is_feasible_assignment(self, assignment: Mapping[str, Rational]) -> bool:
        """Check bounds, integrality and all constraints for *assignment*."""
        exact: dict[str, Rational] = {}
        for name, variable in self.variables.items():
            value = exact[name] = _exact(assignment.get(name, 0))
            if variable.lower is not None and value < variable.lower:
                return False
            if variable.upper is not None and value > variable.upper:
                return False
            if value.denominator != 1:
                return False
        return all(constraint.evaluate(exact) for constraint in self.constraints)

    def digest(self) -> bytes:
        """16 bytes naming the whole problem as the engine reads it: the
        variables in order with their boxes, the constraints in order (each by
        :meth:`LinearConstraint.digest`) and the objectives in order.

        Two problems with one digest encode to the same tableau, so a solve of
        one answers the other.  The digest is short where the content is not:
        it keeps none of the names or numbers of the problem alive.
        """
        content = hashlib.blake2b(digest_size=16)
        content.update(
            repr([(v.name, v.lower, v.upper) for v in self.variables.values()]).encode()
        )
        content.update(b"%d:" % len(self.constraints))
        content.update(b"".join([constraint.digest() for constraint in self.constraints]))
        content.update(
            repr([
                [(name, value.numerator, value.denominator) for name, value in objective.items()]
                for objective in self.objectives
            ]).encode()
        )
        return content.digest()

    def copy(self) -> "LinearProblem":
        """A shallow-but-independent copy (constraints/objectives lists are new)."""
        clone = LinearProblem()
        clone.variables = dict(self.variables)
        clone.constraints = list(self.constraints)
        clone.objectives = [dict(obj) for obj in self.objectives]
        return clone

    def __str__(self) -> str:
        lines = ["LinearProblem:"]
        lines.append(f"  variables: {', '.join(self.variables)}")
        for constraint in self.constraints:
            suffix = f"   [{constraint.label}]" if constraint.label else ""
            lines.append(f"  {constraint}{suffix}")
        for index, objective in enumerate(self.objectives):
            terms = " + ".join(f"{c}*{n}" for n, c in objective.items()) or "0"
            lines.append(f"  minimize[{index}]: {terms}")
        return "\n".join(lines)

