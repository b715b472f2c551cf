"""The custom-constraint mini language (paper Section III-A2).

Constraints are affine (in)equalities over the schedule coefficients of the
current dimension and over user-declared variables.  Coefficients are referred
to with the notation ``S<stmt>_<var type>_<idx>``:

* ``S3_it_0``  — coefficient of iterator 0 of statement 3,
* ``S3_it_i``  — sum of all iterator coefficients of statement 3,
* ``Si_it_i``  — sum of all iterator coefficients of all statements,
* ``S0_par_1`` — coefficient of parameter 1 of statement 0,
* ``S0_cst``   — constant coefficient of statement 0,
* anything else — a user-declared variable of the configuration.

The named constraint ``no-skewing`` expands to ``S<k>_it_i <= 1`` for every
statement, which forbids combining several iterators in one schedule row;
``no-parameter-shift`` and ``no-constant-shift`` force the parameter/constant
coefficients to zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from ..ilp.problem import ConstraintSense, LinearConstraint
from ..model.statement import Statement
from .config import resolve_statement
from .errors import ConfigurationError
from .naming import constant_coefficient, iterator_coefficient, parameter_coefficient

__all__ = ["CustomConstraintParser", "NAMED_CONSTRAINTS"]

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<symbol>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>>=|<=|==|[+\-*]))"
)
_REFERENCE_PATTERN = re.compile(
    r"^S(?P<stmt>\d+|i)_(?P<kind>it|par)_(?P<idx>\d+|i)$|^S(?P<stmt_cst>\d+|i)_cst$"
)

_NO_SKEWING = "no-skewing"
_NO_PARAMETER_SHIFT = "no-parameter-shift"
_NO_CONSTANT_SHIFT = "no-constant-shift"
NAMED_CONSTRAINTS = (_NO_SKEWING, _NO_PARAMETER_SHIFT, _NO_CONSTANT_SHIFT)


class CustomConstraintParser:
    """Parse constraint strings into ILP rows for a given list of statements."""

    def __init__(self, statements: Sequence[Statement], user_variables: Sequence[str] = ()):
        self.statements = list(statements)
        self.user_variables = set(user_variables)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def parse(self, text: str) -> list[LinearConstraint]:
        """Parse one constraint string (possibly a named constraint) into rows."""
        stripped = text.strip()
        if stripped in NAMED_CONSTRAINTS:
            return self._expand_named(stripped)
        left, sense, right = self._split_relation(stripped)
        left_terms, left_const = self._parse_expression(left)
        right_terms, right_const = self._parse_expression(right)
        coefficients: dict[str, Fraction] = dict(left_terms)
        for name, value in right_terms.items():
            coefficients[name] = coefficients.get(name, Fraction(0)) - value
        rhs = right_const - left_const
        if sense == "<=":
            coefficients = {name: -value for name, value in coefficients.items()}
            rhs = -rhs
            sense = ">="
        return [LinearConstraint(coefficients, ConstraintSense(sense), rhs)]

    def parse_all(self, texts: Sequence[str]) -> list[LinearConstraint]:
        """Parse a sequence of constraint strings into a flat list of rows."""
        rows: list[LinearConstraint] = []
        for text in texts:
            rows.extend(self.parse(text))
        return rows

    # ------------------------------------------------------------------ #
    # Named constraints
    # ------------------------------------------------------------------ #
    def _expand_named(self, name: str) -> list[LinearConstraint]:
        rows: list[LinearConstraint] = []
        if name == _NO_SKEWING:
            for statement in self.statements:
                coefficients = {
                    iterator_coefficient(statement.name, iterator): Fraction(-1)
                    for iterator in statement.iterators
                }
                if coefficients:
                    rows.append(LinearConstraint(coefficients, ConstraintSense.GE, -1))
        elif name == _NO_PARAMETER_SHIFT:
            for statement in self.statements:
                for parameter in statement.parameters:
                    rows.append(
                        LinearConstraint(
                            {parameter_coefficient(statement.name, parameter): 1},
                            ConstraintSense.EQ,
                            0,
                        )
                    )
        elif name == _NO_CONSTANT_SHIFT:
            for statement in self.statements:
                rows.append(
                    LinearConstraint(
                        {constant_coefficient(statement.name): 1}, ConstraintSense.EQ, 0
                    )
                )
        return rows

    # ------------------------------------------------------------------ #
    # Expression parsing
    # ------------------------------------------------------------------ #
    def _split_relation(self, text: str) -> tuple[str, str, str]:
        for sense in (">=", "<=", "=="):
            if sense in text:
                left, right = text.split(sense, 1)
                return left, sense, right
        raise ConfigurationError(f"constraint {text!r} has no relational operator (>=, <=, ==)")

    def _parse_expression(self, text: str) -> tuple[dict[str, Fraction], Fraction]:
        """Parse ``[+-] term ([+-] term)*`` where term is ``[int [*]] symbol | int``."""
        tokens = self._tokenize(text)
        coefficients: dict[str, Fraction] = {}
        constant = Fraction(0)
        position = 0
        sign = Fraction(1)
        expect_term = True
        while position < len(tokens):
            token = tokens[position]
            if token == "+":
                if expect_term:
                    raise ConfigurationError(f"unexpected '+' in {text!r}")
                sign = Fraction(1)
                expect_term = True
                position += 1
                continue
            if token == "-":
                if expect_term:
                    sign = -sign
                else:
                    sign = Fraction(-1)
                    expect_term = True
                position += 1
                continue
            # A term starts here.
            multiplier = Fraction(1)
            if token.isdigit():
                multiplier = Fraction(int(token))
                position += 1
                if position < len(tokens) and tokens[position] == "*":
                    position += 1
                if position >= len(tokens) or tokens[position] in ("+", "-"):
                    constant += sign * multiplier
                    sign = Fraction(1)
                    expect_term = False
                    continue
                token = tokens[position]
            if not token.isdigit():
                for name, weight in self._resolve(token).items():
                    coefficients[name] = coefficients.get(name, Fraction(0)) + sign * multiplier * weight
                position += 1
                sign = Fraction(1)
                expect_term = False
                continue
            raise ConfigurationError(f"unexpected token {token!r} in {text!r}")
        return coefficients, constant

    def _tokenize(self, text: str) -> list[str]:
        tokens: list[str] = []
        position = 0
        while position < len(text):
            if text[position].isspace():
                position += 1
                continue
            match = _TOKEN_PATTERN.match(text, position)
            if match is None:
                raise ConfigurationError(f"cannot tokenize constraint near {text[position:]!r}")
            token = match.group("number") or match.group("symbol") or match.group("op")
            tokens.append(token)
            position = match.end()
        return tokens

    # ------------------------------------------------------------------ #
    # Symbol resolution
    # ------------------------------------------------------------------ #
    def _resolve(self, symbol: str) -> dict[str, Fraction]:
        match = _REFERENCE_PATTERN.match(symbol)
        if match is None:
            if symbol in self.user_variables:
                return {symbol: Fraction(1)}
            raise ConfigurationError(
                f"unknown symbol {symbol!r} in custom constraint "
                f"(declare it in new_variables or use the S<k>_it_<i> notation)"
            )
        if match.group("stmt_cst") is not None:
            statements = self._statements_for(match.group("stmt_cst"))
            return {constant_coefficient(statement.name): Fraction(1) for statement in statements}
        statements = self._statements_for(match.group("stmt"))
        kind = match.group("kind")
        index = match.group("idx")
        result: dict[str, Fraction] = {}
        for statement in statements:
            dims = statement.iterators if kind == "it" else statement.parameters
            if index == "i":
                selected = dims
            else:
                position = int(index)
                if position >= len(dims):
                    continue
                selected = (dims[position],)
            for dim in selected:
                name = (
                    iterator_coefficient(statement.name, dim)
                    if kind == "it"
                    else parameter_coefficient(statement.name, dim)
                )
                result[name] = result.get(name, Fraction(0)) + 1
        if not result:
            raise ConfigurationError(f"constraint symbol {symbol!r} matches no coefficient")
        return result

    def _statements_for(self, selector: str) -> list[Statement]:
        if selector == "i":
            return self.statements
        return [resolve_statement(self.statements, str(int(selector)))]
