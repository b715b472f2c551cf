"""Emit C-like source code from the scanning AST.

The output is meant for human inspection (like the examples in the paper's
listings) and for rough complexity assessment; it is not compiled in this
repository.  Loop annotations are rendered as the usual pragmas
(``#pragma omp parallel for``, ``#pragma omp simd``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..model.scop import Scop
from ..polyhedra.affine import AffineExpr
from ..polyhedra.constraint import AffineConstraint
from .ast import BlockNode, CallNode, GuardNode, LoopNode, Node

__all__ = ["CWriter", "to_c"]

_INDENT = "  "


class CWriter:
    """Render a scanning AST as C-like text."""

    def __init__(self, scop: Scop):
        self.scop = scop

    def write(self, root: Node) -> str:
        lines: list[str] = []
        self._emit(root, lines, 0)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # Node rendering
    # ------------------------------------------------------------------ #
    def _emit(self, node: Node, lines: list[str], depth: int) -> None:
        indent = _INDENT * depth
        if isinstance(node, BlockNode):
            for child in node.body:
                self._emit(child, lines, depth)
        elif isinstance(node, LoopNode):
            for pragma in self._pragmas(node):
                lines.append(f"{indent}{pragma}")
            lower = self._bound_expression(node.lower_bounds, True)
            upper = self._bound_expression(node.upper_bounds, False)
            lines.append(
                f"{indent}for (int {node.variable} = {lower}; "
                f"{node.variable} <= {upper}; {node.variable}++) {{"
            )
            for child in node.body:
                self._emit(child, lines, depth + 1)
            lines.append(f"{indent}}}")
        elif isinstance(node, GuardNode):
            condition = " && ".join(self._condition(c) for c in node.conditions) or "1"
            lines.append(f"{indent}if ({condition}) {{")
            for child in node.body:
                self._emit(child, lines, depth + 1)
            lines.append(f"{indent}}}")
        elif isinstance(node, CallNode):
            arguments = ", ".join(
                f"{iterator}={self._expression(value)}"
                for iterator, value in node.iterator_values.items()
            )
            text = node.statement.text or f"{node.statement.name}({arguments});"
            comment = f"  /* {node.statement.name}: {arguments} */" if arguments else ""
            lines.append(f"{indent}{text}{comment}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown AST node {type(node).__name__}")

    def _pragmas(self, node: LoopNode) -> list[str]:
        pragmas = []
        if node.is_parallel and not node.is_tile_loop:
            pragmas.append("#pragma omp parallel for")
        if node.is_vector:
            pragmas.append("#pragma omp simd")
        return pragmas

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _bound_expression(self, groups: list[list[AffineExpr]], is_lower: bool) -> str:
        inner_op = "max" if is_lower else "min"
        outer_op = "min" if is_lower else "max"
        rendered_groups = []
        for group in groups:
            if not group:
                continue
            rendered = [self._bound_term(expr, is_lower) for expr in group]
            rendered_groups.append(_fold(inner_op, rendered))
        if not rendered_groups:
            return "0"
        return _fold(outer_op, rendered_groups)

    def _bound_term(self, expression: AffineExpr, is_lower: bool) -> str:
        denominators = [value.denominator for value in expression.coefficients.values()]
        denominators.append(expression.constant.denominator)
        if all(d == 1 for d in denominators):
            return self._expression(expression)
        # Rational bound: render as an integer ceiling/floor division.
        scale = lcm(*denominators)
        scaled = self._expression(expression * scale)
        if is_lower:
            return f"ceild({scaled}, {scale})"
        return f"floord({scaled}, {scale})"

    def _expression(self, expression: AffineExpr) -> str:
        parts: list[str] = []
        for name, coefficient in sorted(expression.coefficients.items()):
            if coefficient == 1:
                parts.append(name)
            elif coefficient == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{_number(coefficient)}*{name}")
        if expression.constant != 0 or not parts:
            parts.append(_number(expression.constant))
        return " + ".join(parts).replace("+ -", "- ")

    def _condition(self, constraint: AffineConstraint) -> str:
        operator = "==" if constraint.is_equality else ">="
        return f"{self._expression(constraint.expression)} {operator} 0"


def _fold(function: str, terms: list[str]) -> str:
    if len(terms) == 1:
        return terms[0]
    result = terms[0]
    for term in terms[1:]:
        result = f"{function}({result}, {term})"
    return result


def _number(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"({value.numerator}/{value.denominator})"


def to_c(scop: Scop, root: Node) -> str:
    """Render the AST to C-like text."""
    return CWriter(scop).write(root)
