"""Dependence analysis against brute force on small parameter values.

The specification, checked by enumeration rather than by a second analysis:
with every parameter fixed to 3 or 4, take every instance of every statement
and every pair of accesses to one array, at least one of them a write.  An
instance pair with equal subscripts whose original dates (padded with zeros)
first differ at level ``d``, the source's date the smaller, is a dependence
``(source, target, kind, array, d)``.  That set must be exactly the
``(source, target, kind, array, depth)`` of the analysis's dependences whose
polyhedron has an integer point at those values, and every such point must be
a witness of its own dependence.

Points are enumerated here, not by :mod:`repro.polyhedra.emptiness`: each
dimension ranges over the bounds its constraints give once the dimensions
before it are fixed, so every row is checked exactly when its last dimension
is set.  A dimension without both bounds fails the test rather than being
skipped.
"""

from __future__ import annotations

import functools
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deps import Dependence, DependenceKind, compute_dependences
from repro.model.scop import Scop
from repro.polyhedra import Polyhedron
from repro.suites.polybench import KERNELS, build_kernel

#: Kernels whose statements are separated by constant schedule rows among
#: them (the levels the analysis decides without a polyhedron).
DIRECTED = (
    "jacobi-1d",
    "jacobi-2d",
    "seidel-2d",
    "cholesky",
    "lu",
    "trisolv",
    "durbin",
    "gramschmidt",
)
VALUES = (3, 4)


@functools.lru_cache(maxsize=None)
def _analysed(kernel: str) -> tuple[Scop, tuple[Dependence, ...]]:
    # The analysis is parametric: one run answers every parameter value.
    scop = build_kernel(kernel)
    return scop, tuple(compute_dependences(scop))


def _points(polyhedron: Polyhedron, values: dict[str, int]) -> list[dict[str, int]]:
    """Every integer point of *polyhedron* with its parameters at *values*."""
    names = polyhedron.space.iterators
    position = {name: k for k, name in enumerate(names)}
    # Each row as (terms over positions, constant, is_equality), filed under
    # the last dimension it mentions.
    rows_at: list[list[tuple[list[tuple[int, int]], int, bool]]] = [[] for _ in names]
    for constraint in polyhedron.constraints:
        terms, constant, _ = constraint.expression.integer_form
        placed = []
        for name, coefficient in terms:
            if name in position:
                placed.append((position[name], coefficient))
            else:
                constant += coefficient * values[name]
        if placed:
            rows_at[max(k for k, _ in placed)].append((placed, constant, constraint.is_equality))
        elif constant != 0 if constraint.is_equality else constant < 0:
            return []
    points: list[dict[str, int]] = []
    point = [0] * len(names)

    def walk(k: int) -> None:
        if k == len(names):
            points.append(dict(zip(names, point)))
            return
        low, high = -math.inf, math.inf
        for terms, constant, is_equality in rows_at[k]:
            # a * x_k + rest (>= | ==) 0, every other dimension already fixed.
            a = next(c for j, c in terms if j == k)
            rest = constant + sum(c * point[j] for j, c in terms if j != k)
            if is_equality:
                if rest % a:
                    return
                low, high = max(low, -rest // a), min(high, -rest // a)
            elif a > 0:
                low = max(low, -(rest // a))  # ceil(-rest / a)
            else:
                high = min(high, rest // -a)  # floor(rest / -a)
        if math.isinf(low) or math.isinf(high):
            raise AssertionError(f"{names[k]} is unbounded once {names[:k]} are fixed")
        for x in range(low, high + 1):
            point[k] = x
            walk(k + 1)

    walk(0)
    return points


def _first_difference(source_date: tuple, target_date: tuple) -> int | None:
    """The level where the source runs first, or ``None`` when it does not."""
    width = max(len(source_date), len(target_date))
    source_date += (0,) * (width - len(source_date))
    target_date += (0,) * (width - len(target_date))
    for level, (s, t) in enumerate(zip(source_date, target_date)):
        if s != t:
            return level if s < t else None
    return None


class _Instances:
    """Every instance of every statement at fixed parameter values: its
    original date and the cell each of its accesses touches."""

    def __init__(self, scop: Scop, values: dict[str, int]):
        self.dates: dict[str, dict[tuple, tuple]] = {}
        self.cells: dict[tuple[str, int], dict[tuple, tuple]] = {}
        for statement in scop.statements:
            points = [tuple(p.values()) for p in _points(statement.domain, values)]
            environments = [
                {**dict(zip(statement.iterators, point)), **values} for point in points
            ]
            self.dates[statement.name] = {
                point: tuple(row.evaluate(env) for row in statement.original_schedule)
                for point, env in zip(points, environments)
            }
            for index, access in enumerate(statement.accesses):
                self.cells[statement.name, index] = {
                    point: access.evaluate(env) for point, env in zip(points, environments)
                }


def _brute_force(scop: Scop, instances: _Instances) -> set[tuple]:
    """(source, target, kind, array, level) of every dependent instance pair."""
    found: set[tuple] = set()
    for source, target in itertools.product(scop.statements, repeat=2):
        for (s, source_access), (t, target_access) in itertools.product(
            enumerate(source.accesses), enumerate(target.accesses)
        ):
            if source_access.array != target_access.array or not (
                source_access.is_write or target_access.is_write
            ):
                continue
            kind = DependenceKind.of(source_access, target_access)
            touching: dict[tuple, list[tuple]] = {}
            for point, cell in instances.cells[target.name, t].items():
                touching.setdefault(cell, []).append(point)
            for point, cell in instances.cells[source.name, s].items():
                for other in touching.get(cell, ()):
                    level = _first_difference(
                        instances.dates[source.name][point], instances.dates[target.name][other]
                    )
                    if level is not None:
                        found.add((source.name, target.name, kind, source_access.array, level))
    return found


def _witnessed(
    scop: Scop, instances: _Instances, dependence: Dependence, values: dict[str, int]
) -> set[tuple | None]:
    """What each integer point of the dependence's polyhedron is a dependence
    of, by the definition (``None``: of nothing)."""
    source, target = scop.statement(dependence.source), scop.statement(dependence.target)
    source_cells = instances.cells[source.name, source.accesses.index(dependence.source_access)]
    target_cells = instances.cells[target.name, target.accesses.index(dependence.target_access)]
    kind = DependenceKind.of(dependence.source_access, dependence.target_access)
    witnessed: set[tuple | None] = set()
    for point in _points(dependence.polyhedron, values):
        source_point = tuple(point[dependence.source_map[name]] for name in source.iterators)
        target_point = tuple(point[dependence.target_map[name]] for name in target.iterators)
        level = None
        if source_cells[source_point] == target_cells[target_point]:
            level = _first_difference(
                instances.dates[source.name][source_point],
                instances.dates[target.name][target_point],
            )
        witnessed.add(
            None
            if level is None
            else (source.name, target.name, kind, dependence.source_access.array, level)
        )
    return witnessed


def _check(kernel: str, values: dict[str, int]) -> None:
    scop, dependences = _analysed(kernel)
    assert all(constraint.is_satisfied(values) for constraint in scop.context)
    instances = _Instances(scop, values)
    analysed: set[tuple] = set()
    for dependence in dependences:
        claim = (
            dependence.source,
            dependence.target,
            dependence.kind,
            dependence.array,
            dependence.depth,
        )
        witnessed = _witnessed(scop, instances, dependence, values)
        assert witnessed <= {claim}, (str(dependence), witnessed)
        if witnessed:
            analysed.add(claim)
    assert analysed == _brute_force(scop, instances)


@pytest.mark.parametrize("kernel", DIRECTED)
def test_dependences_are_the_brute_force_pairs(kernel):
    """Every parameter assignment in {3, 4} of the directed kernels."""
    parameters = _analysed(kernel)[0].parameters
    for choice in itertools.product(VALUES, repeat=len(parameters)):
        _check(kernel, dict(zip(parameters, choice)))


@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    # One value a parameter, in order; PolyBench kernels have at most five.
    choice=st.lists(st.sampled_from(VALUES), min_size=5, max_size=5),
)
def test_any_polybench_kernel_matches_brute_force(kernel, choice):
    _check(kernel, dict(zip(_analysed(kernel)[0].parameters, choice)))
