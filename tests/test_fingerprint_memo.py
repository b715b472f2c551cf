"""The content fingerprints and their memo on the hashed object.

``scop_fingerprint``, ``config_fingerprint`` and ``machine_fingerprint`` keep
their digest on the ``Scop``, ``SchedulerConfig`` or ``MachineModel`` behind a
shallow snapshot of its fields.  These tests pin that the strings are the ones
the unmemoised functions computed (``tests/golden/fingerprints.json``, taken
before the memo existed: persistent-store keys must not move, so the file is
never regenerated), that no in-place edit or reassignment is ever answered
with the old digest — neither by the function nor by a session that cached
the old content — that the memo stays out of ``repr``, ``==``, copies,
pickles and the wire, and that a repeated memory hit does no hashing work.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import pickle
from pathlib import Path

import pytest

import repro.pipeline.fingerprint as fingerprint
from repro.ilp.options import SolverOptions
from repro.machine.cache import CacheLevelSpec
from repro.machine.machine import machine_by_name
from repro.pipeline import Session
from repro.pipeline.fingerprint import (
    config_fingerprint,
    machine_fingerprint,
    scop_fingerprint,
)
from repro.pipeline.serialize import encode_machine, encode_scop
from repro.polyhedra.affine import AffineExpr
from repro.polyhedra.constraint import AffineConstraint
from repro.scheduler import strategies
from repro.scheduler.config import DEFAULT_DIMENSION, DimensionConfig, Directive, SchedulerConfig
from repro.scheduler.strategies import pluto_style
from repro.suites.deepnest import DEEPNEST_KERNELS
from repro.suites.polybench import KERNELS
from repro.suites.polymage import POLYMAGE_PIPELINES

_spec = importlib.util.spec_from_file_location(
    "_fingerprint_memo_conftest", Path(__file__).with_name("conftest.py")
)
_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_kernels)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "fingerprints.json").read_text())

SUITES = {"polybench": KERNELS, "deepnest": DEEPNEST_KERNELS, "polymage": POLYMAGE_PIPELINES}


# --------------------------------------------------------------------------- #
# The strings do not move
# --------------------------------------------------------------------------- #
def test_the_golden_covers_every_suite_kernel_and_style():
    assert set(GOLDEN["scop"]) == {
        f"{suite}/{name}" for suite, registry in SUITES.items() for name in registry
    }
    assert len(GOLDEN["scop"]) == 37 and len(GOLDEN["config"]) == 7


def _build(kind, key):
    if kind == "scop":
        suite, name = key.split("/", 1)
        return SUITES[suite][name]()
    return getattr(strategies, key)() if kind == "config" else machine_by_name(key)


DIGESTS = {"scop": scop_fingerprint, "config": config_fingerprint, "machine": machine_fingerprint}
GOLDEN_CASES = [(kind, key) for kind in DIGESTS for key in sorted(GOLDEN[kind])]


@pytest.mark.parametrize(
    "kind, key", GOLDEN_CASES, ids=[f"{kind}:{key}" for kind, key in GOLDEN_CASES]
)
def test_the_fingerprint_is_pinned_cold_and_memoised(kind, key):
    hashed, digest = _build(kind, key), DIGESTS[kind]
    assert hashed._fingerprint_memo is None
    assert digest(hashed) == GOLDEN[kind][key]
    assert hashed._fingerprint_memo is not None
    assert digest(hashed) == GOLDEN[kind][key]


# --------------------------------------------------------------------------- #
# Mutations are never served stale
# --------------------------------------------------------------------------- #
def _swap_first_and_last(scop):
    scop.statements[0], scop.statements[-1] = scop.statements[-1], scop.statements[0]


def _append_a_statement(scop):
    last = scop.statements[-1]
    scop.statements.append(
        dataclasses.replace(last, name=f"S{len(scop.statements)}", index=len(scop.statements))
    )


def _add_a_parameter(scop):
    scop.parameters = (*scop.parameters, "P")
    scop.parameter_values["P"] = 4


SCOP_MUTATIONS = {
    "statements-append": _append_a_statement,
    "statements-pop": lambda scop: scop.statements.pop(),
    "statements-swap": _swap_first_and_last,
    "arrays-item": lambda scop: scop.arrays.__setitem__("A", (AffineExpr.const(40),)),
    "context": lambda scop: setattr(
        scop,
        "context",
        (*scop.context, AffineConstraint.greater_equal(AffineExpr.variable("N"), 2)),
    ),
    "name": lambda scop: setattr(scop, "name", "renamed"),
    "parameters": _add_a_parameter,
}

CONFIG_MUTATIONS = {
    "ilp-construction-item": lambda config: config.ilp_construction.__setitem__(
        0, DimensionConfig(("feautrier",))
    ),
    "custom-constraints-item": lambda config: config.custom_constraints.__setitem__(
        DEFAULT_DIMENSION, ("no-skewing",)
    ),
    "tile-sizes": lambda config: setattr(config, "tile_sizes", (4, 4)),
    "directives": lambda config: setattr(config, "directives", (Directive("parallel", ("0",)),)),
    "coefficient-bound": lambda config: setattr(config, "coefficient_bound", 3),
    "solver-options": lambda config: setattr(
        config, "solver_options", SolverOptions(node_limit=500)
    ),
}

MACHINE_MUTATIONS = {
    "cache-levels-append": lambda machine: machine.cache_levels.append(
        CacheLevelSpec("L4", 1024 * 1024, 64, 16, 80)
    ),
    "cores": lambda machine: setattr(machine, "cores", 8),
}


def _origins_around(session, scop, config, mutate, target):
    """Origins of compile, repeat, then the compile after ``mutate(target)``."""
    first = session.compile_with_origin(scop, config).origin
    repeat = session.compile_with_origin(scop, config).origin
    mutate(target)
    return first, repeat, session.compile_with_origin(scop, config).origin


@pytest.mark.parametrize("mutate", SCOP_MUTATIONS.values(), ids=list(SCOP_MUTATIONS))
def test_a_mutated_scop_gets_a_new_fingerprint_and_a_miss(mutate):
    scop = _kernels.build_sequence()
    before = scop_fingerprint(scop)
    assert _origins_around(Session(), scop, pluto_style(), mutate, scop) == (
        "miss",
        "memory",
        "miss",
    )
    assert scop_fingerprint(scop) != before
    assert scop_fingerprint(scop) == scop_fingerprint(copy.copy(scop))


@pytest.mark.parametrize("mutate", CONFIG_MUTATIONS.values(), ids=list(CONFIG_MUTATIONS))
def test_a_mutated_config_gets_a_new_fingerprint_and_a_miss(mutate):
    config = pluto_style()
    before = config_fingerprint(config)
    origins = _origins_around(Session(), _kernels.build_listing1(), config, mutate, config)
    assert origins == ("miss", "memory", "miss")
    assert config_fingerprint(config) != before
    assert config_fingerprint(config) == config_fingerprint(dataclasses.replace(config))


@pytest.mark.parametrize("mutate", MACHINE_MUTATIONS.values(), ids=list(MACHINE_MUTATIONS))
def test_a_mutated_machine_gets_a_new_fingerprint_and_a_miss(mutate):
    machine = machine_by_name("Intel1")
    before = machine_fingerprint(machine)
    origins = _origins_around(
        Session(machine), _kernels.build_listing1(), pluto_style(), mutate, machine
    )
    assert origins == ("miss", "memory", "miss")
    assert machine_fingerprint(machine) != before
    assert machine_fingerprint(machine) == machine_fingerprint(dataclasses.replace(machine))


def test_a_part_replaced_by_an_equal_one_keeps_the_fingerprint():
    scop = _kernels.build_listing1()
    before = scop_fingerprint(scop)
    scop.statements = [dataclasses.replace(statement) for statement in scop.statements]
    scop.arrays = dict(scop.arrays)
    assert scop_fingerprint(scop) == before


# --------------------------------------------------------------------------- #
# The memo is private
# --------------------------------------------------------------------------- #
def _bodiless_listing1():
    scop = _kernels.build_listing1()
    scop.statements = [dataclasses.replace(s, body=None) for s in scop.statements]
    return scop


@pytest.mark.parametrize(
    "build, digest",
    [
        (_bodiless_listing1, scop_fingerprint),
        (pluto_style, config_fingerprint),
        (lambda: machine_by_name("Intel1"), machine_fingerprint),
    ],
    ids=["scop", "config", "machine"],
)
def test_the_memo_is_absent_from_repr_eq_copies_and_pickles(build, digest):
    fresh, memoised = build(), build()
    digest(memoised)
    assert memoised._fingerprint_memo is not None
    assert repr(memoised) == repr(fresh) and "_fingerprint_memo" not in repr(memoised)
    assert memoised == fresh
    assert "_fingerprint_memo" not in memoised.__getstate__()
    for clone in (
        dataclasses.replace(memoised),
        copy.copy(memoised),
        pickle.loads(pickle.dumps(memoised)),
    ):
        assert clone._fingerprint_memo is None
        assert digest(clone) == digest(fresh)


def test_the_memo_is_absent_from_the_wire():
    scop, config, machine = _kernels.build_listing1(), pluto_style(), machine_by_name("Intel1")
    wire_before = (encode_scop(scop), config.to_json(), encode_machine(machine))
    scop_fingerprint(scop), config_fingerprint(config), machine_fingerprint(machine)
    assert (encode_scop(scop), config.to_json(), encode_machine(machine)) == wire_before
    assert "_fingerprint_memo" not in json.dumps(wire_before)


# --------------------------------------------------------------------------- #
# A repeat hit does no hashing work
# --------------------------------------------------------------------------- #
def test_a_repeated_memory_hit_hashes_nothing(monkeypatch):
    calls = {"expr_token": 0, "to_json": 0}
    expr_token, to_json = fingerprint._expr_token, SchedulerConfig.to_json

    def counted_expr_token(expression):
        calls["expr_token"] += 1
        return expr_token(expression)

    def counted_to_json(self):
        calls["to_json"] += 1
        return to_json(self)

    monkeypatch.setattr(fingerprint, "_expr_token", counted_expr_token)
    monkeypatch.setattr(SchedulerConfig, "to_json", counted_to_json)
    session = Session("Intel1")
    scop, config = _kernels.build_gemm(), pluto_style()
    assert session.compile_with_origin(scop, config).origin == "miss"
    assert calls["expr_token"] > 0 and calls["to_json"] > 0
    calls.update(expr_token=0, to_json=0)
    origins = {session.compile_with_origin(scop, config).origin for _ in range(100)}
    assert origins == {"memory"}
    assert calls == {"expr_token": 0, "to_json": 0}
