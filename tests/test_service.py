"""Tests of the compilation service: store, wire format, HTTP front door.

Covers the persistent result store (TTL expiry, eviction, schema-version
mismatch, LRU front), the session's store integration (cross-session hits
with zero scheduler invocations), the wire format's explicit error codes,
the token/capability auth paths (401/403), structured error envelopes on
malformed payloads, the async job lifecycle, and — in a real two-process
test — bit-identical results served from a shared store file.
"""

from __future__ import annotations

import dataclasses
import http.client
import importlib.util
import json
import socket
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Load the kernel builders from this directory's conftest by path: a bare
# ``import conftest`` resolves to whichever directory's conftest pytest put on
# ``sys.path`` first when the whole repository is collected in one run.
_spec = importlib.util.spec_from_file_location(
    "_service_test_kernels", Path(__file__).with_name("conftest.py")
)
_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_kernels)
build_gemm = _kernels.build_gemm
build_jacobi_1d = _kernels.build_jacobi_1d
build_listing1 = _kernels.build_listing1
from repro.machine.machine import machine_by_name
from repro.model.schedule import Schedule, StatementSchedule
from repro.pipeline import DEFAULT_STAGES, EXPERIMENT_STAGES, Session, result_fingerprint
from repro.pipeline.result import RESULT_SCHEMA_VERSION, CompilationJob, CompilationResult
from repro.pipeline.serialize import SerializationError, encode_scop
from repro.polyhedra.affine import AffineExpr
from repro.scheduler.strategies import isl_style, pluto_style
from repro.service import (
    CompilationServer,
    CompileService,
    ServiceAuth,
    ServiceClient,
    ServiceClientError,
    SqliteResultStore,
    WireError,
    decode_compile_request,
    encode_compile_request,
)
from repro.service.wire import decode_result

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# Result serialisation round trips
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def compiled_gemm() -> CompilationResult:
    return Session(machine="Intel1").compile(build_gemm(6, 6, 6))


def test_result_round_trip_on_real_compile(compiled_gemm):
    payload = json.dumps(compiled_gemm.to_dict(), sort_keys=True)
    decoded = CompilationResult.from_dict(json.loads(payload))
    assert decoded == compiled_gemm
    assert decoded.schedule == compiled_gemm.schedule
    assert decoded.report.cycles == compiled_gemm.report.cycles


def test_from_dict_rejects_unknown_schema_version(compiled_gemm):
    payload = compiled_gemm.to_dict()
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    with pytest.raises(SerializationError) as excinfo:
        CompilationResult.from_dict(payload)
    assert excinfo.value.code == "schema_version_mismatch"


_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)
_names = st.sampled_from(["i", "j", "k", "N", "M"])
_exprs = st.builds(
    lambda terms, constant: AffineExpr(dict(terms), constant),
    st.dictionaries(_names, _fractions, max_size=3),
    _fractions,
)


@st.composite
def _schedules(draw) -> Schedule:
    schedule = Schedule()
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        name = f"S{index}"
        rows = draw(st.lists(_exprs, min_size=1, max_size=3))
        schedule.statements[name] = StatementSchedule(name, tuple(rows))
    n_dims = schedule.n_dims
    schedule.bands = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n_dims, max_size=n_dims)
    )
    schedule.parallel_dims = draw(
        st.lists(st.booleans(), min_size=n_dims, max_size=n_dims)
    )
    return schedule


@settings(max_examples=60, deadline=None)
@given(
    schedule=_schedules(),
    timings=st.dictionaries(
        st.sampled_from(["dependences", "schedule", "evaluate"]),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        max_size=3,
    ),
    diagnostics=st.lists(st.text(max_size=20), max_size=3),
    legal=st.none() | st.booleans(),
    cycles=st.none() | st.floats(min_value=0, max_value=1e9, allow_nan=False),
    failed=st.booleans(),
)
def test_result_round_trip_property(schedule, timings, diagnostics, legal, cycles, failed):
    """to_dict/from_dict is the identity through a JSON text round trip."""
    result = CompilationResult(
        kernel="prop",
        configuration="cfg",
        machine=None,
        schedule=schedule,
        scheduling=None,
        legal=legal,
        cycles=cycles,
        stage_timings=dict(timings),
        diagnostics=list(diagnostics),
        failed=failed,
    )
    decoded = CompilationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert decoded == result


# --------------------------------------------------------------------------- #
# Persistent store semantics
# --------------------------------------------------------------------------- #
def test_store_put_get_and_lru_front(tmp_path, compiled_gemm):
    store = SqliteResultStore(tmp_path / "store.sqlite", memory_entries=1)
    store.put("fp-a", compiled_gemm)
    store.put("fp-b", compiled_gemm)
    assert store.get("fp-a") == compiled_gemm  # sqlite (a was evicted from the LRU)
    assert store.get("fp-a") == compiled_gemm  # now the LRU front
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["lru_entries"] == 1
    assert stats["lru_hits"] >= 1
    assert store.get("missing") is None
    assert store.stats()["misses"] == 1
    store.close()


def test_store_ttl_expiry(tmp_path, compiled_gemm):
    clock = FakeClock()
    store = SqliteResultStore(tmp_path / "store.sqlite", ttl=10.0, clock=clock)
    store.put("fp", compiled_gemm)
    assert store.get("fp") == compiled_gemm
    clock.now += 11.0
    assert store.get("fp") is None
    assert store.stats()["expired"] >= 1
    # A per-put TTL override outlives the default.
    store.put("fp-long", compiled_gemm, ttl=100.0)
    clock.now += 50.0
    assert store.get("fp-long") is not None
    store.close()


def test_store_eviction(tmp_path, compiled_gemm):
    store = SqliteResultStore(tmp_path / "store.sqlite")
    store.put("fp-a", compiled_gemm)
    store.put("fp-b", compiled_gemm)
    assert store.evict("fp-a") == 1
    assert store.get("fp-a") is None
    assert store.evict() == 1  # drop everything remaining
    assert store.stats()["entries"] == 0
    store.close()


def test_store_schema_version_mismatch_is_a_miss(tmp_path, compiled_gemm):
    path = tmp_path / "store.sqlite"
    store = SqliteResultStore(path)
    store.put("fp", compiled_gemm)
    store.close()
    # Simulate a row written by an incompatible (newer) version of the code.
    connection = sqlite3.connect(path)
    connection.execute(
        "UPDATE results SET schema_version = ? WHERE fingerprint = 'fp'",
        (RESULT_SCHEMA_VERSION + 1,),
    )
    connection.commit()
    connection.close()
    store = SqliteResultStore(path)
    assert store.get("fp") is None
    assert store.stats()["schema_mismatches"] == 1
    assert store.stats()["entries"] == 0  # the stale row was dropped
    store.close()


def test_memory_store_shares_the_contract(compiled_gemm):
    clock = FakeClock()
    store = SqliteResultStore(ttl=10.0, clock=clock)  # ":memory:", no file
    store.put("fp", compiled_gemm)
    fetched = store.get("fp")
    assert fetched == compiled_gemm
    assert fetched is not compiled_gemm  # a fresh decode, never a shared object
    clock.now += 11.0
    assert store.get("fp") is None
    assert store.stats()["expired"] == 1
    store.put("fp", compiled_gemm)
    assert store.evict("fp") == 1
    assert store.stats()["entries"] == 0


def test_store_corrupt_payload_degrades_to_miss(tmp_path, compiled_gemm):
    path = tmp_path / "store.sqlite"
    store = SqliteResultStore(path, memory_entries=0)
    store.put("fp", compiled_gemm)
    connection = sqlite3.connect(path)
    connection.execute("UPDATE results SET payload = '{not json' WHERE fingerprint = 'fp'")
    connection.commit()
    connection.close()
    assert store.get("fp") is None
    store.close()


# --------------------------------------------------------------------------- #
# Session + store integration
# --------------------------------------------------------------------------- #
def test_session_store_hit_skips_scheduler(tmp_path, monkeypatch):
    path = tmp_path / "store.sqlite"
    first = Session(machine="Intel1", store=SqliteResultStore(path))
    outcome = first.compile_with_origin(build_gemm(6, 6, 6))
    assert outcome.origin == "miss"
    assert outcome.fingerprint is not None
    assert first.statistics["store_puts"] == 1
    assert any(d.startswith("cache: miss") for d in outcome.result.diagnostics)

    # A different session (standing in for another process): the scheduler
    # must never run.
    import repro.scheduler.core as core

    def explode(self):
        raise AssertionError("scheduler invoked despite a persistent store hit")

    monkeypatch.setattr(core.PolyTOPSScheduler, "schedule", explode)
    second = Session(machine="Intel1", store=SqliteResultStore(path))
    hit = second.compile_with_origin(build_gemm(6, 6, 6))
    assert hit.origin == "store"
    assert hit.fingerprint == outcome.fingerprint
    assert hit.result.schedule == outcome.result.schedule
    assert hit.result.to_dict()["schedule"] == outcome.result.to_dict()["schedule"]
    assert second.statistics["store_hits"] == 1
    assert second.statistics["memory_hits"] == 0
    assert any("persistent store hit" in d for d in hit.result.diagnostics)
    # The store hit seeds the in-memory cache: the next compile is a memory hit.
    again = second.compile_with_origin(build_gemm(6, 6, 6))
    assert again.origin == "memory"
    assert second.statistics["memory_hits"] == 1


def test_sessions_with_other_stages_do_not_share_store_rows(tmp_path):
    """A result is a function of the stages that ran: the trimmed experiment
    pipeline's row (no legality verdict, no C) is not the full pipeline's."""
    store = SqliteResultStore(tmp_path / "store.sqlite")
    trimmed = Session(machine="Intel1", stages=EXPERIMENT_STAGES, store=store)
    partial = trimmed.compile_with_origin(build_gemm(6, 6, 6))
    assert partial.result.legal is None and partial.result.generated_c is None
    full = Session(machine="Intel1", store=store).compile_with_origin(build_gemm(6, 6, 6))
    assert full.origin == "miss" and full.fingerprint != partial.fingerprint
    assert full.result.legal is True and "for" in full.result.generated_c
    # ... and each pipeline still finds its own row from a fresh session.
    again = Session(machine="Intel1", stages=EXPERIMENT_STAGES, store=store)
    assert again.compile_with_origin(build_gemm(6, 6, 6)).origin == "store"
    # The same holds in memory when a session's stages are replaced.
    trimmed.stages = Session(machine="Intel1").stages
    assert trimmed.compile_with_origin(build_gemm(6, 6, 6)).origin == "store"
    assert trimmed.compile(build_gemm(6, 6, 6)).legal is True


def test_session_skips_store_for_dynamic_callbacks(tmp_path):
    session = Session(machine="Intel1", store=SqliteResultStore(tmp_path / "store.sqlite"))
    outcome = session.compile_with_origin(build_listing1(), isl_style())
    assert outcome.origin == "miss"
    assert outcome.fingerprint is None
    assert session.statistics["store_skips"] == 1
    assert session.statistics["store_puts"] == 0


def test_session_without_store_behaves_as_before():
    session = Session(machine="Intel1")
    first = session.compile_with_origin(build_listing1())
    assert first.origin == "miss" and first.fingerprint is None
    second = session.compile_with_origin(build_listing1())
    assert second.origin == "memory"
    assert session.statistics["result_hits"] == 1
    assert session.statistics["memory_hits"] == 1


def test_result_fingerprint_sensitivity():
    scop = build_gemm(6, 6, 6)
    default = tuple(stage.name for stage in DEFAULT_STAGES)
    experiment = tuple(stage.name for stage in EXPERIMENT_STAGES)
    knobs = (True, default)  # as Session._knobs() spells them
    base = result_fingerprint(scop, pluto_style(), knobs=knobs)
    assert base == result_fingerprint(scop, pluto_style(), knobs=knobs)
    assert base != result_fingerprint(scop, pluto_style(), knobs=(False, default))
    assert base != result_fingerprint(scop, pluto_style(), knobs=(True, experiment))
    assert base != result_fingerprint(scop, pluto_style(), parameter_values={"NI": 32}, knobs=knobs)
    assert base != result_fingerprint(build_jacobi_1d(), pluto_style(), knobs=knobs)
    # Statement text: the generated C prints it, the SCoP fingerprint leaves it out.
    retexted = dataclasses.replace(
        scop, statements=[dataclasses.replace(s, text=f"/* {s.name} */") for s in scop.statements]
    )
    assert base != result_fingerprint(retexted, pluto_style(), knobs=knobs)
    # The session derives its store key from the same parts.
    session = Session(store=SqliteResultStore())
    assert session.compile_with_origin(scop, pluto_style()).fingerprint == base


# --------------------------------------------------------------------------- #
# Wire format validation
# --------------------------------------------------------------------------- #
def test_wire_round_trip():
    request = encode_compile_request(
        build_listing1(), pluto_style(), "Intel1", {"N": 8}, "wire-test"
    )
    decoded = decode_compile_request(json.loads(json.dumps(request)))
    assert encode_scop(decoded.scop) == encode_scop(build_listing1())
    assert decoded.config.to_json() == pluto_style().to_json()
    assert decoded.machine.name == "Intel1"
    assert decoded.parameter_values == {"N": 8}
    assert decoded.label == "wire-test"


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda p: p.update(wire_version=99), "unsupported_wire_version"),
        (lambda p: p.pop("scop"), "missing_field"),
        (lambda p: p.update(scop={"name": "x"}), "invalid_scop"),
        (lambda p: p.update(config="{not json"), "invalid_config"),
        (lambda p: p.update(machine="no-such-machine"), "unknown_machine"),
        (lambda p: p.update(machine=42), "invalid_machine"),
        (lambda p: p.update(parameter_values={"N": "many"}), "invalid_parameter_values"),
        # By the rule of a configuration's integer options: 2.5 used to
        # truncate to 2 and true to read as 1.
        (lambda p: p.update(parameter_values={"N": 2.5}), "invalid_parameter_values"),
        (lambda p: p.update(parameter_values={"N": True}), "invalid_parameter_values"),
        # A name the SCoP does not declare used to enter the cache key.
        (lambda p: p.update(parameter_values={"NOPE": 7}), "invalid_parameter_values"),
        (lambda p: p.update(label=7), "invalid_label"),
        # The top-level field is gone: any value but null names the way in.
        (lambda p: p.update(solver_options={"node_limit": 1}), "invalid_solver_options"),
    ],
)
def test_wire_error_codes(mutate, code):
    assert _wire_error_code(mutate) == code


def _wire_error_code(mutate) -> str:
    payload = encode_compile_request(build_listing1(), pluto_style())
    mutate(payload)
    with pytest.raises(WireError) as excinfo:
        decode_compile_request(payload)
    return excinfo.value.code


#: Options a compile cannot run under: refused where the JSON is read (400
#: ``invalid_config``), not by the compile they would break (500) or truncated.
_OUT_OF_RANGE_OPTIONS = {
    "coefficient-bound-negative": {"coefficient_bound": -1},
    "constant-bound-negative": {"constant_bound": -3},
    "tile-size-zero": {"tile_sizes": [0]},
    "coefficient-bound-fractional": {"coefficient_bound": 2.5},
    "coefficient-bound-bool": {"coefficient_bound": True},
}


#: Configurations naming a cost function, statement or iterator that neither
#: the registry nor the SCoP has: 400 ``invalid_config``, never a 500
#: ``internal`` or a 200 that silently drops the name.  The cost function is
#: refused where the JSON is read, the statement and iterator names by the
#: compile (``build_listing1`` has statements S0 and S1 over ``i`` and ``j``).
_UNKNOWN_NAMES = {
    "cost-function": {"ILP_construction": [{"cost_functions": ["proximity", "proximty"]}]},
    "parallel-statement": {"directives": [{"type": "parallel", "stmts": ["S9"]}]},
    "sequential-statement": {"directives": [{"type": "sequential", "stmts": ["0", "7"]}]},
    "vectorize-iterator": {"directives": [{"type": "vectorize", "stmts": ["0"], "iterator": "q"}]},
    "fusion-statement": {"fusion": [{"scheduling_dimension": 0, "stmts_fusion": [["0", "S9"]]}]},
    "constraint-statement": {"custom_constraints": [{"constraints": ["S9_it_0 >= 0"]}]},
}


@pytest.mark.parametrize(
    "mutate, code",
    [
        # A SCoP node of the wrong type or value is the client's error (400),
        # not a traceback (500).
        (lambda p: p["scop"]["statements"][0].update(index="x"), "invalid_scop"),
        (lambda p: p["scop"].update(statements=5), "invalid_scop"),
        (lambda p: p["scop"]["statements"][0]["accesses"][0].update(indices=3), "invalid_scop"),
        (lambda p: p["scop"].update(parameter_values={"N": "abc"}), "invalid_scop"),
        (lambda p: p["scop"].update(context=7), "invalid_scop"),
        (lambda p: p["scop"]["arrays"].update(c=3), "invalid_scop"),
        # A string is JSON text, not a path the server would read.
        (lambda p: p.update(config="."), "invalid_config"),
        (lambda p: p.update(config={"fusion": [None]}), "invalid_config"),
        (lambda p: p.update(config=_UNKNOWN_NAMES["cost-function"]), "invalid_config"),
        *(
            (lambda p, options=options: p.update(config={"options": options}), "invalid_config")
            for options in _OUT_OF_RANGE_OPTIONS.values()
        ),
    ],
    ids=[
        "index-x",
        "statements-5",
        "indices-3",
        "parameter-value-abc",
        "context-7",
        "array-shape-3",
        "config-path",
        "config-entry-null",
        "unknown-cost-function",
        *_OUT_OF_RANGE_OPTIONS,
    ],
)
def test_malformed_nodes_are_wire_errors(mutate, code):
    assert _wire_error_code(mutate) == code


@pytest.mark.parametrize(
    "options", _OUT_OF_RANGE_OPTIONS.values(), ids=list(_OUT_OF_RANGE_OPTIONS)
)
def test_out_of_range_options_are_400_at_the_compile_route(options):
    """The same options through the compile route: 400, not 500 ``internal``."""
    status, envelope = _compile_listing1_under({"options": options})
    assert status == 400 and envelope["error"]["code"] == "invalid_config"


@pytest.mark.parametrize("config", _UNKNOWN_NAMES.values(), ids=list(_UNKNOWN_NAMES))
def test_unknown_names_are_400_at_the_compile_route(config):
    status, envelope = _compile_listing1_under(config)
    assert (status, envelope["error"]["code"]) == (400, "invalid_config")
    assert "Traceback" not in json.dumps(envelope)


#: ``scheduling_dimension`` values that used to compile with 200 under a
#: configuration the client did not write (truncated, or a dimension that
#: never matches): refused where the JSON is read.
_BAD_DIMENSIONS = {
    "ilp-dimension-fractional": {"ILP_construction": [{"scheduling_dimension": 2.5}]},
    "constraint-dimension-bool": {
        "custom_constraints": [{"scheduling_dimension": True, "constraints": []}]
    },
    "fusion-dimension-negative": {"fusion": [{"scheduling_dimension": -1}]},
}


@pytest.mark.parametrize("config", _BAD_DIMENSIONS.values(), ids=list(_BAD_DIMENSIONS))
def test_a_malformed_scheduling_dimension_is_400_at_the_compile_route(config):
    status, envelope = _compile_listing1_under(config)
    assert (status, envelope["error"]["code"]) == (400, "invalid_config")
    assert "scheduling_dimension" in json.dumps(envelope)


@pytest.mark.parametrize("kind", ["parallel", "sequential"])
def test_an_iterator_on_parallel_or_sequential_is_400_at_the_compile_route(kind):
    """Only ``vectorize`` names a loop: the iterator of another kind would be
    ignored by the compile (a 200 that parallelises a different loop), so the
    configuration is refused where it is read."""
    directive = {"type": kind, "stmts": ["0"], "iterator": "i"}
    status, envelope = _compile_listing1_under({"directives": [directive]})
    assert status == 400
    assert envelope["error"]["code"] == "invalid_config"
    assert "takes no iterator" in json.dumps(envelope)
    del directive["iterator"]
    assert _compile_listing1_under({"directives": [directive]})[0] == 200


def test_parameter_values_are_declared_integers_at_the_service(tmp_path):
    """A bad value answers 400; a well-formed request keeps its fingerprint
    and its result, an integral string included."""
    service = CompileService(session=Session(store=SqliteResultStore(tmp_path / "s.sqlite")))

    def compile_gemm(values) -> tuple[int, dict]:
        payload = encode_compile_request(build_gemm(6, 6, 6), parameter_values=values)
        status, envelope = service.handle_compile(None, json.dumps(payload).encode())
        return status, envelope if isinstance(envelope, dict) else json.loads(envelope.to_json())

    try:
        for values in ({"NI": 2.5}, {"NI": True}, {"NOPE": 7}):
            status, envelope = compile_gemm(values)
            assert (status, envelope["error"]["code"]) == (400, "invalid_parameter_values")
        status, first = compile_gemm({"NI": 8})
        assert status == 200
        expected = result_fingerprint(
            build_gemm(6, 6, 6), pluto_style(), parameter_values={"NI": 8},
            knobs=service.session._knobs(),
        )
        assert first["fingerprint"] == expected
        status, again = compile_gemm({"NI": "8"})
        assert status == 200 and again["cache"] == "memory"
        assert again["fingerprint"] == first["fingerprint"]
        assert again["result"] == first["result"]
    finally:
        service.shutdown()


def _compile_listing1_under(config) -> tuple[int, dict]:
    """Status and envelope of ``POST /v1/compile`` for Listing 1 under *config*."""
    payload = {**encode_compile_request(build_listing1()), "config": config}
    service = CompileService(session=Session())
    try:
        return service.handle_compile(None, json.dumps(payload).encode())
    finally:
        service.shutdown()


def _nodes(document, path=()):
    """The path of every node of a JSON document, the root's included."""
    yield path
    children = document.items() if isinstance(document, dict) else (
        enumerate(document) if isinstance(document, list) else ()
    )
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _replaced(document, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


_VALID_REQUESTS = [
    json.loads(json.dumps(request))
    for request in (
        encode_compile_request(build_listing1(), pluto_style(), "Intel1", {"N": 8}, "fuzz"),
        encode_compile_request(build_jacobi_1d(), isl_style(), machine_by_name("Intel1")),
        # A configuration may be sent as an object: its nodes are fuzzed too.
        {
            **encode_compile_request(build_listing1()),
            "config": json.loads(isl_style().to_json()),
        },
    )
]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@given(
    node=st.sampled_from(
        [(request, path) for request in _VALID_REQUESTS for path in _nodes(request)]
    ),
    value=_JSON,
)
def test_any_one_replaced_node_decodes_or_is_a_wire_error(node, value):
    """Whatever a client puts at one place of a valid request, decoding it
    yields a job or a stable wire code: the server never answers 500."""
    request, path = node
    try:
        job = decode_compile_request(_replaced(request, path, value))
    except WireError:
        return
    assert isinstance(job, CompilationJob)


# --------------------------------------------------------------------------- #
# HTTP front door
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = SqliteResultStore(tmp_path_factory.mktemp("service") / "store.sqlite")
    auth = ServiceAuth(
        {
            "full-token": ("compile", "read", "admin"),
            "read-token": ("read",),
        }
    )
    server = CompilationServer(store=store, auth=auth, machine="Intel1", job_workers=2)
    server.start_in_thread()
    yield server
    server.shutdown()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, token="full-token")


def test_healthz_is_public(server):
    assert ServiceClient(server.url).healthz()["status"] == "ok"


def test_auth_rejects_missing_and_unknown_tokens(server):
    scop = build_listing1()
    with pytest.raises(ServiceClientError) as excinfo:
        ServiceClient(server.url).compile(scop)
    assert (excinfo.value.status, excinfo.value.code) == (401, "unauthorized")
    with pytest.raises(ServiceClientError) as excinfo:
        ServiceClient(server.url, token="wrong").compile(scop)
    assert (excinfo.value.status, excinfo.value.code) == (401, "unauthorized")


def test_auth_enforces_capabilities(server):
    reader = ServiceClient(server.url, token="read-token")
    with pytest.raises(ServiceClientError) as excinfo:
        reader.compile(build_listing1())
    assert (excinfo.value.status, excinfo.value.code) == (403, "forbidden")
    with pytest.raises(ServiceClientError) as excinfo:
        reader.stats()
    assert (excinfo.value.status, excinfo.value.code) == (403, "forbidden")


def test_compile_and_cache_over_http(client):
    scop = build_gemm(7, 7, 7)
    first = client.compile(scop, pluto_style())
    assert first.cache == "miss"
    assert first.result.legal is True
    assert first.fingerprint
    second = client.compile(scop, pluto_style())
    assert second.cache == "memory"
    assert second.result.schedule == first.result.schedule
    fetched = client.result(first.fingerprint)
    assert fetched.result.schedule == first.result.schedule


def test_unknown_fingerprint_is_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.result("no-such-fingerprint")
    assert (excinfo.value.status, excinfo.value.code) == (404, "result_not_found")


def test_malformed_payload_yields_error_envelope(server):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{server.url}/v1/compile",
        data=b"{this is not json",
        headers={"Authorization": "Bearer full-token", "Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    envelope = json.loads(excinfo.value.read().decode())
    assert envelope["error"]["code"] == "invalid_json"
    assert "detail" in envelope["error"]


def test_malformed_wire_payload_yields_wire_code(client, server):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("POST", "/v1/compile", {"wire_version": 1})
    assert (excinfo.value.status, excinfo.value.code) == (400, "missing_field")
    # A SCoP node of the wrong type is the client's error, not an opaque 500.
    broken = encode_compile_request(build_listing1(), pluto_style())
    broken["scop"]["statements"] = 5
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("POST", "/v1/compile", broken)
    assert (excinfo.value.status, excinfo.value.code) == (400, "invalid_scop")
    # A request written by an older client (removed solver knobs) is a 400
    # with a stable code, never a traceback.
    stale = encode_compile_request(build_listing1(), pluto_style())
    for removed in (
        {"warm_start": True, "irredundancy": False},
        {"engine": "oracle"},
        {"core": "tableau"},
        {"workers": 4},
        {"processes": True},
        # ... and so is a node_limit that is not a positive integer.
        {"node_limit": 0},
        {"node_limit": -3},
        {"node_limit": 1.7},
        {"node_limit": True},
    ):
        stale["solver_options"] = {"node_limit": 500, **removed}
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/v1/compile", stale)
        assert (excinfo.value.status, excinfo.value.code) == (400, "invalid_solver_options")


def test_the_solver_side_door_is_shut(client):
    """`SolverOptions` reaches a compile through `config.solver_options` and
    nowhere else: no entry point takes one, the wire has no top-level field."""
    import dataclasses

    from repro.ilp import SolverOptions
    from repro.pipeline import CompilationJob, compile as pipeline_compile

    scop, options = build_listing1(), SolverOptions()
    for call in (
        lambda: Session().compile(scop, solver=options),
        lambda: Session().compile_with_origin(scop, solver=options),
        lambda: Session().compile_best(scop, [pluto_style()], "Intel1", solver=options),
        lambda: pipeline_compile(scop, solver=options),
        lambda: CompilationJob(scop, None, None, None, None, options),
        lambda: client.compile(scop, pluto_style(), solver=options),
        lambda: client.submit(scop, pluto_style(), solver=options),
        lambda: encode_compile_request(scop, pluto_style(), solver=options),
    ):
        with pytest.raises(TypeError):
            call()
    # A top-level value is answered with the way in; absent or null — what
    # clients of the removed field send when they set nothing — still compiles.
    payload = encode_compile_request(scop, pluto_style())
    assert "solver_options" not in payload
    payload["solver_options"] = {"node_limit": 1}
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("POST", "/v1/compile", payload)
    error = excinfo.value
    assert (error.status, error.code) == (400, "invalid_solver_options")
    assert "config.solver_options" in error.message
    payload["solver_options"] = None
    assert client._request("POST", "/v1/compile", payload)["result"]["legal"] is True
    # Inside the configuration the knob is part of what names a result.
    session = Session(store=SqliteResultStore())
    roomy = dataclasses.replace(pluto_style(), solver_options=SolverOptions(node_limit=500))
    bare = session.compile_with_origin(scop, pluto_style())
    limited = session.compile_with_origin(scop, roomy)
    assert (bare.origin, limited.origin) == ("miss", "miss")
    assert bare.fingerprint != limited.fingerprint and session.cached_results == 2
    assert limited.result.schedule.statements == bare.result.schedule.statements


def test_node_limit_exhaustion_has_a_stable_code_on_both_routes(client):
    """The client chose the limit, so running out of it is the client's
    answer to read: 422 / a failed job with the code, never 500 `internal`."""
    import dataclasses

    from repro.ilp import SolverOptions
    from repro.suites.polybench.solvers import trisolv

    tiny = dataclasses.replace(pluto_style(), solver_options=SolverOptions(node_limit=1))
    with pytest.raises(ServiceClientError) as excinfo:
        client.compile(trisolv(6), tiny)
    error = excinfo.value
    assert (error.status, error.code) == (422, "node_limit_exceeded")
    assert "node limit (1)" in error.message
    assert "Traceback" not in f"{error.message} {error.detail}"
    job_id = client.submit(trisolv(6), tiny)["id"]
    with pytest.raises(ServiceClientError) as excinfo:
        client.wait(job_id)
    assert excinfo.value.code == "node_limit_exceeded"
    assert "node limit (1)" in excinfo.value.message
    description = client.job(job_id)["job"]
    assert description["state"] == "failed"
    assert description["error"]["code"] == "node_limit_exceeded"
    # The same kernel under the default limit compiles.
    assert client.compile(trisolv(6), pluto_style()).result.legal is True


def test_a_directive_naming_an_unknown_statement_is_invalid_config_on_both_routes(client):
    """Before, the directive was dropped and the compile answered 200."""
    from repro.scheduler import Directive
    from repro.scheduler.strategies import kernel_specific

    config = kernel_specific(name="typo", directives=(Directive("parallel", ("S9",)),))
    with pytest.raises(ServiceClientError) as excinfo:
        client.compile(build_listing1(), config)
    assert (excinfo.value.status, excinfo.value.code) == (400, "invalid_config")
    assert "'S9'" in excinfo.value.message
    job_id = client.submit(build_listing1(), config)["id"]
    with pytest.raises(ServiceClientError) as excinfo:
        client.wait(job_id)
    assert excinfo.value.code == "invalid_config"
    description = client.job(job_id)["job"]
    assert (description["state"], description["error"]["code"]) == ("failed", "invalid_config")


def _raw_post(server, headers: list[str], body: bytes = b"") -> tuple[int, dict, str | None]:
    """POST /v1/compile written byte for byte (a client library would fix the
    framing up); returns status, envelope and the ``Connection`` header."""
    host, port = server.address
    head = ["POST /v1/compile HTTP/1.1", f"Host: {host}", "Authorization: Bearer full-token"]
    with socket.create_connection((host, port), timeout=10) as connection:
        connection.sendall("\r\n".join([*head, *headers, "", ""]).encode() + body)
        response = http.client.HTTPResponse(connection)
        response.begin()
        return response.status, json.loads(response.read()), response.getheader("Connection")


@pytest.mark.parametrize(
    "headers, body, status, code",
    [
        (["Content-Length: abc"], b"", 400, "invalid_content_length"),
        # rfile.read(-1) would block the handler until the client gives up.
        (["Content-Length: -1"], b"", 400, "invalid_content_length"),
        (["Content-Length: " + "9" * 5000], b"", 400, "invalid_content_length"),
        # Refused on the header alone: the body is never sent, so a server
        # that tried to read it would hang until the socket timeout.
        ([f"Content-Length: {8 * 1024 * 1024 + 1}"], b"", 413, "body_too_large"),
        (["Content-Length: 0"], b"", 400, "empty_body"),
        ([], b"", 400, "empty_body"),
        (["Content-Length: 17"], b"{this is not json", 400, "invalid_json"),
    ],
    ids=["non-integer", "negative", "too-many-digits", "over-cap", "zero", "absent", "not-json"],
)
def test_request_framing_errors_are_enveloped(server, headers, body, status, code):
    got_status, envelope, connection = _raw_post(server, headers, body)
    assert (got_status, envelope["error"]["code"]) == (status, code)
    if code in ("invalid_content_length", "body_too_large"):
        # The unread body makes the rest of the connection unparseable.
        assert connection == "close"
    assert ServiceClient(server.url).healthz()["status"] == "ok"


def test_unknown_route_is_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client._request("GET", "/v1/nothing")
    assert (excinfo.value.status, excinfo.value.code) == (404, "not_found")


def test_async_job_lifecycle(client):
    job = client.submit(build_jacobi_1d(4, 10), pluto_style(), label="async-test")
    assert job["state"] in ("queued", "running")
    response = client.wait(job["id"])
    description = response["job"]
    assert description["state"] == "done"
    assert description["cache"] == "miss"
    assert description["fingerprint"]
    stages = [entry["stage"] for entry in description["progress"]]
    # Per-stage progress comes from the stage timings the pipeline records.
    assert stages == ["dependences", "schedule", "postprocess", "legality", "codegen", "evaluate"]
    assert all(entry["seconds"] >= 0 for entry in description["progress"])
    result = decode_result(client.wait(job["id"]))
    assert result.kernel == "jacobi-1d"
    assert result.configuration == "async-test"
    # Without a configuration or a label, the job is called what its result is.
    plain = client.submit(build_jacobi_1d(4, 10))
    assert plain["label"] == decode_result(client.wait(plain["id"])).configuration == "pluto-style"


def test_job_progress_is_live_and_needs_no_slot_on_the_session():
    """Progress is read off the job's own work-ledger scope.

    The reproducer of the empty-progress bug: the manager used to install its
    stage observer only into a session whose slot was free, so on a
    caller-owned session already observed — here by another server — a
    ``done`` job that ran all six stages answered ``"progress": []``.  And the
    scope is read live: a stage shows up before the job is done.
    """
    import threading

    entered, release = threading.Event(), threading.Event()

    class Gate:
        name = "gate"

        def run(self, context):
            entered.set()
            assert release.wait(timeout=60)

    session = Session(machine="Intel1", stages=(*DEFAULT_STAGES, Gate()))
    names = [stage.name for stage in DEFAULT_STAGES]
    servers = [CompilationServer(session=session) for _ in range(2)]
    for server in servers:
        server.start_in_thread()
    try:
        first, second = (ServiceClient(server.url) for server in servers)
        release.set()
        description = first.wait(first.submit(build_jacobi_1d(4, 10))["id"])["job"]
        assert [entry["stage"] for entry in description["progress"]] == [*names, "gate"]
        entered.clear()
        release.clear()
        job = second.submit(build_jacobi_1d(4, 11))
        assert entered.wait(timeout=60)
        running = second.job(job["id"])["job"]
        assert running["state"] == "running"
        assert [entry["stage"] for entry in running["progress"]] == names
        release.set()
        description = second.wait(job["id"])["job"]
        assert description["state"] == "done" and description["cache"] == "miss"
        assert [entry["stage"] for entry in description["progress"]] == [*names, "gate"]
        assert description["progress"][:6] == running["progress"]
    finally:
        release.set()
        for server in servers:
            server.shutdown()


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceClientError) as excinfo:
        client.job("job-none")
    assert (excinfo.value.status, excinfo.value.code) == (404, "job_not_found")


def test_stats_reports_store_and_jobs(client):
    stats = client.stats()
    assert stats["store"]["backend"] == "sqlite"
    assert "memory_hits" in stats["session"]
    assert "store_hits" in stats["session"]
    assert stats["jobs"]["submitted"] >= 1


@pytest.mark.parametrize(
    "beside",
    [lambda path: {"store": SqliteResultStore(path)}, lambda path: {"machine": "Intel1"}],
    ids=["store", "machine"],
)
@pytest.mark.parametrize("front", [CompileService, CompilationServer])
def test_store_or_machine_beside_a_session_is_refused(tmp_path, front, beside):
    """The session already decided its store and machine: one given beside it
    used to be dropped in silence (nothing stored, 404 ``no_store``)."""
    with pytest.raises(ValueError, match="session="):
        front(session=Session(), **beside(tmp_path / "store.sqlite"))
    service = CompileService(session=Session(store=SqliteResultStore(tmp_path / "own.sqlite")))
    assert service.store is service.session.store is not None
    service.shutdown()


# --------------------------------------------------------------------------- #
# Two real processes sharing one store file
# --------------------------------------------------------------------------- #
_PROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[2])   # src
sys.path.insert(0, sys.argv[3])   # tests (conftest kernels)
if len(sys.argv) > 4 and sys.argv[4] == "forbid-scheduler":
    import repro.scheduler.core as core
    def explode(self):
        raise AssertionError("scheduler invoked in the second process")
    core.PolyTOPSScheduler.schedule = explode
from conftest import build_gemm
from repro.pipeline import Session
from repro.service.store import SqliteResultStore
session = Session(machine="Intel1", store=SqliteResultStore(sys.argv[1]))
outcome = session.compile_with_origin(build_gemm(6, 6, 6))
print(json.dumps({
    "origin": outcome.origin,
    "fingerprint": outcome.fingerprint,
    "schedule": outcome.result.to_dict()["schedule"],
    "cycles": outcome.result.cycles,
    "store_hits": session.statistics["store_hits"],
}))
"""


def _run_client_process(store_path: Path, *extra: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _PROCESS_SCRIPT,
            str(store_path),
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_two_processes_share_bit_identical_results(tmp_path):
    """Acceptance: a second server process answers from the shared store,
    bit-identically, without ever invoking the scheduler."""
    store_path = tmp_path / "shared.sqlite"
    first = _run_client_process(store_path)
    assert first["origin"] == "miss"
    second = _run_client_process(store_path, "forbid-scheduler")
    assert second["origin"] == "store"
    assert second["store_hits"] == 1
    assert second["fingerprint"] == first["fingerprint"]
    assert second["schedule"] == first["schedule"]  # bit-identical serialised rows
    assert second["cycles"] == first["cycles"]
