"""The hit path of the compilation service: text, not objects.

A cached result has two forms (the ``CompilationResult`` and its JSON text)
and a repeated request is answered from the text.  These tests pin that the
text path says exactly what the object path says, with the cache counters of
the object path; that nothing unchecked is ever served (corrupt and
old-schema rows, unknown tokens); that the request memo is bounded and
re-keys with the session; the schema-2 codec (every dependence once, shared
again after decoding; integers parsed as integers); and the kept-alive
transport with its structured failures.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import socket
import sqlite3
import statistics
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def _sibling(filename: str):
    """A module of this directory, by path (see test_service.py: a bare
    ``import conftest`` may resolve to another directory's)."""
    spec = importlib.util.spec_from_file_location(
        f"_hit_path_{Path(filename).stem}", Path(__file__).with_name(filename)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_kernels = _sibling("conftest.py")
GOLDEN_KERNELS = _sibling("test_golden_schedules.py").GOLDEN_KERNELS

import repro.service.server as server_module
from repro.pipeline import CompilationResult, Session
from repro.pipeline.result import RESULT_SCHEMA_VERSION
from repro.pipeline.serialize import SerializationError, _decode_fraction
from repro.scheduler.strategies import isl_style, pluto_style, tensor_scheduler_style
from repro.service import (
    CompilationServer,
    ServiceAuth,
    ServiceClient,
    ServiceClientError,
    SqliteResultStore,
    encode_compile_request,
)
from repro.service.wire import encode_result
from repro.suites.polybench import build_kernel

CORPUS = [
    (build, strategy)
    for build in (_kernels.build_listing1, _kernels.build_gemm, _kernels.build_jacobi_1d)
    for strategy in (pluto_style, tensor_scheduler_style)
]
CACHE_COUNTERS = ("result_misses", "result_hits", "memory_hits", "store_hits", "store_puts")


@contextmanager
def serving(**options):
    server = CompilationServer(**options)
    server.start_in_thread()
    try:
        yield server, ServiceClient(server.url)
    finally:
        server.shutdown()


def counters(session: Session) -> dict:
    return {name: session.statistics[name] for name in CACHE_COUNTERS}


# --------------------------------------------------------------------------- #
# The text path equals the object path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("build, strategy", CORPUS)
def test_every_origin_serves_what_the_object_encodes_to(tmp_path, build, strategy):
    scop, config = build(), strategy()
    payload = encode_compile_request(scop, config)
    path, scratch = tmp_path / "store.sqlite", tmp_path / "scratch.sqlite"

    def served_and_expected(session, client, origin):
        body = client._request("POST", "/v1/compile", payload)
        outcome = session.compile_with_origin(scop, config)
        assert outcome.origin == "memory"
        return body, encode_result(outcome.result, cache=origin, fingerprint=outcome.fingerprint)

    with serving(store=SqliteResultStore(scratch)) as (server, client):
        # A row this process wrote itself, read back from the store's front.
        session = server.service.session
        assert session.compile_with_origin(scop, config).origin == "miss"
        session.clear()
        for origin in ("store", "memory"):
            body, expected = served_and_expected(session, client, origin)
            assert body == expected

    with serving(store=SqliteResultStore(path)) as (server, client):
        session = server.service.session
        body, expected = served_and_expected(session, client, "miss")
        assert body == expected
        assert session.statistics["result_encodes"] == 1  # the store row; sent as it is
        body, expected = served_and_expected(session, client, "memory")
        assert body == expected
        # wire miss, in-process hit, wire hit, in-process hit: as the object path counts
        assert counters(session) == {
            "result_misses": 1, "result_hits": 3, "memory_hits": 3, "store_hits": 0,
            "store_puts": 1,
        }
        assert session.statistics["result_encodes"] == 1
        assert session.statistics["result_decodes"] == 0

    with serving(store=SqliteResultStore(path)) as (server, client):  # "after a restart"
        session = server.service.session
        body, expected = served_and_expected(session, client, "store")
        assert body == expected
        body, expected = served_and_expected(session, client, "memory")
        assert body == expected
        assert counters(session) == {
            "result_misses": 0, "result_hits": 4, "memory_hits": 3, "store_hits": 1,
            "store_puts": 0,
        }
        # The row was decoded once, to validate it; that object served the
        # in-process callers and nothing was ever encoded.
        assert session.statistics["result_decodes"] == 1
        assert session.statistics["result_encodes"] == 0


def test_a_hit_builds_no_object_no_dictionary_and_decodes_no_request(tmp_path, monkeypatch):
    payload = encode_compile_request(_kernels.build_gemm(6, 6, 6), pluto_style())
    with serving(store=SqliteResultStore(tmp_path / "store.sqlite")) as (server, client):
        assert client._request("POST", "/v1/compile", payload)["cache"] == "miss"
        calls: list[str] = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            CompilationResult, "to_dict", counting("to_dict", CompilationResult.to_dict)
        )
        monkeypatch.setattr(
            CompilationResult,
            "from_dict",
            classmethod(counting("from_dict", CompilationResult.from_dict.__func__)),
        )
        monkeypatch.setattr(
            server_module,
            "decode_compile_request",
            counting("decode_compile_request", server_module.decode_compile_request),
        )
        before = dict(server.service.session.statistics)
        for _ in range(5):
            assert client._request("POST", "/v1/compile", payload)["cache"] == "memory"
        assert calls == []
        after = server.service.session.statistics
        assert after["memory_hits"] == before["memory_hits"] + 5
        assert after["result_encodes"] == before["result_encodes"]
        assert after["result_decodes"] == before["result_decodes"]
        assert client.stats()["request_memo"] == {
            "hits": 5, "misses": 1, "evictions": 0, "entries": 1,
        }


def test_job_and_result_routes_serve_the_same_text(tmp_path):
    scop = _kernels.build_jacobi_1d(4, 10)
    with serving(store=SqliteResultStore(tmp_path / "store.sqlite")) as (server, client):
        compiled = client._request("POST", "/v1/compile", encode_compile_request(scop))
        job = client.submit(scop)
        polled = client.wait(job["id"])
        assert polled["result"] == compiled["result"]
        assert polled["job"]["cache"] == "memory" and "cache" not in polled
        fetched = client._request("GET", f"/v1/results/{compiled['fingerprint']}")
        assert fetched == {**compiled, "cache": "store"}
        encodes = server.service.session.statistics["result_encodes"]
        for _ in range(3):  # polling a finished job re-encodes nothing
            assert client.job(job["id"])["result"] == compiled["result"]
        assert server.service.session.statistics["result_encodes"] == encodes == 1


def test_a_session_without_a_store_keeps_the_text_on_its_entry():
    scop = _kernels.build_listing1()
    session = Session()
    first = session.compile_text(scop)
    assert first.origin == "miss" and first.address.fingerprint is None
    again = session.compile_text(scop)
    assert again.origin == "memory" and again.text is first.text
    assert session.statistics["result_encodes"] == 1
    assert json.loads(first.text) == session.compile(scop).to_dict()


def test_memory_store_hit_decodes_on_first_ask_only():
    scop, store = _kernels.build_listing1(), SqliteResultStore()
    Session(store=store).compile(scop)
    session = Session(store=store)
    served = session.compile_text(scop)
    assert served.origin == "store" and session.statistics["result_decodes"] == 0
    outcome = session.compile_with_origin(scop)
    assert outcome.origin == "memory" and outcome.result.to_json() == served.text
    assert session.compile(scop) is outcome.result
    assert session.statistics["result_decodes"] == 1


# --------------------------------------------------------------------------- #
# Nothing unchecked is served
# --------------------------------------------------------------------------- #
def _schema_one(text: str) -> str:
    document = json.loads(text)
    table = document.pop("dependence_table")
    document["dependences"] = [table[index] for index in document["dependences"]]
    document["scheduling"]["dependences"] = [
        table[index] for index in document["scheduling"]["dependences"]
    ]
    document["schema_version"] = 1
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize(
    "damage, mismatches",
    [
        (lambda text: ("{not json", RESULT_SCHEMA_VERSION), 0),
        (lambda text: (text.replace('"terms"', '"turms"'), RESULT_SCHEMA_VERSION), 0),
        (lambda text: (_schema_one(text), 1), 1),
        # ... and an old payload that the version column does not own up to.
        (lambda text: (_schema_one(text), RESULT_SCHEMA_VERSION), 0),
    ],
    ids=["not-json", "bad-field", "schema-1-row", "schema-1-payload"],
)
def test_bad_rows_reached_through_the_wire_are_a_miss_and_gone(tmp_path, damage, mismatches):
    scop, path = _kernels.build_gemm(6, 6, 6), tmp_path / "store.sqlite"
    with serving(store=SqliteResultStore(path)) as (_, client):
        first = client.compile(scop)
    connection = sqlite3.connect(path)
    (text,) = connection.execute("SELECT payload FROM results").fetchone()
    connection.execute("UPDATE results SET payload = ?, schema_version = ?", damage(text))
    connection.commit()
    connection.close()
    with serving(store=SqliteResultStore(path)) as (server, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.result(first.fingerprint)
        assert excinfo.value.code == "result_not_found"
        assert server.service.store.stats()["entries"] == 0  # evicted, not served
        assert server.service.store.stats()["schema_mismatches"] == mismatches
        again = client.compile(scop)
        assert again.cache == "miss" and again.fingerprint == first.fingerprint
        assert again.result.schedule == first.result.schedule
        assert client.result(first.fingerprint).result == again.result


def test_the_memo_sits_behind_authentication(tmp_path):
    auth = ServiceAuth({"writer": ("compile", "admin"), "reader": ("read",)})
    payload = encode_compile_request(_kernels.build_listing1())
    with serving(auth=auth) as (server, _):
        writer = ServiceClient(server.url, token="writer")
        assert writer._request("POST", "/v1/compile", payload)["cache"] == "miss"
        assert writer._request("POST", "/v1/compile", payload)["cache"] == "memory"
        for token, status in ((None, 401), ("stranger", 401), ("reader", 403)):
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(server.url, token=token)._request("POST", "/v1/compile", payload)
            assert excinfo.value.status == status
        assert writer.stats()["request_memo"]["hits"] == 1  # none of them reached it


# --------------------------------------------------------------------------- #
# The request memo
# --------------------------------------------------------------------------- #
def test_the_memo_is_bounded_and_an_evicted_body_is_still_answered(monkeypatch):
    monkeypatch.setattr(server_module, "REQUEST_MEMO_ENTRIES", 3)
    scop = _kernels.build_listing1()
    payloads = [
        encode_compile_request(scop, label=f"label-{index}") for index in range(4)
    ]
    with serving() as (server, client):
        for index, payload in enumerate(payloads):
            body = client._request("POST", "/v1/compile", payload)
            assert body["result"]["configuration"] == f"label-{index}"
        memo = client.stats()["request_memo"]
        assert memo == {"hits": 0, "misses": 4, "evictions": 1, "entries": 3}
        oldest = client._request("POST", "/v1/compile", payloads[0])  # decoded again
        assert oldest["cache"] == "memory"
        assert oldest["result"]["configuration"] == "label-0"
        newest = client._request("POST", "/v1/compile", payloads[3])
        assert newest["result"]["configuration"] == "label-3"
        memo = client.stats()["request_memo"]
        assert memo == {"hits": 1, "misses": 5, "evictions": 2, "entries": 3}
        # An address too large to be worth remembering is served, not recorded.
        long_label = encode_compile_request(scop, label="x" * 4096)
        for _ in range(2):
            body = client._request("POST", "/v1/compile", long_label)
            assert body["result"]["configuration"] == "x" * 4096
        assert client.stats()["request_memo"]["hits"] == 1


def test_identical_bodies_rekey_when_the_session_changes():
    payload = encode_compile_request(_kernels.build_jacobi_1d(4, 10))
    with serving(machine="Intel1") as (server, client):
        session = server.service.session
        plain = client._request("POST", "/v1/compile", payload)
        assert client._request("POST", "/v1/compile", payload)["cache"] == "memory"
        session.apply_wavefront_skewing = False
        unskewed = client._request("POST", "/v1/compile", payload)
        assert unskewed["cache"] == "miss"
        assert unskewed["result"]["schedule"] != plain["result"]["schedule"]
        assert client._request("POST", "/v1/compile", payload)["result"] == unskewed["result"]
        session.apply_wavefront_skewing = True
        assert client._request("POST", "/v1/compile", payload)["result"] == plain["result"]
        session.machine = None  # the default machine is part of the key too
        unmodelled = client._request("POST", "/v1/compile", payload)
        assert unmodelled["cache"] == "miss" and unmodelled["result"]["machine"] is None
        session.clear()  # a remembered address whose entry is gone
        assert client._request("POST", "/v1/compile", payload)["cache"] == "miss"


def test_another_label_on_a_stored_key_is_relabelled(tmp_path):
    scop, path = _kernels.build_jacobi_1d(4, 10), tmp_path / "store.sqlite"
    with serving(store=SqliteResultStore(path)) as (_, client):
        stored = client.compile(scop, label="first")
    with serving(store=SqliteResultStore(path)) as (server, client):
        other = client.compile(scop, label="second")
        assert other.cache == "store" and other.fingerprint == stored.fingerprint
        assert other.result.configuration == "second"
        assert other.result == stored.result.relabeled("second")
        assert client.compile(scop, label="second").cache == "memory"
        assert client.compile(scop, label="first").result == stored.result
        # One validating decode, one encode of the relabelled view; "first" is the row.
        assert server.service.session.statistics["result_decodes"] == 1
        assert server.service.session.statistics["result_encodes"] == 1


def test_memo_and_codec_counters_reach_metrics_and_the_access_log(capfd):
    payload = encode_compile_request(_kernels.build_listing1())
    with serving(access_log=True) as (server, client):
        client._request("POST", "/v1/compile", payload)
        client._request("POST", "/v1/compile", payload)
        connection = http.client.HTTPConnection(*server.address)
        connection.request("GET", "/v1/metrics")
        text = connection.getresponse().read().decode()
        connection.close()
    for line in (
        'repro_request_memo_events_total{event="hits"} 1',
        'repro_request_memo_events_total{event="misses"} 1',
        'repro_request_memo_events_total{event="evictions"} 0',
        "repro_request_memo_entries 1",
        'repro_session_events_total{event="result_encodes"} 1',
        'repro_session_events_total{event="result_decodes"} 0',
    ):
        assert line in text
    records = [json.loads(line) for line in capfd.readouterr().err.splitlines() if line.strip()]
    compiles = [record for record in records if record["route"] == "/v1/compile"]
    assert [(r["cache"], r["memo"]) for r in compiles] == [("miss", False), ("memory", True)]
    assert all("memo" not in r for r in records if r["route"] != "/v1/compile")


# --------------------------------------------------------------------------- #
# Codec: schema 2
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden_results() -> list[CompilationResult]:
    session = Session()
    return [
        session.compile(build_kernel(kernel), strategy())
        for kernel in GOLDEN_KERNELS
        for strategy in (pluto_style, isl_style)
    ]


def test_round_trip_restores_equality_and_sharing(golden_results):
    for result in golden_results:
        document = json.loads(result.to_json())
        assert len(document["dependence_table"]) == len(result.dependences)
        assert document["scheduling"]["dependences"] == [
            next(i for i, d in enumerate(result.dependences) if d is scheduled)
            for scheduled in result.scheduling.dependences
        ]
        decoded = CompilationResult.from_dict(document)
        assert decoded == result
        positions = {id(d): index for index, d in enumerate(decoded.dependences)}
        assert [positions[id(d)] for d in decoded.scheduling.dependences] == (
            document["scheduling"]["dependences"]
        )


def test_a_scheduling_dependence_outside_the_list_extends_the_table(golden_results):
    import dataclasses

    result = golden_results[0]
    stranger = dataclasses.replace(result.scheduling.dependences[0])
    scheduling = dataclasses.replace(
        result.scheduling, dependences=[*result.scheduling.dependences, stranger]
    )
    odd = dataclasses.replace(result, scheduling=scheduling)
    document = odd.to_dict()
    assert len(document["dependence_table"]) == len(result.dependences) + 1
    assert document["scheduling"]["dependences"][-1] == len(result.dependences)
    decoded = CompilationResult.from_dict(json.loads(json.dumps(document)))
    assert decoded == odd
    assert all(decoded.scheduling.dependences[-1] is not d for d in decoded.dependences)


@pytest.mark.parametrize("index", [-1, 10_000, True, 1.0, "0", None])
@pytest.mark.parametrize("where", ["dependences", "scheduling"])
def test_bad_table_indices_are_refused(golden_results, where, index):
    document = golden_results[0].to_dict()
    (document if where == "dependences" else document["scheduling"])["dependences"][0] = index
    with pytest.raises(SerializationError) as excinfo:
        CompilationResult.from_dict(document)
    assert excinfo.value.code == "bad_index"


_FRACTION_TEXT = st.one_of(
    st.from_regex(r"\s{0,2}[-+]{0,2}[0-9_٣５]{0,6}(/[-+]?[0-9_]{0,4})?\s{0,2}", fullmatch=True),
    st.from_regex(r"[-+]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][-+]?[0-9]{0,2})?", fullmatch=True),
    st.sampled_from(["", "1/3", "1e3", "1/0", "-0", "+7", "007", " 5", "5\n", "1_000", "_1", "٣", "²"]),
    st.text(max_size=6),
)


def _agrees_with_fraction(text: str) -> None:
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SerializationError) as excinfo:
            _decode_fraction(text)
        assert excinfo.value.code == "bad_fraction"
    else:
        decoded = _decode_fraction(text)
        assert type(decoded) is Fraction and decoded == expected


@settings(max_examples=400, deadline=None)
@given(_FRACTION_TEXT)
def test_decode_fraction_is_fraction_of_the_string(text):
    _agrees_with_fraction(text)


def test_decode_fraction_edges():
    _agrees_with_fraction("9" * 5000)  # past what int() converts, where that has a limit
    _agrees_with_fraction("-" + "0" * 50 + "17")
    for value in (True, False, None, [1], {}):
        with pytest.raises(SerializationError) as excinfo:
            _decode_fraction(value)
        assert excinfo.value.code == "bad_fraction"
    assert _decode_fraction(-12) == Fraction(-12)
    assert _decode_fraction(1.5) == Fraction(3, 2)


# --------------------------------------------------------------------------- #
# Transport
# --------------------------------------------------------------------------- #
def test_a_kept_alive_connection_does_not_stall():
    """Headers and body leave in one segment: two would cost a kept-alive
    client a delayed ACK — a deterministic 40 ms — on every request."""
    with serving() as (server, _):
        connection = http.client.HTTPConnection(*server.address)
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200 and json.loads(response.read())["status"] == "ok"
            samples.append(time.perf_counter() - start)
        connection.close()
    assert statistics.median(samples) < 0.020


def test_the_client_reconnects_once_after_a_server_restart():
    first = CompilationServer()
    first.start_in_thread()
    host, port = first.address
    client = ServiceClient(first.url)
    assert client.healthz()["status"] == "ok"
    kept = client._connection
    assert client.healthz()["status"] == "ok" and client._connection is kept
    first.shutdown()  # ends the kept connection too
    second = CompilationServer(host, port)
    second.start_in_thread()
    try:
        assert client.healthz()["status"] == "ok"  # one transparent reconnect
        assert client._connection is not kept
        kept = client._connection
        second.httpd.close_connections()  # closed by the server while idle
        assert client.healthz()["status"] == "ok"
        assert client._connection is not kept
    finally:
        second.shutdown()
    with pytest.raises(ServiceClientError) as excinfo:  # nobody to reconnect to
        client.healthz()
    assert (excinfo.value.status, excinfo.value.code) == (0, "unreachable")
    client.close()


@contextmanager
def stub_server(respond):
    """A one-thread TCP server that reads a request head and calls *respond*."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            with connection:
                connection.settimeout(2)
                try:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += connection.recv(4096)
                    respond(connection, stop)
                except OSError:
                    pass  # the client gave up first

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "respond, status, code",
    [
        (lambda connection, stop: stop.wait(1.0), 0, "timeout"),
        (
            lambda connection, stop: connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"status\": "
            ),
            0,
            "unreachable",
        ),
        (lambda connection, stop: None, 0, "unreachable"),
        (
            lambda connection, stop: connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!"
            ),
            200,
            "invalid_response",
        ),
        (
            lambda connection, stop: connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe"
            ),
            200,
            "invalid_response",
        ),
        (
            lambda connection, stop: connection.sendall(
                b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 5\r\n\r\n<html"
            ),
            502,
            "http_error",
        ),
    ],
    ids=["sleeps", "closes-mid-body", "closes-unanswered", "garbage", "not-utf8", "bare-502"],
)
def test_transport_failures_are_structured(respond, status, code):
    with stub_server(respond) as url:
        client = ServiceClient(url, timeout=0.3)
        with pytest.raises(ServiceClientError) as excinfo:
            client.healthz()
        assert (excinfo.value.status, excinfo.value.code) == (status, code)
        assert client._connection is None or code in ("invalid_response", "http_error")
        client.close()


def test_a_refused_connection_is_unreachable():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
    with pytest.raises(ServiceClientError) as excinfo:
        ServiceClient(f"http://127.0.0.1:{port}", timeout=1).healthz()
    assert (excinfo.value.status, excinfo.value.code) == (0, "unreachable")
