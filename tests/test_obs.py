"""Tests of the observability layer: tracer, metrics, exporters, wiring.

Covers the work ledger (nesting, isolation between threads, every engine
solve of a compile counted), span nesting and counter attachment, the
guaranteed-no-op disabled path, thread safety of one tracer under four threads
compiling at once, the Chrome-trace schema round trip (write → load →
identical records), the hard bit-identity contracts (schedules unchanged
tracing on/off; the ``scheduler.run`` span carries counters exactly equal to
``CompilationResult.solver_statistics``), per-compile isolation of the
counters (concurrent compiles never see each other's work), the metrics
registry with its Prometheus rendering, and the
service front door (``/v1/metrics``, capability checks, the opt-in access
log, per-request trace files).
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
import threading
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "_obs_test_kernels", Path(__file__).with_name("conftest.py")
)
_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_kernels)
build_gemm = _kernels.build_gemm
build_jacobi_1d = _kernels.build_jacobi_1d
build_listing1 = _kernels.build_listing1

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    activate,
    active_tracer,
    build_tree,
    count,
    ledger,
    load_chrome_trace,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.pipeline import CompilationJob, Session
from repro.service import CompilationServer, ServiceAuth, ServiceClient, ServiceClientError
from repro.suites.polybench import build_kernel


# --------------------------------------------------------------------------- #
# The work ledger
# --------------------------------------------------------------------------- #
class TestLedger:
    def test_scopes_nest_isolate_and_close_in_any_order(self):
        from repro.obs.ledger import close_scope, open_scope

        count("pivots", 3)  # no scope open: a no-op, not an error
        with ledger() as outer:
            count("pivots", 2)
            with ledger() as inner:
                count("pivots", 5)
                count("seconds", 0.5)
                # Both scopes see a count at once, not when the inner closes.
                assert (outer["pivots"], inner["pivots"]) == (7, 5)
                seen_elsewhere: list[dict] = []

                def elsewhere() -> None:
                    count("pivots", 100)  # no scope open on this thread
                    with ledger() as work:
                        count("pivots", 1)
                    seen_elsewhere.append(work)

                thread = threading.Thread(target=elsewhere)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert seen_elsewhere == [{"pivots": 1}]
            count("pivots", 1)
            assert inner == {"pivots": 5, "seconds": 0.5}
        assert outer == {"pivots": 8, "seconds": 0.5}
        # Closing out of order removes exactly the scope that closed.
        first, second, third = {}, {}, {}
        for work in (first, second, third):
            open_scope(work)
        close_scope(second)
        count("x")
        close_scope(first)
        count("x")
        close_scope(third)
        close_scope(third)  # closing twice is harmless
        count("x")
        assert (first, second, third) == ({"x": 1}, {}, {"x": 2})

    def test_a_span_is_a_scope_and_a_disabled_span_is_not(self):
        tracer = Tracer()
        with ledger() as work, tracer.span("outer", category="t", size=3) as outer:
            with tracer.span("inner", category="t"):
                count("pivots", 4)
            count("pivots", 1)
            assert outer.counters == {"size": 3, "pivots": 5}
            with NULL_TRACER.span("ignored") as ignored:
                count("pivots", 2)
            assert ignored.counters == {}
        records = {record.name: record.counters for record in tracer.records}
        assert records == {"inner": {"pivots": 4}, "outer": {"size": 3, "pivots": 7}}
        assert work == {"pivots": 7}
        count("pivots")  # the spans closed their scopes
        assert records["outer"]["pivots"] == 7

    @pytest.mark.parametrize("kernel", ["gemm", "cholesky", "jacobi-2d"])
    def test_every_engine_solve_of_a_compile_is_counted(self, kernel, monkeypatch):
        """The checker: what the engine executed is what the ledger was told.

        Every entry into the engine of a whole compile —
        ``IncrementalIlpEngine.solve`` for the scheduler's ILPs, ``probe`` for
        every emptiness probe of dependence analysis, the scheduler's
        bookkeeping, post-processing and the legality check — lands under
        ``solves`` or ``probe_solves``, with its pivots, and each is on
        exactly one ``ilp.solve`` or ``emptiness.probe`` span.  So does every
        root build (``roots`` / ``probe_roots``), its phase-1 pivots on the
        span of the solve or probe that built it.
        """
        from repro.ilp.engine import IncrementalIlpEngine

        executed = {"solve": 0, "probe": 0, "pivots": 0}
        built: list[int] = []  # the phase-1 pivots of every root, in build order
        original = {
            name: getattr(IncrementalIlpEngine, name)
            for name in ("solve", "probe", "_build_root")
        }

        def solving(engine):
            before = engine.stats.pivots
            try:
                return original["solve"](engine)
            finally:
                executed["solve"] += 1
                executed["pivots"] += engine.stats.pivots - before

        def probing(engine, extra=()):
            try:
                return original["probe"](engine, extra)
            finally:
                # After a probe, an engine's statistics are that probe's work.
                executed["probe"] += 1
                executed["pivots"] += engine.stats.pivots

        def building(engine):
            before = engine.stats.phase1_pivots
            try:
                return original["_build_root"](engine)
            finally:
                built.append(engine.stats.phase1_pivots - before)

        monkeypatch.setattr(IncrementalIlpEngine, "solve", solving)
        monkeypatch.setattr(IncrementalIlpEngine, "probe", probing)
        monkeypatch.setattr(IncrementalIlpEngine, "_build_root", building)
        tracer = Tracer()
        with ledger() as work:
            result = Session(machine="Intel1", tracer=tracer).compile(build_kernel(kernel))
        assert result.legal and not result.failed
        assert work["solves"] > 0 and work["probe_solves"] > work["solves"]
        assert (executed["solve"], executed["probe"]) == (work["solves"], work["probe_solves"])
        assert executed["pivots"] == work["pivots"] + work["probe_pivots"]
        # A scheduling solve builds its own root; a probe at most one.
        assert work["roots"] == work["solves"]
        assert len(built) == work["roots"] + work["probe_roots"]
        assert work["probe_roots"] < work["probe_solves"]
        # The scheduler's own share is what the result reports...
        statistics = result.solver_statistics
        assert (work["solves"], work["pivots"]) == (statistics["solves"], statistics["pivots"])
        assert 0 < statistics["probe_solves"] < work["probe_solves"]
        assert 0 < statistics["probe_roots"] <= statistics["dependences"]
        assert re.search(
            rf"probes: {statistics['probe_solves']} solves \({statistics['probe_roots']} "
            rf"roots\), {statistics['probe_pivots']} pivots",
            next(note for note in result.diagnostics if note.startswith("ilp: ")),
        )
        # ... and the leaf spans partition the same totals.
        solves = [r.counters for r in tracer.records if r.name == "ilp.solve"]
        probes = [r.counters for r in tracer.records if r.name == "emptiness.probe"]
        assert all(span["solves"] == span["roots"] == 1 for span in solves)
        assert all(span["probe_solves"] == 1 for span in probes)
        assert all(span["probe_roots"] in (0, 1) for span in probes)
        assert (len(solves), len(probes)) == (work["solves"], work["probe_solves"])
        assert sum(span["pivots"] for span in solves) == work["pivots"]
        assert sum(span["probe_pivots"] for span in probes) == work["probe_pivots"]
        assert sum(span["probe_roots"] for span in probes) == work["probe_roots"]
        # Leaves never nest, so the spans that built a root close in build order.
        assert built == [
            r.counters["phase1_pivots" if r.name == "ilp.solve" else "probe_phase1_pivots"]
            for r in tracer.records
            if (r.name, r.counters.get("roots", r.counters.get("probe_roots")))
            in (("ilp.solve", 1), ("emptiness.probe", 1))
        ]
        (root,) = [r.counters for r in tracer.records if r.name == "pipeline.compile"]
        assert {k: root[k] for k in work} == work


# --------------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer", category="t"):
            with tracer.span("inner", category="t"):
                pass
        records = {record.name: record for record in tracer.records}
        assert records["outer"].parent_id is None
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["inner"].start_ns >= records["outer"].start_ns
        assert records["inner"].duration_ns <= records["outer"].duration_ns

    def test_counter_attachment(self):
        tracer = Tracer()
        with tracer.span("work", category="t", size=3) as span:
            span.add("items")
            span.add("items", 4)
            span.set("flag", True)
            span.update({"pivots": 17})
        (record,) = tracer.records
        assert record.counters == {"size": 3, "items": 5, "flag": True, "pivots": 17}

    def test_records_are_immutable_snapshots(self):
        tracer = Tracer()
        with tracer.span("a", category="t"):
            pass
        records = tracer.records
        tracer.clear()
        assert len(records) == 1 and tracer.records == []

    def test_disabled_tracer_is_a_no_op(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything", category="t", extra=1)
        with span as entered:
            entered.add("x")
            entered.set("y", 2)
        assert NULL_TRACER.records == []
        # The null span is one shared singleton: nothing is allocated per call.
        assert NULL_TRACER.span("other") is span

    def test_activation_is_scoped(self):
        tracer = Tracer()
        assert active_tracer() is NULL_TRACER
        with activate(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is NULL_TRACER

    def test_thread_safety_of_one_tracer(self):
        tracer = Tracer()

        def worker(index: int) -> None:
            for _ in range(50):
                with tracer.span("outer", category="t", worker=index):
                    with tracer.span("inner", category="t", worker=index):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = tracer.records
        assert len(records) == 4 * 50 * 2
        by_id = {record.span_id: record for record in records}
        for record in records:
            if record.name == "inner":
                parent = by_id[record.parent_id]
                # Nesting is per thread: a span's parent lives on its thread.
                assert parent.name == "outer"
                assert parent.thread_id == record.thread_id
                assert parent.counters["worker"] == record.counters["worker"]


# --------------------------------------------------------------------------- #
# Chrome-trace export
# --------------------------------------------------------------------------- #
class TestChromeTrace:
    def _traced_tracer(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("outer", category="t", pivots=3):
            with tracer.span("inner", category="t"):
                pass
        return tracer

    def test_document_schema(self):
        document = to_chrome_trace(self._traced_tracer())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert metadata and all(e["name"] == "thread_name" for e in metadata)

    def test_round_trip_preserves_records(self, tmp_path):
        tracer = self._traced_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        loaded = load_chrome_trace(path)
        originals = sorted(tracer.records, key=lambda r: r.span_id)
        assert len(loaded) == len(originals)
        for original, recovered in zip(originals, loaded):
            assert recovered.name == original.name
            assert recovered.category == original.category
            assert recovered.span_id == original.span_id
            assert recovered.parent_id == original.parent_id
            assert recovered.counters == original.counters
            # Timestamps survive at the export's microsecond granularity.
            assert abs(recovered.start_ns - original.start_ns) < 1000
            assert abs(recovered.duration_ns - original.duration_ns) < 2000

    def test_summaries_and_tree(self):
        tracer = self._traced_tracer()
        (root,) = build_tree(tracer.records)
        assert root.record.name == "outer" and len(root.children) == 1
        summary = summarize(tracer.records)
        assert summary["outer"]["count"] == 1
        assert summary["outer"]["counters"] == {"pivots": 3}
        assert summary["outer"]["self_ns"] + summary["inner"]["wall_ns"] == summary[
            "outer"
        ]["wall_ns"]

    def test_report_cli(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._traced_tracer(), path)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out

    def test_summary_cli_names_a_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.json"
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["summary", str(missing)])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert str(missing) in message and "Chrome-trace JSON" in message
        assert "Traceback" not in message

    def test_report_cli_names_a_file_that_is_not_a_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        other = tmp_path / "other.json"
        other.write_text('{"wire_version": 1}')
        for path in (empty, other):
            with pytest.raises(SystemExit) as excinfo:
                obs_main(["report", str(path)])
            assert excinfo.value.code == 2
            message = capsys.readouterr().err.splitlines()[-1]
            assert str(path) in message and "Chrome-trace JSON" in message


# --------------------------------------------------------------------------- #
# Pipeline integration: the hard bit-identity contracts
# --------------------------------------------------------------------------- #
class TestPipelineTracing:
    def test_trace_covers_every_layer(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        session.compile(build_gemm(8, 8, 8))
        names = {record.name for record in tracer.records}
        assert {
            "pipeline.compile",
            "stage.schedule",
            "scheduler.run",
            "scheduler.dimension",
            "ilp.solve",
            "fm.farkas",
        } <= names

    def test_evaluate_stage_is_attributed_to_lower_scan_and_cache(self):
        tracer = Tracer()
        result = Session(machine="Intel1", tracer=tracer).compile(build_gemm(8, 8, 8))
        records = {record.span_id: record for record in tracer.records}
        (stage,) = [r for r in records.values() if r.name == "stage.evaluate"]

        def under_stage(record):
            while record.parent_id is not None:
                record = records[record.parent_id]
                if record is stage:
                    return True
            return False

        (lower,) = [r for r in records.values() if r.name == "evaluate.lower"]
        (scan,) = [r for r in records.values() if r.name == "evaluate.scan"]
        caches = [r for r in records.values() if r.name == "evaluate.cache"]
        assert all(under_stage(record) for record in (lower, scan, *caches))
        assert all(records[r.parent_id] is scan for r in caches)
        assert scan.counters["instances"] == result.report.instances == 8 * 8 + 8 * 8 * 8
        assert scan.counters["guard_failures"] == 0
        accesses = sum(r.counters["accesses"] for r in caches)
        assert accesses == result.report.cache_statistics["accesses"] > 0

    def test_run_span_counters_equal_solver_statistics(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        result = session.compile(build_gemm(8, 8, 8))
        (run,) = [r for r in tracer.records if r.name == "scheduler.run"]
        assert run.counters["kernel"] == "gemm"
        counters = {k: v for k, v in run.counters.items() if k != "kernel"}
        statistics = result.solver_statistics
        # The span is a scope around the scheduler's own: the same counts in
        # the same order, floats included.  What the span lacks is what the
        # scheduler states rather than counts, and names nothing counted under.
        assert counters == {name: statistics[name] for name in counters}
        uncounted = statistics.keys() - counters.keys()
        assert {"dimensions", "dependences"} <= uncounted
        assert all(statistics[k] == 0 for k in uncounted - {"dimensions", "dependences"})

    def test_ilp_spans_sum_to_engine_totals(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        result = session.compile(build_gemm(8, 8, 8))
        solves = [r for r in tracer.records if r.name == "ilp.solve"]
        statistics = result.solver_statistics
        assert len(solves) == statistics["solve_calls"]
        # Each solve flushed its own EngineStatistics under its span: every
        # engine counter of the run is the sum over the spans, by construction.
        from repro.ilp.engine import EngineStatistics

        for counter in EngineStatistics().as_dict():
            assert sum(r.counters[counter] for r in solves) == pytest.approx(
                statistics[counter]
            ), counter
        # The leaf times reach the diagnostic line.  Appended rows border the
        # eta file, so a compile may re-invert no basis at all: refactor time
        # is spent exactly when a refactorisation is counted.
        for leaf in ("ftran_seconds", "btran_seconds"):
            assert 0.0 < statistics[leaf] < statistics["solve_seconds"]
        assert statistics["refactor_seconds"] < statistics["solve_seconds"]
        assert (statistics["refactor_seconds"] > 0) == (statistics["refactorizations"] > 0)
        (line,) = [note for note in result.diagnostics if note.startswith("ilp: ")]
        assert re.search(r"solve [\d.]+ms \(ftran \d+% btran \d+% refactor \d+%\)", line)

    def test_schedules_identical_tracing_on_and_off(self):
        plain = Session().compile(build_jacobi_1d())
        traced = Session(tracer=Tracer()).compile(build_jacobi_1d())
        assert str(traced.schedule) == str(plain.schedule)
        deterministic = lambda stats: {
            k: v for k, v in stats.items() if not k.endswith("_seconds")
        }
        assert deterministic(traced.solver_statistics) == deterministic(
            plain.solver_statistics
        )

    def test_compile_trace_argument_writes_perfetto_file(self, tmp_path):
        path = tmp_path / "one.json"
        Session().compile(build_listing1(), trace=str(path))
        records = load_chrome_trace(path)
        assert {"pipeline.compile", "scheduler.run"} <= {r.name for r in records}

    def test_the_environment_starts_no_tracer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.json"))
        session = Session()
        session.compile(build_listing1())
        assert session.tracer is NULL_TRACER and not list(tmp_path.iterdir())
        with pytest.raises(TypeError, match="stage_observer"):
            Session(stage_observer=lambda *args: None)

    def test_compile_many_parallel_nests_spans_per_compile(self, compile_on_threads):
        tracer = Tracer()
        session = Session(tracer=tracer)
        jobs = [CompilationJob(scop=build_gemm(n, n, n)) for n in (6, 7, 8, 9)]
        compile_on_threads(session, jobs, threads=4)
        records = tracer.records
        roots = [r for r in records if r.name == "pipeline.compile"]
        assert len(roots) == 4
        by_id = {r.span_id: r for r in records}
        # Every non-root span chains up to the pipeline.compile of its own
        # thread — concurrent compiles never adopt each other's spans.
        for record in records:
            if record.parent_id is None:
                assert record.name == "pipeline.compile"
                continue
            cursor = record
            while cursor.parent_id is not None:
                parent = by_id[cursor.parent_id]
                assert parent.thread_id == record.thread_id
                cursor = parent
            assert cursor.name == "pipeline.compile"


# --------------------------------------------------------------------------- #
# Per-compile counters (the FM_STATS race regression)
# --------------------------------------------------------------------------- #
class TestFmStatisticsIsolation:
    def test_concurrent_compiles_report_exact_per_result_fm_counters(self, compile_on_threads):
        # Four different kernels: compiles of one kernel share its dependences,
        # and a Farkas block the dependence remembers counts for the run that
        # linearised it only.  The scheduler's own emptiness probes (the
        # ``probe_*`` family) are counted through the same context-local
        # ledger and must stay as private to their compile.
        kernels = ("gemm", "atax", "trisolv", "gesummv")
        families = ("fm_", "probe_")
        sequential = {}
        for kernel in kernels:
            result = Session().compile(build_kernel(kernel))
            sequential[kernel] = {
                k: v for k, v in result.solver_statistics.items() if k.startswith(families)
            }
        assert all(stats["fm_rows_generated"] > 0 for stats in sequential.values())
        assert all(stats["probe_pivots"] > 0 for stats in sequential.values())
        session = Session()
        jobs = [CompilationJob(scop=build_kernel(kernel)) for kernel in kernels]
        results = compile_on_threads(session, jobs, threads=4)
        for kernel, result in zip(kernels, results):
            concurrent = {
                k: v for k, v in result.solver_statistics.items() if k.startswith(families)
            }
            assert concurrent.keys() == sequential[kernel].keys()
            for key, value in sequential[kernel].items():
                if key.endswith("_seconds"):
                    continue  # wall time is the one legitimately noisy counter
                assert concurrent[key] == value, (kernel, key)


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counters_are_exact_and_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)

    @pytest.mark.parametrize("amount", [0.5, 2.7, float("inf"), float("nan")])
    def test_a_counter_refuses_a_fraction_instead_of_truncating_it(self, amount):
        counter = MetricsRegistry().counter("events_total")
        counter.inc(2.0)  # integral: counted exactly
        with pytest.raises(ValueError):
            counter.inc(amount)
        assert counter.value == 2 and isinstance(counter.value, int)

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labels_and_prometheus_rendering(self):
        registry = MetricsRegistry()
        requests = registry.counter("req_total", "requests")
        requests.labels(route="/v1/compile", status="200").inc(3)
        registry.gauge("uptime_seconds", "uptime").set(1.5)
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        histogram.labels(route="/v1/compile").observe(0.05)
        histogram.labels(route="/v1/compile").observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="/v1/compile",status="200"} 3' in text
        assert "uptime_seconds 1.5" in text
        assert 'latency_seconds_bucket{route="/v1/compile",le="0.1"} 1' in text
        assert 'latency_seconds_bucket{route="/v1/compile",le="+Inf"} 2' in text
        assert 'latency_seconds_count{route="/v1/compile"} 2' in text


# --------------------------------------------------------------------------- #
# Service integration: /v1/metrics, spans, traces, access log
# --------------------------------------------------------------------------- #
@pytest.fixture
def server():
    instance = CompilationServer()
    instance.start_in_thread()
    yield instance
    instance.shutdown()


class TestServiceObservability:
    def test_metrics_endpoint_serves_prometheus_text(self, server):
        client = ServiceClient(server.url)
        client.compile(build_gemm(6, 6, 6))
        client.compile(build_gemm(6, 6, 6))
        import urllib.request

        with urllib.request.urlopen(server.url + "/v1/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert 'repro_compiles_total{origin="miss"} 1' in text
        assert 'repro_compiles_total{origin="memory"} 1' in text
        assert 'repro_requests_total{route="/v1/compile",status="200"} 2' in text
        assert "repro_request_seconds_bucket" in text
        assert 'repro_session_events_total{event="dependence_misses"} 1' in text

    def test_metrics_requires_read_capability(self):
        auth = ServiceAuth({"writer": "compile", "reader": "read"})
        server = CompilationServer(auth=auth)
        server.start_in_thread()
        try:
            with pytest.raises(ServiceClientError) as unauthorized:
                ServiceClient(server.url).stats()  # no token at all -> 401
            assert unauthorized.value.status == 401
            import urllib.error
            import urllib.request

            request = urllib.request.Request(
                server.url + "/v1/metrics", headers={"X-API-Token": "writer"}
            )
            with pytest.raises(urllib.error.HTTPError) as forbidden:
                urllib.request.urlopen(request)
            assert forbidden.value.code == 403
            request = urllib.request.Request(
                server.url + "/v1/metrics", headers={"X-API-Token": "reader"}
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
        finally:
            server.shutdown()

    def test_request_and_job_spans_carry_cache_origin(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        server = CompilationServer(session=session)
        server.start_in_thread()
        try:
            client = ServiceClient(server.url)
            client.compile(build_gemm(6, 6, 6))
            client.compile(build_gemm(6, 6, 6))
            job = client.submit(build_gemm(6, 6, 6))
            client.wait(job["id"])
        finally:
            server.shutdown()
        requests = [r for r in tracer.records if r.name == "service.request"]
        compile_spans = [
            r for r in requests if r.counters.get("route") == "/v1/compile"
        ]
        assert [r.counters["cache"] for r in compile_spans] == ["miss", "memory"]
        assert all(r.counters["status"] == 200 for r in compile_spans)
        jobs = [r for r in tracer.records if r.name == "service.job"]
        assert len(jobs) == 1 and jobs[0].counters["cache"] == "memory"

    def test_trace_dir_writes_one_file_per_compiled_request(self, tmp_path):
        trace_dir = tmp_path / "traces"
        server = CompilationServer(trace_dir=str(trace_dir))
        server.start_in_thread()
        try:
            client = ServiceClient(server.url)
            client.compile(build_gemm(6, 6, 6))
            client.compile(build_gemm(6, 6, 6))  # memory hit: no new file
        finally:
            server.shutdown()
        files = sorted(trace_dir.glob("*.json"))
        assert len(files) == 1
        assert {"pipeline.compile", "scheduler.run"} <= {
            r.name for r in load_chrome_trace(files[0])
        }

    def test_access_log_is_opt_in(self, capfd):
        server = CompilationServer()  # default: off
        server.start_in_thread()
        try:
            ServiceClient(server.url).healthz()
        finally:
            server.shutdown()
        assert capfd.readouterr().err == ""
        server = CompilationServer(access_log=True)
        server.start_in_thread()
        try:
            ServiceClient(server.url).healthz()
        finally:
            server.shutdown()
        lines = [line for line in capfd.readouterr().err.splitlines() if line.strip()]
        record = json.loads(lines[-1])
        assert record["method"] == "GET"
        assert record["route"] == "/v1/healthz"
        assert record["status"] == 200
        assert record["duration_ms"] >= 0


# --------------------------------------------------------------------------- #
# One counting substrate: /v1/stats and /v1/metrics read the same counters
# --------------------------------------------------------------------------- #
_ORIGINS = {"memory_hits": "memory", "store_hits": "store", "result_misses": "miss"}
_JOB_EVENTS = {"submitted": "submitted", "completed": "done", "failed": "failed"}
#: What ``store.stats()`` reports besides its counters (settings and state).
_STORE_SETTINGS = {
    "backend", "path", "entries", "lru_entries", "memory_entries", "default_ttl",
    "schema_version",
}
_STATE_GAUGES = {
    "repro_jobs_current", "repro_session_cached_results", "repro_request_memo_entries",
    "repro_uptime_seconds",
}


def _scrape(server) -> tuple[dict[str, float], dict[str, str]]:
    """``/v1/metrics`` as ``{series: value}`` and ``{family: type}``."""
    import urllib.request

    with urllib.request.urlopen(server.url + "/v1/metrics") as response:
        text = response.read().decode()
    samples, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:]
            assert name not in types, f"{name} is rendered twice"
            types[name] = kind
        elif not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples, types


def _series_of(stats: dict) -> dict[str, int]:
    """Every counter of a ``/v1/stats`` document under the series exporting it."""
    session = stats["session"]
    assert session["result_hits"] == session["memory_hits"] + session["store_hits"]
    series = {"repro_session_cached_results": stats["cached_results"]}
    for name, value in session.items():
        if name in _ORIGINS:
            series[f'repro_compiles_total{{origin="{_ORIGINS[name]}"}}'] = value
        elif name != "result_hits":
            series[f'repro_session_events_total{{event="{name}"}}'] = value
    for name, value in stats["store"].items():
        if name not in _STORE_SETTINGS:
            series[f'repro_store_events_total{{event="{name}"}}'] = value
    for name, value in stats["request_memo"].items():
        if name == "entries":
            series["repro_request_memo_entries"] = value
        else:
            series[f'repro_request_memo_events_total{{event="{name}"}}'] = value
    for name, value in stats["jobs"].items():
        if name == "states":
            for state, count in value.items():
                series[f'repro_jobs_current{{state="{state}"}}'] = count
        else:
            series[f'repro_jobs_total{{state="{_JOB_EVENTS[name]}"}}'] = value
    return series


class TestOneCountingSubstrate:
    def test_every_stats_counter_is_its_metrics_sample(self, tmp_path):
        import dataclasses

        from repro.ilp import SolverOptions
        from repro.scheduler.strategies import pluto_style
        from repro.service import SqliteResultStore
        from repro.suites.polybench.solvers import trisolv

        tiny = dataclasses.replace(pluto_style(), solver_options=SolverOptions(node_limit=1))
        server = CompilationServer(store=SqliteResultStore(tmp_path / "store.sqlite"))
        server.start_in_thread()
        try:
            client, scop = ServiceClient(server.url), build_gemm(6, 6, 6)
            first = client.compile(scop)  # a miss, stored
            assert client.compile(scop).cache == "memory"  # through the request memo
            server.service.session.clear()
            assert client.compile(scop, label="again").cache == "store"
            client.result(first.fingerprint)  # a store read outside the session
            client.wait(client.submit(scop)["id"])
            with pytest.raises(ServiceClientError):
                client.wait(client.submit(trisolv(6), tiny)["id"])
            samples, types = _scrape(server)
            stats = client.stats()
        finally:
            server.shutdown()
        series = _series_of(stats)
        assert {name: samples.get(name) for name in series} == series
        assert stats["jobs"]["failed"] == 1 and stats["store"]["lru_hits"] == 2
        # Counters are counters, and only the state read at scrape time is a gauge.
        counters = {name for name, kind in types.items() if kind == "counter"}
        assert counters == {name for name in types if name.endswith("_total")}
        assert {name for name, kind in types.items() if kind == "gauge"} == _STATE_GAUGES

    def test_counting_is_exact_under_threads(self, compile_on_threads):
        from repro.service import encode_compile_request

        scop, threads, each = build_listing1(), 4, 50
        body = encode_compile_request(scop)
        server = CompilationServer()
        server.start_in_thread()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to lose an update
        try:
            assert ServiceClient(server.url)._request("POST", "/v1/compile", body)["cache"] == "miss"
            answers: list[str] = []

            def post():
                client = ServiceClient(server.url)
                for _ in range(each):
                    answers.append(client._request("POST", "/v1/compile", body)["cache"])
                client.close()

            wire = [threading.Thread(target=post) for _ in range(threads)]
            for thread in wire:
                thread.start()
            compile_on_threads(server.service.session, [scop] * (threads * each), threads)
            for thread in wire:
                thread.join(timeout=300)
            assert answers == ["memory"] * (threads * each)
            assert not any(thread.is_alive() for thread in wire)
            stats = ServiceClient(server.url).stats()
            samples, _ = _scrape(server)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        assert stats["session"]["memory_hits"] == 2 * threads * each
        assert stats["session"]["result_misses"] == 1
        assert stats["request_memo"]["hits"] == threads * each
        assert samples['repro_compiles_total{origin="memory"}'] == 2 * threads * each
        assert samples['repro_request_memo_events_total{event="hits"}'] == threads * each
