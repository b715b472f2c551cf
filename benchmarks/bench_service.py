"""Benchmark of the compilation service: throughput and cache latencies.

Runs a real :class:`repro.service.CompilationServer` (stdlib HTTP, SQLite
result store) and drives it over the wire with :class:`ServiceClient`:

* **cold pass** — every corpus kernel compiled once against a fresh store
  (cache ``"miss"``: the full pipeline runs, the result is stored);
* **warm-memory pass** — the same compiles against the same server (cache
  ``"memory"``: answered from the session cache);
* **warm-store pass** — the server is restarted on the same store file and
  the compiles repeated (cache ``"store"``: answered bit-identically from
  SQLite without invoking the scheduler — the cross-process acceptance
  property, checked per kernel and counted in ``mismatches``);
* **healthz pass** — raw transport round trips, for the requests/sec floor.

Wall-clock numbers (latencies, requests/sec) are machine-dependent and
informational.  The cache counters are deterministic for a fixed corpus —
``store_hits``/``memory_hits`` must not drop and ``store_misses``/
``scheduler_runs`` must not grow — and are gated in CI via
``benchmarks/perf_gate.py --service-report``.  So is what a hit costs the
server, counted per warm pass and gated exactly: a warm-memory hit encodes no
result, decodes no result and decodes no request; a warm-store first touch
decodes its row once (to validate it) and its request once.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
        [--output BENCH_service.json] [--update-baseline]

``--update-baseline`` refreshes the ``"service"`` section of
``benchmarks/baselines/solver_baseline.json`` from this run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: make `import repro` resolvable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "solver_baseline.json"

#: Small, fast-to-evaluate PolyBench kernels: the bench measures the service
#: layers (wire, store, HTTP), not the scheduler, so the corpus stays cheap.
QUICK_KERNELS = ("gemm", "atax", "bicg")
FULL_EXTRA_KERNELS = ("mvt", "gesummv", "trisolv")

#: The deterministic counters the perf gate compares.  Direction matters:
#: hits regress *downward* (a cache stopped answering), misses and scheduler
#: invocations regress *upward* (work the caches used to absorb came back).
GATED_LOWER_IS_BETTER = ("store_misses", "scheduler_runs")
GATED_HIGHER_IS_BETTER = ("store_hits", "memory_hits", "store_puts")
#: Work of the hit path (result encodes/decodes, request decodes) per warm pass.
HIT_PATH_WORK = ("result_encodes", "result_decodes", "request_decodes")
GATED_EXACT = tuple(
    f"{phase}_{name}" for phase in ("warm_memory", "warm_store") for name in HIT_PATH_WORK
)

HEALTHZ_REQUESTS = 50


def _latency_stats(samples: list[float]) -> dict:
    return {
        "mean_ms": statistics.fmean(samples) * 1e3,
        "p50_ms": statistics.median(samples) * 1e3,
        "max_ms": max(samples) * 1e3,
    }


def _timed_compiles(client, kernels, config, expect_cache: str) -> tuple[dict, dict, int]:
    """Compile every kernel once; returns (schedules, latencies, wrong_cache)."""
    schedules: dict[str, dict] = {}
    samples: list[float] = []
    wrong_cache = 0
    from repro.suites.polybench import build_kernel

    for kernel in kernels:
        scop = build_kernel(kernel)
        started = time.perf_counter()
        response = client.compile(scop, config, machine="Intel1")
        samples.append(time.perf_counter() - started)
        if response.cache != expect_cache:
            wrong_cache += 1
        schedules[kernel] = response.result.to_dict()["schedule"]
    return schedules, _latency_stats(samples), wrong_cache


def _hit_path_work(service) -> dict:
    """Running totals of the work a hit is supposed to skip."""
    return {
        "result_encodes": service.session.statistics["result_encodes"],
        "result_decodes": service.session.statistics["result_decodes"],
        # Every body the request memo does not recognise is decoded in full.
        "request_decodes": service.request_memo.stats()["misses"],
    }


def run_benchmark(kernels: tuple[str, ...]) -> dict:
    from repro.scheduler.strategies import pluto_style
    from repro.service import CompilationServer, ServiceClient, SqliteResultStore

    store_path = Path(tempfile.mkdtemp(prefix="repro-bench-service-")) / "results.sqlite"
    config = pluto_style()
    report: dict = {"kernels": list(kernels), "mismatches": 0}

    # Cold + warm-memory passes against the first server life.
    server = CompilationServer(store=SqliteResultStore(store_path), machine="Intel1")
    server.start_in_thread()
    client = ServiceClient(server.url)
    cold_schedules, cold_latency, cold_wrong = _timed_compiles(client, kernels, config, "miss")
    after_cold = _hit_path_work(server.service)
    warm_schedules, memory_latency, memory_wrong = _timed_compiles(
        client, kernels, config, "memory"
    )
    after_memory = _hit_path_work(server.service)
    first_session = dict(server.service.session.statistics)
    server.shutdown()

    # Warm-store pass: a new server process-equivalent on the same store file.
    server = CompilationServer(store=SqliteResultStore(store_path), machine="Intel1")
    server.start_in_thread()
    client = ServiceClient(server.url)
    store_schedules, store_latency, store_wrong = _timed_compiles(
        client, kernels, config, "store"
    )
    after_store = _hit_path_work(server.service)

    # Transport floor: healthz round trips.
    started = time.perf_counter()
    for _ in range(HEALTHZ_REQUESTS):
        client.healthz()
    healthz_seconds = time.perf_counter() - started
    second_session = dict(server.service.session.statistics)
    server.shutdown()

    for kernel in kernels:
        if (
            warm_schedules[kernel] != cold_schedules[kernel]
            or store_schedules[kernel] != cold_schedules[kernel]
        ):
            report["mismatches"] += 1
    report["wrong_cache_origins"] = cold_wrong + memory_wrong + store_wrong

    report["latency"] = {
        "cold": cold_latency,
        "warm_memory": memory_latency,
        "warm_store": store_latency,
    }
    report["requests_per_second"] = {
        "healthz": HEALTHZ_REQUESTS / healthz_seconds,
        "warm_memory_compile": 1e3 / memory_latency["mean_ms"],
        "warm_store_compile": 1e3 / store_latency["mean_ms"],
    }
    # Deterministic for a fixed corpus: pass one misses and stores every
    # kernel, pass two hits session memory, pass three hits the SQLite store;
    # the scheduler runs exactly once per kernel across all three passes.
    report["service_statistics"] = {
        "compiles": 3 * len(kernels),
        "memory_hits": first_session["memory_hits"] + second_session["memory_hits"],
        "store_hits": first_session["store_hits"] + second_session["store_hits"],
        "store_misses": first_session["store_misses"] + second_session["store_misses"],
        "store_puts": first_session["store_puts"] + second_session["store_puts"],
        "store_skips": first_session["store_skips"] + second_session["store_skips"],
        "scheduler_runs": first_session["result_misses"] + second_session["result_misses"],
        **{f"warm_memory_{name}": after_memory[name] - after_cold[name] for name in HIT_PATH_WORK},
        **{f"warm_store_{name}": after_store[name] for name in HIT_PATH_WORK},
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="quick corpus (CI default)")
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="refresh the 'service' section of the committed solver baseline",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    from bench_solver import machine_info  # noqa: E402  (sibling script)

    kernels = QUICK_KERNELS if args.quick else QUICK_KERNELS + FULL_EXTRA_KERNELS
    report = run_benchmark(kernels)
    report["quick"] = bool(args.quick)
    report["machine"] = machine_info()

    counters = report["service_statistics"]
    latency = report["latency"]
    print(f"kernels: {', '.join(kernels)}")
    print(
        "counters: %d compiles -> %d scheduler runs (%d memory hits, %d store hits, "
        "%d store misses, %d puts)"
        % (
            counters["compiles"],
            counters["scheduler_runs"],
            counters["memory_hits"],
            counters["store_hits"],
            counters["store_misses"],
            counters["store_puts"],
        )
    )
    for phase in ("warm_memory", "warm_store"):
        print(
            "%-12s %d result encodes, %d result decodes, %d request decodes"
            % (phase, *(counters[f"{phase}_{name}"] for name in HIT_PATH_WORK))
        )
    for phase in ("cold", "warm_memory", "warm_store"):
        stats = latency[phase]
        print(
            "%-12s mean %8.2f ms   p50 %8.2f ms   max %8.2f ms"
            % (phase, stats["mean_ms"], stats["p50_ms"], stats["max_ms"])
        )
    rps = report["requests_per_second"]
    print(
        "throughput: healthz %.0f req/s, warm-memory compile %.1f req/s, "
        "warm-store compile %.1f req/s"
        % (rps["healthz"], rps["warm_memory_compile"], rps["warm_store_compile"])
    )
    if report["mismatches"]:
        print(f"MISMATCH: {report['mismatches']} kernels returned non-identical schedules")
    if report["wrong_cache_origins"]:
        print(f"WRONG CACHE: {report['wrong_cache_origins']} compiles hit an unexpected layer")

    if args.output:
        args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")

    if args.update_baseline:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        baseline["service"] = {
            "quick": bool(args.quick),
            **{
                key: report["service_statistics"][key]
                for key in GATED_LOWER_IS_BETTER + GATED_HIGHER_IS_BETTER + GATED_EXACT
            },
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"refreshed the 'service' section of {args.baseline}")

    return 1 if (report["mismatches"] or report["wrong_cache_origins"]) else 0


if __name__ == "__main__":
    raise SystemExit(main())
