"""One pass of one workload, run in a fresh process by ``run.py``.

``python3 child.py '<json request>'`` prints one JSON object as its last line
of standard output.  A fresh process per pass keeps every pass on the
documented one-shot path: ``RedundancyProber._SHARED_VERDICTS`` makes repeat
passes inside one process depend on what ran before them.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from clock import ReferenceClock
from workloads import (
    CHECK_MACHINE,
    CORPORA,
    EXACT_COUNTERS,
    HIT_SAMPLES,
    OUT,
    build,
    cases,
    check_parameters,
    config,
    request_stream,
    schedule_digest,
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OutputCheck:
    """Independent check of a schedule: run it and the original program.

    Both run at reduced seeded sizes on the interpreter and must leave equal
    arrays; nothing is compared with a golden the compiler under test wrote.
    The simulated cycles of the scheduled code at the fixed reduced sizes are
    the code-quality number of the workloads that compile without a machine.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._reference: dict[str, tuple] = {}
        self._verdicts: dict[tuple[str, str], tuple[bool, float]] = {}

    def __call__(self, op: dict, scop, schedule) -> None:
        """Set the op's ``check_cycles`` and fail it when the arrays differ."""
        # Strategies that fall back share the original schedule: check it once.
        key = (scop.name, schedule_digest(schedule))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(scop, schedule)
        equal, op["check_cycles"] = self._verdicts[key]
        if not equal and op["error"] is None:
            op["error"] = "scheduled code and original program leave different arrays"

    def _check(self, scop, schedule) -> tuple[bool, float]:
        import numpy as np
        from repro.codegen.executor import run_original, run_schedule
        from repro.machine import estimate_cycles, machine_by_name

        if scop.name not in self._reference:
            sizes = check_parameters(scop, self.rng)
            expected = scop.allocate_arrays(sizes)
            run_original(scop, expected, sizes)
            self._reference[scop.name] = (sizes, expected)
        sizes, expected = self._reference[scop.name]
        arrays = scop.allocate_arrays(sizes)
        run_schedule(scop, schedule, arrays, sizes)
        equal = all(np.array_equal(arrays[name], expected[name]) for name in expected)
        report = estimate_cycles(
            scop,
            schedule,
            machine_by_name(CHECK_MACHINE),
            parameter_values=check_parameters(scop, None),
        )
        return equal, report.cycles


def timed(op: dict, call):
    """Run *call* as the op: its ``start`` and ``wall_ms``, and its ``error`` if it raises."""
    op["start"] = time.perf_counter()
    try:
        return call()
    except Exception as error:  # an op that raises is a failed op, not a crash
        op["error"] = "".join(traceback.format_exception_only(type(error), error)).strip()
    finally:
        op["wall_ms"] = (time.perf_counter() - op["start"]) * 1e3


# --------------------------------------------------------------------------- #
# Compile workloads
# --------------------------------------------------------------------------- #
def compile_pass(request: dict) -> dict:
    """Compile the corpus once through one ``Session``; time every call."""
    from repro import Session

    workload, seed = request["workload"], request["seed"]
    corpus = CORPORA[workload]
    start = time.perf_counter()
    scops = {kernel: build(kernel) for kernel in corpus.kernels}
    build_s = time.perf_counter() - start
    order = cases(workload, seed)
    configs = {case: config(case[1]) for case in order}
    session = Session(machine=corpus.machine)
    setup_s = time.time() - request["spawned_at"]
    clock = ReferenceClock()
    setup_s /= clock.slowdown()

    ops, hits, compiled = [], [], {}
    counts = dict.fromkeys(EXACT_COUNTERS, 0)
    repeats = -(-HIT_SAMPLES // len(order))
    clock.start()
    for case in order:
        op = {"case": "/".join(case), "kind": "miss", "error": None}
        ops.append(op)
        outcome = timed(op, lambda: session.compile_with_origin(scops[case[0]], configs[case]))
        if op["error"] is not None:
            continue
        result = outcome.result
        if outcome.origin != "miss":
            op["error"] = f"origin {outcome.origin!r}, expected 'miss'"
        elif result.legal is not True:
            op["error"] = f"legal is {result.legal!r}"
        op.update(
            stages=result.stage_timings,
            fallback=result.failed,
            cycles=result.cycles,
            digest=schedule_digest(result.schedule),
        )
        for name in EXACT_COUNTERS:
            counts[name] += result.solver_statistics.get(name, 0)
        compiled[case] = result
        # Repeat compiles of the case just cached sample the hit latency all
        # along the pass, not in one burst the box may spend at any speed.
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = session.compile_with_origin(scops[case[0]], configs[case])
            hits.append({"start": start, "wall_ms": (time.perf_counter() - start) * 1e3})
            if outcome.origin != "memory":
                raise RuntimeError(f"repeat compile of {case} answered {outcome.origin!r}")
    rss_mb = peak_rss_mb()
    clock.stop()
    clock.convert(ops + hits)
    for op in ops:
        if "stages" in op:
            # A periodic loop lands in a stage as often as the stage is long.
            kept = op["raw_ms"] / op["wall_ms"]
            op["stages"] = {stage: seconds * kept for stage, seconds in op["stages"].items()}

    if request["verify"]:
        check = OutputCheck(seed)
        for op in ops:
            case = tuple(op["case"].split("/"))
            if case in compiled:
                check(op, scops[case[0]], compiled[case].schedule)

    counts["dependence_hits"] = session.statistics["dependence_hits"]
    counts["dependence_misses"] = session.statistics["dependence_misses"]
    return {
        "setup_s": setup_s,
        "build_s": build_s,
        "rss_mb": rss_mb,
        "ops": ops,
        "hit_ms": [hit["ms"] for hit in hits],
        "calibration_ms": [ms for _, ms in clock.loops],
        "counts": counts,
        "layers": {},
    }


# --------------------------------------------------------------------------- #
# Service workload
# --------------------------------------------------------------------------- #
@contextmanager
def serving(store_path: str):
    """A ``python -m repro.service serve`` subprocess on an ephemeral port."""
    from repro.service import ServiceClient

    # A benchmark started as a background job inherits an ignored SIGINT and
    # would hand it on; the server then never sees the interrupt that stops it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--store", store_path],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()  # "repro.service listening on http://host:port"
        if not banner:
            raise RuntimeError("the compilation server did not start")
        yield ServiceClient(banner.split()[-1]), process
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def _resident_peak_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/<pid>/status")


def service_pass(request: dict) -> dict:
    """Populate a store, restart the server on it and run the request stream."""
    seed = request["seed"]
    corpus = CORPORA["service_mixed"]
    start = time.perf_counter()
    scops = {kernel: build(kernel) for kernel in corpus.kernels}
    build_s = time.perf_counter() - start
    stored = cases("service_mixed", seed)
    configs = {strategy: config(strategy) for strategy in corpus.strategies}
    stream = request_stream(seed)
    clock = ReferenceClock()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="service-", dir=OUT)
    try:
        store_path = os.path.join(scratch, "store.sqlite")
        population, population_stages = {}, {}
        with serving(store_path) as (client, _):
            for kernel, strategy in stored:
                result = client.compile(scops[kernel], configs[strategy]).result
                population[f"{kernel}/{strategy}"] = schedule_digest(result.schedule)
                population_stages[f"{kernel}/{strategy}"] = result.stage_timings
            clock.tick()
        with serving(store_path) as (client, process):
            setup_s = time.time() - request["spawned_at"]
            clock.tick()
            setup_s /= clock.slowdown()
            ops, answers, seen = [], {}, set()
            clock.start()
            for kind, kernel, third in stream:
                scop = scops[kernel]
                if kind == "hit":
                    case, strategy, values = f"{kernel}/{third}", third, None
                    expected = "memory" if case in seen else "store"
                    seen.add(case)
                else:
                    case, strategy, expected = f"{kernel}/miss", "pluto_style", "miss"
                    values = {name: third for name in scop.parameters}
                op = {"case": case, "kind": kind, "error": None}
                ops.append(op)
                with clock.held():
                    response = timed(
                        op,
                        lambda: client.compile(scop, configs[strategy], parameter_values=values),
                    )
                if op["error"] is not None:
                    continue
                op["origin"] = response.cache
                result = response.result
                if response.cache != expected:
                    op["error"] = f"origin {response.cache!r}, expected {expected!r}"
                elif result.legal is not True:
                    op["error"] = f"legal is {result.legal!r}"
                elif kind == "hit" and schedule_digest(result.schedule) != population[case]:
                    op["error"] = "hit differs from the population-phase answer"
                if kind == "miss":
                    op["stages"] = result.stage_timings
                answers.setdefault(case, (scop, result, op))
            clock.stop()
            clock.convert(ops)
            timed_s = sum(op["raw_ms"] for op in ops) / 1e3

            roundtrips = []
            for _ in range(50):
                start = time.perf_counter()
                client.healthz()
                roundtrips.append((time.perf_counter() - start) * 1e3)
            statistics = client.stats()["session"]
            rss_mb = _resident_peak_mb(process.pid)
            store_bytes = sum(path.stat().st_size for path in Path(scratch).iterdir())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if request["verify"]:
        check = OutputCheck(seed)
        for scop, result, op in answers.values():
            check(op, scop, result.schedule)

    hits = statistics["memory_hits"] + statistics["store_hits"]
    counts = {
        name: statistics[name]
        for name in (
            "memory_hits", "store_hits", "store_misses", "store_puts", "result_misses",
            "dependence_hits", "dependence_misses",
        )
    }
    return {
        "setup_s": setup_s,
        "build_s": build_s,
        "rss_mb": rss_mb,
        "ops": ops,
        "hit_ms": [op["ms"] for op in ops if op["kind"] == "hit"],
        "calibration_ms": [ms for _, ms in clock.loops],
        "counts": counts,
        "population": population,
        "population_stages": population_stages,
        "layers": {
            "service.http_roundtrip_ms_p50": sorted(roundtrips)[len(roundtrips) // 2],
            "service.store_file_bytes": store_bytes,
            "service.memory_hits": statistics["memory_hits"],
            "service.store_hits": statistics["store_hits"],
            "service.store_misses": statistics["store_misses"],
            "service.store_puts": statistics["store_puts"],
            "service.scheduler_runs": statistics["result_misses"],
            "service.hit_ratio": hits / (hits + statistics["result_misses"]),
            "service.requests_per_s": len(ops) / timed_s,
        },
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    if request["mode"] == "traced":
        from staged import traced_pass

        report = traced_pass(request)
    elif request["workload"] == "service_mixed":
        report = service_pass(request)
    else:
        report = compile_pass(request)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
