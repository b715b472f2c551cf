"""The traced run: the benchmark drives the pipeline stages itself.

Every layer is measured from outside, by timing calls into its public
functions in pipeline order, each inside a span named after the metric it
feeds and all under one ``bench.compile`` span per case; the spans the
program already emits (``ilp.solve``, ``fm.farkas``, ``emptiness.*``) nest
under them.  The replays that follow the stages isolate costs the pipeline
only shows summed (executor vs address generation vs cache simulation) or
that only the service pays (wire, store).  ``run.py`` fails the traced run
when a staged schedule differs from what ``Session.compile`` produced.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from collections import Counter

from spec import PER_LAYER
from workloads import (
    CORPORA,
    EXACT_COUNTERS,
    OUT,
    build,
    cases,
    config,
    schedule_digest,
)

#: Stage spans, in the order ``repro.pipeline.DEFAULT_STAGES`` runs them.
STAGE_SPANS = (
    "deps.compute",
    "scheduler.schedule",
    "transform.postprocess",
    "transform.legality",
    "codegen.generate_ast",
    "codegen.to_c",
    "machine.evaluate",
)

#: Layer metric -> span the program itself emits; a span that no longer
#: exists leaves its metric at zero instead of failing the run.
PROGRAM_SPANS = {
    "polyhedra.irredundancy_s": "emptiness.irredundancy",
    "polyhedra.farkas_s": "fm.farkas",
    "polyhedra.emptiness_probe_s": "emptiness.probe",
}

#: Layer metric -> key of ``SchedulingResult.statistics`` (summed over the corpus).
SCHEDULER_STATISTICS = {
    "scheduler.dimensions": "dimensions",
    "ilp.solve_s": "solve_seconds",
    "ilp.encode_s": "encode_seconds",
    "ilp.solve_calls": "solve_calls",
    "ilp.pivots": "pivots",
    "ilp.nodes": "nodes",
    "ilp.warm_start_hits": "warm_start_hits",
    "ilp.dim_warm_starts": "dim_warm_starts",
    "ilp.refactorizations": "refactorizations",
    "linalg.basis_nnz": "basis_nnz",
    "linalg.eta_entries": "eta_entries",
    "polyhedra.fm_elimination_s": "fm_elimination_seconds",
    "polyhedra.fm_rows_generated": "fm_rows_generated",
    "polyhedra.fm_rows_emitted": "fm_rows_emitted",
    "polyhedra.irredundancy_probes": "irredundancy_probes",
    "polyhedra.irredundancy_pivots": "irredundancy_pivots",
    "rows_dropped": "irredundant_rows_dropped",
}


class _AddressRecorder:
    """Stands in for a cache hierarchy: keeps the addresses, simulates nothing."""

    def __init__(self) -> None:
        self.addresses: list[int] = []

    def access(self, address: int) -> None:
        self.addresses.append(address)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_pass(request: dict) -> dict:
    from repro import PolyTOPSScheduler, SchedulingResult, compute_dependences
    from repro.codegen.ast import count_guards, count_loops
    from repro.codegen.c_writer import to_c
    from repro.codegen.executor import Executor
    from repro.codegen.generator import generate_ast
    from repro.machine import machine_by_name
    from repro.machine.cost_model import CostModel
    from repro.machine.trace import MemoryTraceCollector
    from repro.obs import Tracer, activate, summarize, write_chrome_trace
    from repro.pipeline import (
        CompilationResult,
        config_fingerprint,
        result_fingerprint,
        scop_fingerprint,
    )
    from repro.scheduler.errors import SchedulingError
    from repro.service.store import SqliteResultStore
    from repro.service.wire import (
        decode_compile_request,
        decode_result,
        encode_compile_request,
        encode_result,
    )
    from repro.transform.parallelism import detect_parallel_dimensions, schedule_is_legal
    from repro.transform.wavefront import apply_wavefront

    workload = request["workload"]
    corpus = CORPORA[workload]
    machine = machine_by_name(corpus.machine) if corpus.machine else None
    start = time.perf_counter()
    scops = {kernel: build(kernel) for kernel in corpus.kernels}
    build_s = time.perf_counter() - start

    tracer = Tracer()

    def span(name: str):
        return tracer.span(name, category="bench")

    totals: Counter = Counter()
    dependences: dict[str, list] = {}  # the session's per-kernel dependence cache
    digests, cycles, response_bytes = {}, {}, []
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="traced-", dir=OUT)
    writer = SqliteResultStore(os.path.join(scratch, "store.sqlite"))
    # No in-memory front, so every get reads the SQLite file the writer fills.
    reader = SqliteResultStore(writer.path, memory_entries=0)
    try:
        with activate(tracer):
            for kernel, strategy in cases(workload, request["seed"]):
                scop, cfg = scops[kernel], config(strategy)
                with tracer.span(
                    "bench.compile", category="bench", kernel=kernel, strategy=strategy
                ):
                    # --- the stages, as repro.pipeline.stages runs them ---
                    if kernel not in dependences:
                        probes: dict[str, int] = {}
                        with span("deps.compute"):
                            dependences[kernel] = compute_dependences(
                                scop, probe_statistics=probes
                            )
                        totals["deps.dependences"] += len(dependences[kernel])
                        totals["deps.emptiness_probes"] += probes.get("emptiness_probes", 0)
                        totals["deps.emptiness_engine_probes"] += probes.get(
                            "emptiness_engine_probes", 0
                        )
                        totals["reuse_hits"] += probes.get("emptiness_reuse_hits", 0)
                    error = None
                    with span("scheduler.schedule"):
                        try:
                            scheduling = PolyTOPSScheduler(
                                scop, cfg, dependences=dependences[kernel]
                            ).schedule()
                        except SchedulingError as failure:
                            error = f"{type(failure).__name__}: {failure}"
                            scheduling = SchedulingResult(
                                scop.original_schedule(), list(dependences[kernel]), {}, True, {}
                            )
                    schedule = scheduling.schedule
                    with span("transform.postprocess"):
                        if len(schedule.parallel_dims) < schedule.n_dims:
                            schedule.parallel_dims = detect_parallel_dimensions(
                                schedule, scheduling.dependences
                            )
                        schedule, _ = apply_wavefront(schedule, scheduling.dependences)
                    with span("transform.legality"):
                        legal = schedule_is_legal(schedule, scheduling.dependences)
                    with span("codegen.generate_ast"):
                        ast = generate_ast(scop, schedule)
                    with span("codegen.to_c"):
                        generated_c = to_c(scop, ast)
                    report = None
                    if machine is not None:
                        with span("machine.evaluate"):
                            report = CostModel(machine).evaluate(scop, schedule)
                    result = CompilationResult(
                        kernel=scop.name,
                        configuration=cfg.name,
                        machine=corpus.machine,
                        schedule=schedule,
                        scheduling=scheduling,
                        dependences=list(dependences[kernel]),
                        legal=legal,
                        generated_c=generated_c,
                        report=report,
                        cycles=report.cycles if report is not None else None,
                        failed=scheduling.fallback_to_original or not legal,
                        error=error,
                    )

                    # --- the replays ---
                    if machine is not None:
                        with span("codegen.executor_run"):
                            executed = Executor(scop).run(ast, scop.allocate_arrays())
                        recorder = _AddressRecorder()
                        with span("machine.trace_address"):
                            Executor(
                                scop, on_instance=MemoryTraceCollector(scop, recorder)
                            ).run(ast, scop.allocate_arrays())
                        hierarchy = machine.hierarchy()
                        with span("machine.cache_access"):
                            for address in recorder.addresses:
                                hierarchy.access(address)
                        totals["codegen.executor_instances"] += executed.instances
                        totals["machine.cache_accesses"] += len(recorder.addresses)
                        totals["l1_misses"] += hierarchy.levels[0].misses
                    with span("pipeline.fingerprint"):
                        scop_fingerprint(scop)
                        config_fingerprint(cfg)
                        fingerprint = result_fingerprint(scop, cfg, machine)
                    with span("pipeline.serialize"):
                        document = result.to_dict()
                        CompilationResult.from_dict(document)
                    with span("service.wire_encode"):
                        sent = json.dumps(encode_compile_request(scop, cfg, corpus.machine))
                        answered = json.dumps(
                            encode_result(result, cache="miss", fingerprint=fingerprint)
                        )
                    with span("service.wire_decode"):
                        decode_compile_request(json.loads(sent))
                        decode_result(json.loads(answered))
                    with span("service.store_put"):
                        writer.put(fingerprint, result)
                    with span("service.store_get"):
                        if reader.get(fingerprint) is None:
                            raise RuntimeError(f"store lost {kernel}/{strategy}")

                case = f"{kernel}/{strategy}"
                digests[case], cycles[case] = schedule_digest(schedule), result.cycles
                response_bytes.append(len(answered))
                totals["pipeline.result_bytes"] += len(json.dumps(document))
                totals["scheduler.fallbacks"] += result.failed
                totals["transform.parallel_dims"] += sum(schedule.parallel_dims)
                totals["codegen.c_bytes"] += len(generated_c)
                totals["codegen.ast_loops"] += count_loops(ast)
                totals["codegen.ast_guards"] += count_guards(ast)
                for metric, key in SCHEDULER_STATISTICS.items():
                    totals[metric] += scheduling.statistics.get(key, 0)
                for key in EXACT_COUNTERS:
                    totals["exact." + key] += scheduling.statistics.get(key, 0)
    finally:
        writer.close()
        reader.close()
        shutil.rmtree(scratch, ignore_errors=True)

    write_chrome_trace(tracer, str(OUT / f"{workload}.trace.json"))
    summary = summarize(tracer)

    def wall(name: str) -> float:
        return summary.get(name, {}).get("wall_ns", 0) / 1e9

    def median_ms(name: str) -> float:
        durations = sorted(r.duration_ns for r in tracer.records if r.name == name)
        return durations[len(durations) // 2] / 1e6

    layers = {
        metric["name"]: wall(metric["name"][:-2])
        for metric in PER_LAYER
        if metric["name"].endswith("_s") and metric["name"][:-2] in summary
    }
    layers.update({metric: wall(name) for metric, name in PROGRAM_SPANS.items()})
    names = {metric["name"] for metric in PER_LAYER}
    layers.update({name: value for name, value in totals.items() if name in names})
    layers.update(
        {
            "suites.build_s": build_s,
            "obs.spans": len(tracer.records),
            "scheduler.self_s": sum(
                entry["self_ns"] for name, entry in summary.items() if name.startswith("scheduler.")
            )
            / 1e9,
            "deps.emptiness_reuse_ratio": _ratio(
                totals["reuse_hits"], totals["deps.emptiness_probes"]
            ),
            "ilp.pivots_per_s": _ratio(totals["ilp.pivots"], totals["ilp.solve_s"]),
            "polyhedra.fm_emit_ratio": _ratio(
                totals["polyhedra.fm_rows_emitted"], totals["polyhedra.fm_rows_generated"]
            ),
            "polyhedra.irredundancy_drop_ratio": _ratio(
                totals["rows_dropped"], totals["polyhedra.irredundancy_probes"]
            ),
            "service.store_put_ms_p50": median_ms("service.store_put"),
            "service.store_get_ms_p50": median_ms("service.store_get"),
            "service.response_bytes_p50": sorted(response_bytes)[len(response_bytes) // 2],
        }
    )
    if machine is not None:
        # The collector run repeats the executor run; what it adds is address generation.
        layers["machine.trace_address_s"] -= layers["codegen.executor_run_s"]
        layers["codegen.executor_instances_per_s"] = _ratio(
            totals["codegen.executor_instances"], layers["codegen.executor_run_s"]
        )
        layers["machine.cache_accesses_per_s"] = _ratio(
            totals["machine.cache_accesses"], layers["machine.cache_access_s"]
        )
        layers["machine.l1_miss_ratio"] = _ratio(
            totals["l1_misses"], totals["machine.cache_accesses"]
        )
    return {
        "digests": digests,
        "cycles": cycles,
        "counts": {key: totals["exact." + key] for key in EXACT_COUNTERS},
        "stage_s": sum(wall(name) for name in STAGE_SPANS),
        "layers": layers,
    }
