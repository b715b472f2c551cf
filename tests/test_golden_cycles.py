"""Golden-cycles regression corpus.

Every evaluation the experiment drivers report (fig2-quick, Table I,
Table II), the eight ``polybench_full`` kernels of the end-to-end benchmark
and a set of tiled / wavefront-skewed / parallel schedules on two machines
are pinned to ``tests/golden/cycles.json``: the whole
:class:`~repro.machine.PerformanceReport` (floats as ``float.hex()``), the
:class:`~repro.codegen.ExecutionStats` of the scanning AST (``parallel_loops``
in first-encounter order, which the cost model's parallel effect depends on)
and a digest of the arrays the statement bodies leave behind.

The file stores the *schedules* next to the numbers, so the test exercises
only ``generate_ast`` → executor → trace → cache → cost model and needs no
scheduler run: a schedule change moves ``schedules.json``, a change of the
evaluate path moves this file.  It was generated by the tree-walking
``Fraction`` executor of PR 11, before the integer lowering replaced it.

On drift: an intended cost-model change regenerates the corpus with::

    PYTHONPATH=src python tests/golden/regenerate_cycles.py

(add ``--reschedule`` to also re-run the schedulers and refresh the stored
schedules); an unintended change is a regression — fix it, do not regenerate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "cycles.json"

#: Kernels of the end-to-end benchmark's ``polybench_full`` workload.
POLYBENCH_FULL = (
    "gemm", "jacobi-2d", "cholesky", "atax", "trisolv", "durbin", "seidel-2d", "gesummv",
)
#: Tiled + wavefront-skewed compiles (``SchedulerConfig.tile_sizes``,
#: ``apply_wavefront_skewing=True``), each on both machines.
TILED_KERNELS = ("gemm", "jacobi-1d", "jacobi-2d", "seidel-2d", "mvt")
TILED_MACHINES = ("Intel1", "Ascend910")
TILE_SIZES = (4, 4, 4)

_REPORT_FLOATS = (
    "cycles", "compute_cycles", "memory_cycles", "overhead_cycles", "parallel_speedup",
)


def build_scop(spec: dict):
    """Instantiate the kernel a stored evaluation names."""
    from repro.suites.custom_ops import build_case
    from repro.suites.polybench import build_kernel
    from repro.suites.polymage import build_pipeline

    builders = {"polybench": build_kernel, "custom_ops": build_case, "polymage": build_pipeline}
    return builders[spec["suite"]](spec["name"], **spec.get("arguments", {}))


def evaluate_entry(entry: dict) -> dict:
    """Report + execution statistics of one stored (kernel, machine, schedule, tiling)."""
    from repro.codegen import Executor, generate_ast
    from repro.machine import CostModel, machine_by_name
    from repro.pipeline.serialize import decode_schedule, decode_tiling

    scop = build_scop(entry["kernel"])
    schedule = decode_schedule(entry["schedule"])
    tiling = decode_tiling(entry["tiling"]) if entry["tiling"] is not None else None
    report = CostModel(machine_by_name(entry["machine"])).evaluate(scop, schedule, tiling)
    arrays = scop.allocate_arrays()
    stats = Executor(scop).run(generate_ast(scop, schedule, tiling), arrays)
    digest = hashlib.sha1()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    return {
        "report": {
            **{name: float(getattr(report, name)).hex() for name in _REPORT_FLOATS},
            "kernel": report.kernel,
            "machine": report.machine,
            "parallel_entries": report.parallel_entries,
            "instances": report.instances,
            "cache_statistics": report.cache_statistics,
            "vectorized_statements": report.vectorized_statements,
        },
        "stats": {
            "instances": stats.instances,
            "loop_iterations": stats.loop_iterations,
            "statement_loop_iterations": stats.statement_loop_iterations,
            "guard_checks": stats.guard_checks,
            "guard_failures": stats.guard_failures,
            "per_statement": stats.per_statement,
            # A list, not a dict: the order is part of the contract.
            "parallel_loops": [[name, *counts] for name, counts in stats.parallel_loops.items()],
            "arrays_sha1": digest.hexdigest(),
        },
    }


# --------------------------------------------------------------------------- #
# Corpus construction (regeneration only; the test never schedules)
# --------------------------------------------------------------------------- #
def scheduled_corpus() -> dict:
    """Run the experiment sessions and return ``{"cases", "evaluations"}`` without numbers."""
    from repro.experiments.fig2 import QUICK_KERNELS
    from repro.experiments.kernel_configs import kernel_specific_candidates
    from repro.experiments.table2 import UNSUPPORTED
    from repro.machine import ascend_910
    from repro.pipeline import EXPERIMENT_STAGES, Session
    from repro.pipeline.serialize import encode_schedule, encode_tiling
    from repro.scheduler.baselines import (
        IslPpcgBaseline,
        PlutoBaseline,
        PlutoLpDfpBaseline,
        PlutoPlusBaseline,
    )
    from repro.scheduler.strategies import (
        isl_style,
        npu_vectorize_style,
        pluto_style,
        tensor_scheduler_style,
    )
    from repro.suites.custom_ops import TABLE1_CASES
    from repro.suites.polymage import POLYMAGE_PIPELINES

    cases: dict[str, str] = {}
    evaluations: dict[str, dict] = {}

    def record(case: str, kernel: dict, result) -> None:
        entry = {
            "kernel": kernel,
            "machine": result.machine,
            "schedule": encode_schedule(result.schedule),
            "tiling": encode_tiling(result.tiling) if result.tiling is not None else None,
        }
        key = hashlib.sha1(json.dumps(entry, sort_keys=True).encode()).hexdigest()[:16]
        cases[case] = key
        evaluations[key] = entry

    # Fig. 2 (quick corpus), as run_fig2 compiles it.
    session = Session(machine="Intel1", stages=EXPERIMENT_STAGES)
    for name in QUICK_KERNELS:
        kernel = {"suite": "polybench", "name": name}
        scop = build_scop(kernel)
        record(f"fig2/{name}/pluto", kernel, session.compile_baseline(scop, PlutoBaseline()))
        for config in (pluto_style(), tensor_scheduler_style(), isl_style()):
            record(f"fig2/{name}/{config.name}", kernel, session.compile(scop, config))
        record(
            f"fig2/{name}/kernel-spec",
            kernel,
            session.compile_best(scop, kernel_specific_candidates(name), label="kernel-spec"),
        )

    # Table I, as run_table1 compiles it.
    session = Session(
        machine=ascend_910(), stages=EXPERIMENT_STAGES, apply_wavefront_skewing=False
    )
    for operator, size, arguments in TABLE1_CASES:
        kernel = {"suite": "custom_ops", "name": operator, "arguments": arguments}
        scop = build_scop(kernel)
        record(f"table1/{operator}/{size}/isl", kernel, session.compile(scop, isl_style()))
        record(
            f"table1/{operator}/{size}/polytops",
            kernel,
            session.compile(scop, npu_vectorize_style()),
        )

    # Table II, as run_table2 compiles it.
    session = Session(machine="Intel1", stages=EXPERIMENT_STAGES)
    for name in POLYMAGE_PIPELINES:
        kernel = {"suite": "polymage", "name": name}
        scop = build_scop(kernel)
        record(
            f"table2/{name}/polytops",
            kernel,
            session.compile_best(scop, kernel_specific_candidates(name), label="polytops"),
        )
        for baseline in (
            IslPpcgBaseline(), PlutoBaseline(), PlutoLpDfpBaseline(), PlutoPlusBaseline()
        ):
            if name not in UNSUPPORTED.get(baseline.name, set()):
                record(
                    f"table2/{name}/{baseline.name}",
                    kernel,
                    session.compile_baseline(scop, baseline),
                )

    # The end-to-end benchmark's default user path.
    session = Session(machine="Intel1")
    for name in POLYBENCH_FULL:
        kernel = {"suite": "polybench", "name": name}
        record(f"polybench_full/{name}", kernel, session.compile(build_scop(kernel), pluto_style()))

    # Tile loops, wavefront skews and parallel loops under them.
    tiled = dataclasses.replace(pluto_style(), tile_sizes=TILE_SIZES)
    for machine in TILED_MACHINES:
        session = Session(machine=machine, apply_wavefront_skewing=True)
        for name in TILED_KERNELS:
            kernel = {"suite": "polybench", "name": name}
            record(f"tiled/{machine}/{name}", kernel, session.compile(build_scop(kernel), tiled))
    return {"cases": cases, "evaluations": evaluations}


def capture_corpus(reschedule: bool = False) -> dict:
    """The corpus with freshly evaluated numbers (stored schedules unless *reschedule*)."""
    if reschedule or not GOLDEN_PATH.exists():
        corpus = scheduled_corpus()
    else:
        corpus = json.loads(GOLDEN_PATH.read_text())
    for entry in corpus["evaluations"].values():
        entry.update(evaluate_entry(entry))
    return corpus


# --------------------------------------------------------------------------- #
# The test
# --------------------------------------------------------------------------- #
def _golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden corpus at {GOLDEN_PATH}; generate it with "
        "`PYTHONPATH=src python tests/golden/regenerate_cycles.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_experiment_case():
    from repro.experiments.fig2 import QUICK_KERNELS
    from repro.suites.custom_ops import TABLE1_CASES
    from repro.suites.polymage import POLYMAGE_PIPELINES

    golden = _golden()
    cases = golden["cases"]
    assert set(cases.values()) == set(golden["evaluations"])
    for name in QUICK_KERNELS:
        for series in ("pluto", "pluto-style", "tensor-scheduler-style", "isl-style",
                       "kernel-spec"):
            assert f"fig2/{name}/{series}" in cases
    for operator, size, _ in TABLE1_CASES:
        assert f"table1/{operator}/{size}/isl" in cases
        assert f"table1/{operator}/{size}/polytops" in cases
    for name in POLYMAGE_PIPELINES:
        assert f"table2/{name}/polytops" in cases
    for name in POLYBENCH_FULL:
        assert f"polybench_full/{name}" in cases
    tiled = [golden["evaluations"][cases[f"tiled/{machine}/{name}"]]
             for machine in TILED_MACHINES for name in TILED_KERNELS]
    assert sum(bool(entry["tiling"] and entry["tiling"]["bands"]) for entry in tiled) >= 4
    assert sum(bool(entry["stats"]["parallel_loops"]) for entry in tiled) >= 4


@pytest.mark.parametrize("group", ["fig2", "table1", "table2", "polybench_full", "tiled"])
def test_cycles_match_golden_corpus(group):
    golden = _golden()
    keys = sorted(
        {key for case, key in golden["cases"].items() if case.split("/")[0] == group}
    )
    assert keys
    for key in keys:
        expected = golden["evaluations"][key]
        names = [case for case, other in golden["cases"].items() if other == key]
        actual = evaluate_entry(expected)
        for part in ("stats", "report"):
            assert actual[part] == expected[part], (
                f"{part} drift on {names}: the evaluate path no longer reproduces the golden "
                "numbers; if intended, regenerate with "
                "`PYTHONPATH=src python tests/golden/regenerate_cycles.py` and review the diff"
            )
