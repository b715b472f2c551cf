"""Table II — PolyMage image-processing pipelines on the Intel1 model.

PolyTOPS (kernel-specific candidate pool) is compared against isl-PPCG, Pluto,
Pluto-lp-dfp and Pluto+.  The paper reports that the Pluto family cannot
process camera-pipe, interpolate and pyramid-blending (missing support for
local variables / modulo accesses) and that isl fails on pyramid-blending;
those combinations are reported as ``n.a.`` here as well, so the table has the
same support matrix as the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..machine.machine import MachineModel, machine_by_name
from ..pipeline import EXPERIMENT_STAGES, Session
from ..scheduler.baselines import (
    IslPpcgBaseline,
    PlutoBaseline,
    PlutoLpDfpBaseline,
    PlutoPlusBaseline,
)
from ..suites.polymage import POLYMAGE_PIPELINES, build_pipeline
from .kernel_configs import kernel_specific_candidates
from .reporting import format_speedup, format_table, write_csv

__all__ = ["Table2Row", "run_table2", "main", "UNSUPPORTED"]

#: Tool/benchmark combinations reported as not available in the paper.
UNSUPPORTED: dict[str, set[str]] = {
    "pluto": {"camera-pipe", "interpolate", "pyramid-blending"},
    "pluto-lp-dfp": {"camera-pipe", "interpolate", "pyramid-blending"},
    "pluto+": {"camera-pipe", "interpolate", "pyramid-blending"},
    "isl-ppcg": {"pyramid-blending"},
}

TOOL_ORDER = ("polytops", "isl-ppcg", "pluto", "pluto-lp-dfp", "pluto+")


@dataclass
class Table2Row:
    """Simulated milliseconds per tool for one pipeline (None = n.a.)."""

    benchmark: str
    timings_ms: dict[str, float | None] = field(default_factory=dict)

    def speedup_of_polytops_over(self, tool: str) -> float | None:
        ours = self.timings_ms.get("polytops")
        theirs = self.timings_ms.get(tool)
        if ours is None or theirs is None or ours == 0:
            return None
        return theirs / ours


def run_table2(
    machine: MachineModel | str = "Intel1",
    benchmarks: Sequence[str] = tuple(POLYMAGE_PIPELINES),
) -> list[Table2Row]:
    """Evaluate the PolyMage pipelines with every tool."""
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    session = Session(machine=machine, stages=EXPERIMENT_STAGES)
    rows: list[Table2Row] = []
    for benchmark in benchmarks:
        scop = build_pipeline(benchmark)
        row = Table2Row(benchmark=benchmark)
        polytops = session.compile_best(
            scop, kernel_specific_candidates(benchmark), label="polytops"
        )
        row.timings_ms["polytops"] = polytops.report.milliseconds
        for baseline in (
            IslPpcgBaseline(),
            PlutoBaseline(),
            PlutoLpDfpBaseline(),
            PlutoPlusBaseline(),
        ):
            if benchmark in UNSUPPORTED.get(baseline.name, set()):
                row.timings_ms[baseline.name] = None
                continue
            result = session.compile_baseline(scop, baseline)
            row.timings_ms[baseline.name] = result.report.milliseconds
        rows.append(row)
    return rows


def main(
    machine: str = "Intel1",
    benchmarks: Sequence[str] = tuple(POLYMAGE_PIPELINES),
    output_csv: str | None = None,
) -> str:
    rows = run_table2(machine, benchmarks)
    table_rows = []
    for row in rows:
        cells = [row.benchmark]
        for tool in TOOL_ORDER:
            value = row.timings_ms.get(tool)
            cells.append("n.a." if value is None else f"{value:.2f}")
        for tool in ("isl-ppcg", "pluto", "pluto-lp-dfp", "pluto+"):
            speedup = row.speedup_of_polytops_over(tool)
            cells.append("n.a." if speedup is None else format_speedup(speedup))
        table_rows.append(cells)
    text = format_table(
        [
            "Benchmark",
            "PolyTOPS (ms)",
            "isl-PPCG (ms)",
            "Pluto (ms)",
            "Pluto-lp-dfp (ms)",
            "Pluto+ (ms)",
            "Speedup (isl-PPCG)",
            "Speedup (Pluto)",
            "Speedup (Pluto-lp-dfp)",
            "Speedup (Pluto+)",
        ],
        table_rows,
        title="Table II — PolyMage pipelines (simulated, Intel1 model)",
    )
    if output_csv:
        write_csv(
            output_csv,
            ["benchmark", *TOOL_ORDER],
            [
                [row.benchmark] + [row.timings_ms.get(tool) for tool in TOOL_ORDER]
                for row in rows
            ],
        )
    print(text)
    return text

