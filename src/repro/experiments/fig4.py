"""Fig. 4 — PolyTOPS vs. Pluto+, Pluto-lp-dfp and isl-PPCG on PolyBench (Intel1).

All comparison schedulers are expressed as configurations of the same
iterative engine (see :mod:`repro.scheduler.baselines`); as in the paper, the
Pluto-lp-dfp series reports the best of its three fusion heuristics and every
speedup is relative to the Pluto (dev) baseline.
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
from ..suites.polybench import build_kernel
from .harness import geometric_mean
from .kernel_configs import kernel_specific_candidates
from .reporting import format_speedup, format_table, write_csv

__all__ = ["Fig4Row", "run_fig4", "main"]

TOOL_ORDER = ("pluto-lp-dfp", "pluto+", "isl-ppcg", "polytops")


@dataclass
class Fig4Row:
    """Speedups over Pluto for one kernel."""

    kernel: str
    pluto_cycles: float
    speedups: dict[str, float] = field(default_factory=dict)


def run_fig4(
    machine: MachineModel | str = "Intel1",
    kernels: Sequence[str] = ("jacobi-1d", "trisolv", "atax", "bicg", "gemm", "mvt"),
) -> list[Fig4Row]:
    """Evaluate all tools on *kernels* (Intel1 model by default)."""
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    session = Session(machine=machine, stages=EXPERIMENT_STAGES)
    rows: list[Fig4Row] = []
    for kernel in kernels:
        scop = build_kernel(kernel)
        pluto = session.compile_baseline(scop, PlutoBaseline())
        row = Fig4Row(kernel=kernel, pluto_cycles=pluto.cycles)
        for baseline in (PlutoLpDfpBaseline(), PlutoPlusBaseline(), IslPpcgBaseline()):
            result = session.compile_baseline(scop, baseline)
            row.speedups[baseline.name] = pluto.cycles / result.cycles
        polytops = session.compile_best(
            scop, kernel_specific_candidates(kernel), label="polytops"
        )
        row.speedups["polytops"] = pluto.cycles / polytops.cycles
        rows.append(row)
    return rows


def main(
    machine: str = "Intel1",
    kernels: Sequence[str] = ("jacobi-1d", "trisolv", "atax", "bicg", "gemm", "mvt"),
    output_csv: str | None = None,
) -> str:
    rows = run_fig4(machine, kernels)
    table_rows = [
        [row.kernel] + [format_speedup(row.speedups.get(tool, 0.0)) for tool in TOOL_ORDER]
        for row in rows
    ]
    table_rows.append(
        ["geomean"]
        + [
            format_speedup(geometric_mean([row.speedups.get(tool, 0.0) for row in rows]))
            for tool in TOOL_ORDER
        ]
    )
    text = format_table(
        ["kernel", "Pluto-lp-dfp", "Pluto+", "isl-PPCG", "PolyTOPS"],
        table_rows,
        title="Fig. 4 — speedups over Pluto (Intel1 model)",
    )
    if output_csv:
        write_csv(
            output_csv,
            ["kernel", "pluto_cycles", *TOOL_ORDER],
            [
                [row.kernel, row.pluto_cycles]
                + [row.speedups.get(tool, 0.0) for tool in TOOL_ORDER]
                for row in rows
            ],
        )
    print(text)
    return text

