"""Fig. 2 — PolyBench speedups of PolyTOPS configurations over Pluto.

For every kernel and machine (AMD, Intel1, Intel2), four PolyTOPS
configurations are compared against the Pluto baseline:

* ``pluto-style``            (proximity only, Listing 5 left),
* ``tensor-scheduler-style`` (contiguity + proximity + no-skewing, Listing 5 right),
* ``isl-style``              (proximity with Feautrier fallback, Listing 3),
* ``kernel-spec``            (the best of a per-kernel candidate pool).

Speedups are ``pluto_cycles / variant_cycles`` as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..machine.machine import MachineModel, machine_by_name
from ..pipeline import EXPERIMENT_STAGES, Session
from ..scheduler.baselines import PlutoBaseline
from ..scheduler.strategies import isl_style, pluto_style, tensor_scheduler_style
from ..suites.polybench import build_kernel
from .harness import geometric_mean
from .kernel_configs import kernel_specific_candidates
from .reporting import format_speedup, format_table, write_csv

__all__ = ["Fig2Row", "run_fig2", "main", "QUICK_KERNELS"]

#: A representative subset, the default run (``--full`` on the command line,
#: or kernels=FIG2_KERNELS, sweeps the paper's complete list).
QUICK_KERNELS: tuple[str, ...] = (
    "jacobi-1d",
    "trisolv",
    "atax",
    "bicg",
    "mvt",
    "gemm",
    "gesummv",
    "jacobi-2d",
)

STRATEGY_ORDER = ("pluto-style", "tensor-scheduler-style", "isl-style", "kernel-spec")


@dataclass
class Fig2Row:
    """Speedups over Pluto for one kernel on one machine."""

    kernel: str
    machine: str
    pluto_cycles: float
    speedups: dict[str, float] = field(default_factory=dict)


def run_fig2(
    machine: MachineModel | str = "Intel1",
    kernels: Sequence[str] = QUICK_KERNELS,
) -> list[Fig2Row]:
    """Evaluate the Fig. 2 strategies on *kernels* for one machine."""
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    session = Session(machine=machine, stages=EXPERIMENT_STAGES)
    rows: list[Fig2Row] = []
    for kernel in kernels:
        scop = build_kernel(kernel)
        pluto = session.compile_baseline(scop, PlutoBaseline())
        row = Fig2Row(kernel=kernel, machine=machine.name, pluto_cycles=pluto.cycles)
        row.speedups["pluto-style"] = pluto.cycles / session.compile(scop, pluto_style()).cycles
        row.speedups["tensor-scheduler-style"] = (
            pluto.cycles / session.compile(scop, tensor_scheduler_style()).cycles
        )
        row.speedups["isl-style"] = pluto.cycles / session.compile(scop, isl_style()).cycles
        kernel_spec = session.compile_best(
            scop, kernel_specific_candidates(kernel), label="kernel-spec"
        )
        row.speedups["kernel-spec"] = pluto.cycles / kernel_spec.cycles
        rows.append(row)
    return rows


def main(
    machine: str = "Intel1",
    kernels: Sequence[str] = QUICK_KERNELS,
    output_csv: str | None = None,
) -> str:
    """Run the experiment for one machine and return (and print) the table."""
    rows = run_fig2(machine, kernels)
    table_rows = []
    for row in rows:
        table_rows.append(
            [row.kernel]
            + [format_speedup(row.speedups.get(strategy, 0.0)) for strategy in STRATEGY_ORDER]
        )
    geomeans = [
        format_speedup(geometric_mean([row.speedups.get(strategy, 0.0) for row in rows]))
        for strategy in STRATEGY_ORDER
    ]
    table_rows.append(["geomean"] + geomeans)
    text = format_table(
        ["kernel", *STRATEGY_ORDER],
        table_rows,
        title=f"Fig. 2 — PolyBench speedups over Pluto ({rows[0].machine if rows else machine})",
    )
    if output_csv:
        write_csv(
            output_csv,
            ["kernel", "machine", "pluto_cycles", *STRATEGY_ORDER],
            [
                [row.kernel, row.machine, row.pluto_cycles]
                + [row.speedups.get(strategy, 0.0) for strategy in STRATEGY_ORDER]
                for row in rows
            ],
        )
    print(text)
    return text

