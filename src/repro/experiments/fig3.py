"""Fig. 3 — jacobi-1d dataset-size sweep.

Two PolyTOPS configurations are compared against Pluto while the dataset size
grows (the paper uses PolyBench's ``large`` to ``16xlarge`` presets; here the
sizes scale the simulator-friendly base problem by the same factors):

* **large-size-dedicated** — the configuration the paper tunes for the default
  (large) size: a simple, fully sequential schedule with no skewing (contiguity
  + proximity + no-skewing), whose generated code is much simpler than Pluto's;
* **pluto-style** — the generic proximity configuration, which behaves like
  Pluto itself and therefore stays close to 1x at every size.

The expected shape is the paper's: the dedicated configuration wins clearly at
the smaller sizes and loses its advantage as the size grows, because Pluto's
skewed wavefront parallelism amortises its control overhead and fork/barrier
cost only on large problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..machine.machine import MachineModel, machine_by_name
from ..pipeline import EXPERIMENT_STAGES, Session
from ..scheduler.baselines import PlutoBaseline
from ..scheduler.strategies import kernel_specific, pluto_style
from ..suites.polybench import jacobi_1d
from .reporting import format_speedup, format_table, write_csv

__all__ = ["Fig3Point", "SIZE_LABELS", "run_fig3", "main"]

#: Dataset-size labels and the corresponding scale factors applied to the base
#: problem (TSTEPS=20, N=60).  ``large`` is the paper's default PolyBench size.
SIZE_LABELS: tuple[tuple[str, float], ...] = (
    ("large", 1.0),
    ("2xlarge", 2.0),
    ("4xlarge", 4.0),
    ("6xlarge", 6.0),
    ("8xlarge", 8.0),
    ("10xlarge", 10.0),
    ("12xlarge", 12.0),
    ("14xlarge", 14.0),
    ("16xlarge", 16.0),
)


@dataclass
class Fig3Point:
    """Speedups over Pluto for one dataset size."""

    size_label: str
    scale: float
    pluto_cycles: float
    dedicated_speedup: float
    pluto_style_speedup: float


def _dedicated_configuration():
    return kernel_specific(
        name="large-size-dedicated",
        cost_functions=("contiguity", "proximity"),
        constraints=("no-skewing", "no-parameter-shift"),
    )


def run_fig3(
    machine: MachineModel | str = "Intel1",
    sizes: Sequence[tuple[str, float]] = SIZE_LABELS,
    base_tsteps: int = 12,
    base_n: int = 40,
) -> list[Fig3Point]:
    """Evaluate jacobi-1d at every dataset size."""
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    session = Session(machine=machine, stages=EXPERIMENT_STAGES)
    points: list[Fig3Point] = []
    for label, scale in sizes:
        scop = jacobi_1d(tsteps=max(4, int(base_tsteps * scale**0.5)), n=max(8, int(base_n * scale)))
        pluto = session.compile_baseline(scop, PlutoBaseline())
        dedicated = session.compile(scop, _dedicated_configuration())
        pluto_like = session.compile(scop, pluto_style())
        points.append(
            Fig3Point(
                size_label=label,
                scale=scale,
                pluto_cycles=pluto.cycles,
                dedicated_speedup=pluto.cycles / dedicated.cycles,
                pluto_style_speedup=pluto.cycles / pluto_like.cycles,
            )
        )
    return points


def main(
    machine: str = "Intel1",
    sizes: Sequence[tuple[str, float]] = SIZE_LABELS,
    output_csv: str | None = None,
) -> str:
    points = run_fig3(machine, sizes)
    rows = [
        [p.size_label, format_speedup(p.dedicated_speedup), format_speedup(p.pluto_style_speedup)]
        for p in points
    ]
    text = format_table(
        ["Dataset size", "Large-size-dedicated", "Pluto-style"],
        rows,
        title="Fig. 3 — jacobi-1d speedups over Pluto across dataset sizes (Intel1 model)",
    )
    if output_csv:
        write_csv(
            output_csv,
            ["size", "scale", "pluto_cycles", "dedicated_speedup", "pluto_style_speedup"],
            [
                [p.size_label, p.scale, p.pluto_cycles, p.dedicated_speedup, p.pluto_style_speedup]
                for p in points
            ],
        )
    print(text)
    return text

