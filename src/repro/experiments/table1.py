"""Table I — MindSpore hybrid custom operators on the Ascend 910 NPU model.

For every operator/size of the paper's Table I the harness evaluates:

* the **isl** baseline (the scheduler previously used by AKG): isl-style
  strategy, no vectorisation directives — it favours outer parallelism and
  loses the innermost vectorisable loop;
* **PolyTOPS** with the configuration the paper uses: proximity cost plus
  vectorisation directives (auto-vectorisation detects the stride-1 loop, as
  the paper notes the same configuration works for every kernel and size).

The reported numbers are simulated cycles on the Ascend-910-like machine
model; the paper's shape (PolyTOPS faster by an order of magnitude on the trsm
operators, less on LU) is what is being reproduced, not the absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.machine import ascend_910
from ..pipeline import EXPERIMENT_STAGES, Session
from ..scheduler.strategies import isl_style, npu_vectorize_style
from ..suites.custom_ops import TABLE1_CASES, build_case
from .harness import geometric_mean
from .reporting import format_speedup, format_table, write_csv

__all__ = ["Table1Row", "run_table1", "main"]


@dataclass
class Table1Row:
    """One row of Table I."""

    operator: str
    size: str
    isl_cycles: float
    polytops_cycles: float

    @property
    def speedup(self) -> float:
        return self.isl_cycles / self.polytops_cycles if self.polytops_cycles else 0.0


def run_table1(cases=None) -> list[Table1Row]:
    """Evaluate the Table I cases and return one row per operator/size."""
    session = Session(
        machine=ascend_910(), stages=EXPERIMENT_STAGES, apply_wavefront_skewing=False
    )
    rows: list[Table1Row] = []
    for operator, size, arguments in (cases or TABLE1_CASES):
        scop = build_case(operator, **arguments)
        baseline = session.compile(scop, isl_style(), label="isl")
        variant = session.compile(scop, npu_vectorize_style(), label="polytops")
        rows.append(
            Table1Row(
                operator=operator,
                size=size,
                isl_cycles=baseline.cycles,
                polytops_cycles=variant.cycles,
            )
        )
    return rows


def main(output_csv: str | None = None, cases=None) -> str:
    """Run the experiment and return (and print) the formatted table."""
    rows = run_table1(cases)
    table_rows = [
        [row.operator, row.size, f"{row.isl_cycles:.0f}", f"{row.polytops_cycles:.0f}",
         format_speedup(row.speedup)]
        for row in rows
    ]
    geomean = geometric_mean([row.speedup for row in rows])
    table_rows.append(["geomean", "", "", "", format_speedup(geomean)])
    text = format_table(
        ["Case", "Input/Output", "isl (cycles)", "PolyTOPS (cycles)", "Speedup"],
        table_rows,
        title="Table I — Ascend 910 custom operators (simulated)",
    )
    if output_csv:
        write_csv(
            output_csv,
            ["case", "size", "isl_cycles", "polytops_cycles", "speedup"],
            [[r.operator, r.size, r.isl_cycles, r.polytops_cycles, r.speedup] for r in rows],
        )
    print(text)
    return text

