"""Experiment harnesses regenerating every table and figure of the paper.

* :mod:`repro.experiments.table1` — Ascend 910 custom operators (Table I),
* :mod:`repro.experiments.fig2`   — PolyBench strategies vs. Pluto (Fig. 2),
* :mod:`repro.experiments.fig3`   — jacobi-1d dataset-size sweep (Fig. 3),
* :mod:`repro.experiments.fig4`   — comparison with Pluto+/Pluto-lp-dfp/isl-PPCG (Fig. 4),
* :mod:`repro.experiments.table2` — PolyMage pipelines (Table II).

Each module exposes ``run_*`` (structured results) and ``main`` (prints the
table and optionally writes the CSV the paper's artifact produces);
``python -m repro.experiments <name> [--machine M] [--full] [--csv PATH]`` is
the one command line over the five ``main`` functions.  The drivers share
dependence/evaluation caches through :class:`repro.pipeline.Session`.
"""

from .harness import geometric_mean
from .kernel_configs import kernel_specific_candidates
from .reporting import format_speedup, format_table, write_csv

__all__ = [
    "geometric_mean",
    "kernel_specific_candidates",
    "format_speedup",
    "format_table",
    "write_csv",
]
