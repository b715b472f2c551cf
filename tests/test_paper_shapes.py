"""The paper's shapes as tier-1 facts.

Fig. 2, Table I and Table II are read off the labels of
``tests/golden/cycles.json`` (``fig2/<kernel>/<series>``,
``table1/<op>/<size>/{isl,polytops}``, ``table2/<pipeline>/<tool>``) — the
cycles ``test_golden_cycles`` shows the evaluate path still reproduces — so no
scheduler runs here.  Fig. 3 and Fig. 4 are not in the corpus; their quick
drivers run (about 1 s and 2 s).

A change that moves cycles on purpose regenerates the corpus; the orderings
below must then still hold, or the change says why not and pastes the new
numbers (as ``format_speedup`` prints them in the drivers' tables).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import format_speedup, geometric_mean
from repro.experiments.fig2 import QUICK_KERNELS, STRATEGY_ORDER
from repro.suites.custom_ops import TABLE1_CASES
from repro.suites.polymage import POLYMAGE_PIPELINES

GOLDEN_PATH = Path(__file__).parent / "golden" / "cycles.json"


@pytest.fixture(scope="module")
def cycles() -> dict[str, float]:
    """Simulated cycles per case label of the golden corpus."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return {
        case: float.fromhex(golden["evaluations"][key]["report"]["cycles"])
        for case, key in golden["cases"].items()
    }


def test_fig2_kernel_specific_is_never_beaten_and_the_series_keep_their_order(cycles):
    speedups = {
        series: [
            cycles[f"fig2/{kernel}/pluto"] / cycles[f"fig2/{kernel}/{series}"]
            for kernel in QUICK_KERNELS
        ]
        for series in STRATEGY_ORDER
    }
    generic = [series for series in STRATEGY_ORDER if series != "kernel-spec"]
    for series in generic:
        for kernel, best, other in zip(QUICK_KERNELS, speedups["kernel-spec"], speedups[series]):
            assert best >= other - 1e-9, (kernel, series)
    geomean = {series: geometric_mean(values) for series, values in speedups.items()}
    assert (
        geomean["kernel-spec"]
        > geomean["isl-style"]
        > geomean["pluto-style"]
        > geomean["tensor-scheduler-style"]
    )
    assert {series: format_speedup(value) for series, value in geomean.items()} == {
        "kernel-spec": "2.20", "isl-style": "1.26", "pluto-style": "1.00",
        "tensor-scheduler-style": "0.68",
    }


def test_table1_polytops_beats_isl_on_every_operator_and_size(cycles):
    speedups = {
        (operator, size): cycles[f"table1/{operator}/{size}/isl"]
        / cycles[f"table1/{operator}/{size}/polytops"]
        for operator, size, _ in TABLE1_CASES
    }
    assert len(speedups) == 15
    for case, speedup in speedups.items():
        assert speedup > 1.0, case
    assert format_speedup(min(speedups.values())) == "1.60"
    assert format_speedup(max(speedups.values())) == "5.19"


def test_table2_polytops_is_never_slower_than_a_tool_that_supports_the_pipeline(cycles):
    from repro.experiments.table2 import TOOL_ORDER, UNSUPPORTED

    others = [tool for tool in TOOL_ORDER if tool != "polytops"]
    for pipeline in POLYMAGE_PIPELINES:
        ours = cycles[f"table2/{pipeline}/polytops"]
        assert ours > 0
        for tool in others:
            label = f"table2/{pipeline}/{tool}"
            # The corpus has the paper's support matrix: n.a. entries are absent.
            assert (label in cycles) == (pipeline not in UNSUPPORTED[tool]), label
            if label in cycles:
                assert ours <= cycles[label] * (1 + 1e-9), label

    def over(pipeline: str, tool: str) -> str:
        ours = cycles[f"table2/{pipeline}/polytops"]
        return format_speedup(cycles[f"table2/{pipeline}/{tool}"] / ours)

    assert (over("harris", "pluto"), over("harris", "pluto+")) == ("2.88", "2.88")
    assert (over("harris", "isl-ppcg"), over("interpolate", "isl-ppcg")) == ("7.16", "6.69")


def test_fig3_the_dedicated_configuration_loses_its_advantage_as_the_dataset_grows():
    from repro.experiments.fig3 import run_fig3

    sizes = (("large", 1.0), ("4xlarge", 4.0), ("8xlarge", 8.0), ("16xlarge", 16.0))
    points = run_fig3("Intel1", sizes)
    dedicated = [point.dedicated_speedup for point in points]
    assert dedicated == sorted(dedicated, reverse=True)
    assert (format_speedup(dedicated[0]), format_speedup(dedicated[-1])) == ("3.58", "0.62")
    # The generic configuration behaves like Pluto itself at every size.
    for point in points:
        assert 0.5 <= point.pluto_style_speedup <= 2.0, point.size_label


def test_fig4_polytops_is_competitive_with_every_tool_in_geomean():
    from repro.experiments.fig4 import TOOL_ORDER, run_fig4

    rows = run_fig4("Intel1", ("jacobi-1d", "atax", "bicg", "gemm"))
    geomean = {
        tool: geometric_mean([row.speedups[tool] for row in rows]) for tool in TOOL_ORDER
    }
    for tool in TOOL_ORDER:
        assert geomean["polytops"] >= 0.9 * geomean[tool], tool
    assert {tool: format_speedup(value) for tool, value in geomean.items()} == {
        "polytops": "2.99", "pluto-lp-dfp": "2.20", "isl-ppcg": "1.38", "pluto+": "1.00",
    }
