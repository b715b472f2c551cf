"""Fast contract test of the whole-compile benchmark (no compiles, < 5 s)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_and_limits():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = list(spec.WORKLOADS) + [metric["name"] for metric in metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("lower", "higher") for metric in metrics)
    assert all(0 < metric["bound"] <= 0.25 for metric in spec.END_TO_END)
    setup = next(metric for metric in spec.END_TO_END if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in spec.END_TO_END)


def test_every_workload_has_a_reason_and_a_corpus():
    assert set(spec.WORKLOADS) == set(workloads.CORPORA)
    assert all(why and "\n" not in why and len(why) <= 200 for why in spec.WORKLOADS.values())


def test_every_layer_metric_says_what_it_moves():
    assert all(spec.moves(metric["name"]) for metric in spec.PER_LAYER)
    layers = {metric["name"].split(".")[0] for metric in spec.PER_LAYER}
    assert layers <= {path.name for path in (HERE.parent.parent / "src" / "repro").iterdir()}


def test_percentile_helper_wants_ten_samples_beyond():
    assert [spec.percentile_rank(n) for n in (1, 99, 100, 999, 1000, 9999, 10000)] == [
        500, 500, 900, 900, 990, 990, 999,
    ]
    assert spec.percentile(list(range(1, 101)), 900) == 90
    assert spec.percentile([3.0, 1.0, 2.0], 500) == 2.0


def test_reference_clock_takes_out_loops_and_slowdown():
    reference = clock.CALIBRATION_REFERENCE_MS
    timer = object.__new__(clock.ReferenceClock)  # no signal handler, no loops run
    # The box runs at half speed; one loop ran inside the op, one just before it.
    timer.loops = [(9.9, 2 * reference), (10.5, 2 * reference), (20.0, reference)]
    op = {"start": 10.0, "wall_ms": 1000.0 + 2 * reference}
    late = {"start": 30.0, "wall_ms": 10.0}  # the timer was held up: the nearest loop counts
    timer.convert([op, late])
    assert op["raw_ms"] == 1000.0 and op["ms"] == 500.0
    assert late["raw_ms"] == late["ms"] == 10.0


def test_request_stream_follows_the_seed():
    stream = workloads.request_stream(7)
    assert stream == workloads.request_stream(7)
    assert stream != workloads.request_stream(8)
    misses = [request for request in stream if request[0] == "miss"]
    assert len(stream) == workloads.SERVICE_REQUESTS
    assert len(misses) == round(workloads.SERVICE_REQUESTS * workloads.SERVICE_MISS_SHARE)
    assert len({value for _, _, value in misses}) == len(misses)
    stored = set(workloads.cases("service_mixed", 0))
    assert {(kernel, strategy) for kind, kernel, strategy in stream if kind == "hit"} == stored
    assert workloads.cases("triangular_sweep", 1) != workloads.cases("triangular_sweep", 2)
    assert sorted(workloads.cases("triangular_sweep", 1)) == sorted(
        workloads.cases("triangular_sweep", 2)
    )


def test_benchmark_json_lists_what_the_runner_emits():
    document = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    op = {"case": "k/s", "kind": "miss", "ms": 2.0, "cycles": 5.0, "check_cycles": 7.0}
    report = {"setup_s": 1.0, "rss_mb": 1.0, "ops": [op], "hit_ms": [1.0]}
    emitted = run.end_to_end([report, report])
    assert list(emitted) == [metric["name"] for metric in document["end_to_end"]]
    cycles, samples = emitted["sim_cycles_geomean"]
    assert samples == 1 and abs(cycles - 5.0) < 1e-9
