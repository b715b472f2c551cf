"""Whole-compile benchmark: ``python3 benchmarks/e2e/run.py``.

Without ``--workload`` it runs all four workloads, prints every end-to-end
metric with its unit and sample count, checks the outputs and appends the
run to ``history/``.  With ``--workload NAME --seed N --seconds S --trace 0|1``
it runs one workload and prints, as the last line, the JSON object the
benchmark contract asks for.  This process only spawns passes, collects their
JSON and aggregates; every timed pass runs in a fresh ``child.py`` process.
See README.md for the data sheet.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spec
from clock import CALIBRATION_REFERENCE_MS

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent.parent / "src"
STAGES = ("dependences", "schedule", "postprocess", "legality", "codegen", "evaluate")
#: A pass ends well inside the 180 s a run may take; a stuck one is killed.
PASS_TIMEOUT_S = 150


def spawn(mode: str, workload: str, seed: int, verify: bool = False) -> dict:
    """Run one pass in a fresh process (and process group) and parse its report."""
    environment = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCES), os.environ.get("PYTHONPATH")])),
        # Hash randomisation reorders set/dict iteration inside the solver
        # stack from process to process; pinned, passes are comparable.
        "PYTHONHASHSEED": "0",
    }
    request = {
        "mode": mode,
        "workload": workload,
        "seed": seed,
        "verify": verify,
        "spawned_at": time.time(),
    }
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        text=True,
        env=environment,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        # Also takes down a compilation server the pass may have started.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    if process.returncode != 0:
        raise SystemExit(f"{mode} pass of {workload} exited with {process.returncode}")
    return json.loads(output.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes until *seconds* of timed wall; another while half of it fits."""
    passes: list[dict] = []
    timed = 0.0
    while True:
        passes.append(spawn("timed", workload, seed, verify=not passes))
        last = sum(op["wall_ms"] for op in passes[-1]["ops"]) / 1e3
        timed += last
        if timed + last / 2 > seconds:
            return passes


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, int]]:
    """metric -> (value, samples behind it)."""
    per_case = defaultdict(list)
    for report in passes:
        for op in report["ops"]:
            per_case[op["case"]].append(op["ms"])
    hits = [ms for report in passes for ms in report["hit_ms"]]
    misses = [op["ms"] for report in passes for op in report["ops"] if op["kind"] == "miss"]
    # Cycles the pipeline itself simulated, else those of the output check.
    cycles = [
        op["cycles"] if op.get("cycles") is not None else op["check_cycles"]
        for op in passes[0]["ops"]
        if "check_cycles" in op
    ]
    walls = [sum(op["ms"] for op in report["ops"]) / 1e3 for report in passes]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in passes), len(passes)),
        "compile_wall_s": (statistics.median(walls), len(passes)),
        "compile_geomean_s": (
            geomean([statistics.median(ms) / 1e3 for ms in per_case.values()]),
            len(per_case),
        ),
        "sim_cycles_geomean": (geomean(cycles), len(cycles)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in passes), len(passes)),
        "hit_latency_ms_p50": (statistics.median(hits), len(hits)),
        "hit_latency_ms_p90": (spec.percentile(hits, 900), len(hits)),
        "miss_latency_ms_p50": (statistics.median(misses), len(misses)),
    }


def _answers(report: dict) -> dict:
    """What must repeat exactly from pass to pass."""
    return {
        "counts": report["counts"],
        "population": report.get("population"),
        "ops": [(op["case"], op.get("digest"), op.get("cycles")) for op in report["ops"]],
    }


def problems(passes: list[dict]) -> list[str]:
    """Failed ops and anything that should repeat exactly but did not."""
    found = [
        f"{op['case']}: {op['error']}"
        for report in passes
        for op in report["ops"]
        if op["error"] is not None
    ]
    if len(passes[0]["hit_ms"]) * len(passes) < 100:
        found.append("fewer than 10 hit samples beyond p90")
    for index, report in enumerate(passes[1:], start=2):
        if _answers(report) != _answers(passes[0]):
            found.append(f"pass {index} differs from pass 1 in an exact count or a schedule")
    return found


def as_timed(passes: list[dict]) -> tuple[float, float]:
    """What the reference clock took out: raw wall of a pass (s), calibration loop (ms)."""
    raw_s = statistics.median(sum(op["raw_ms"] for op in r["ops"]) / 1e3 for r in passes)
    loop_ms = statistics.median(ms for r in passes for ms in r["calibration_ms"])
    return raw_s, loop_ms


def trace(workload: str, seed: int, passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """The traced pass: every per-layer metric, and how the staged driver drifted."""
    staged = spawn("traced", workload, seed)
    reference = passes[0]
    layers = dict.fromkeys((metric["name"] for metric in spec.PER_LAYER), 0.0)
    known = set(layers)
    layers.update(reference["layers"])
    layers.update(staged["layers"])

    compiled = [op for op in reference["ops"] if "stages" in op]
    stage_total = 0.0
    for stage in STAGES:
        seconds = sum(op["stages"].get(stage, 0.0) for op in compiled)
        layers[f"pipeline.stage.{stage}_s"] = seconds
        stage_total += seconds
    layers["pipeline.stage_sum_share"] = stage_total / (sum(op["raw_ms"] for op in compiled) / 1e3)
    for name in ("dependence_hits", "dependence_misses"):
        layers[f"pipeline.{name}"] = reference["counts"][name]
    # The untraced stage times of the cases the staged driver ran.
    untraced = (
        sum(sum(stages.values()) for stages in reference["population_stages"].values())
        if "population_stages" in reference
        else stage_total
    )
    layers["obs.trace_overhead_share"] = staged["stage_s"] / untraced - 1.0
    layers["obs.raw_wall_s"], layers["obs.calibration_loop_ms"] = as_timed(passes)

    by_origin = defaultdict(list)
    for report in passes:
        for op in report["ops"]:
            by_origin[op.get("origin")].append(op["ms"])
    answered = by_origin["memory"] + by_origin["store"]
    for origin in ("memory", "store"):
        if by_origin[origin]:
            layers[f"service.{origin}_hit_latency_ms_p50"] = statistics.median(by_origin[origin])
    if spec.percentile_rank(len(answered)) >= 990:
        layers["service.hit_latency_ms_p99"] = spec.percentile(answered, 990)

    expected = reference.get("population") or {
        op["case"]: op["digest"] for op in reference["ops"] if "digest" in op
    }
    drift = [
        f"staged schedule of {case} differs from the pipeline's"
        for case, digest in staged["digests"].items()
        if expected.get(case) != digest
    ]
    drift += [
        f"staged cycles of {op['case']} differ from the pipeline's"
        for op in reference["ops"]
        if op.get("cycles") is not None and staged["cycles"][op["case"]] != op["cycles"]
    ]
    drift += [
        f"staged solver count {name} differs from the pipeline's"
        for name, value in staged["counts"].items()
        if reference["counts"].get(name, value) != value
    ]
    drift += [f"layer metric {name} is not in the data sheet" for name in layers.keys() - known]
    return layers, drift


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    passes = measure(workload, seed, seconds)
    found = problems(passes)
    layers: dict[str, float] = {}
    if traced:
        layers, drift = trace(workload, seed, passes)
        found += drift
    attempted = sum(len(report["ops"]) for report in passes)
    failed = sum(op["error"] is not None for report in passes for op in report["ops"])
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    report = {
        "workload": workload,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "correct": not found,
        "problems": found,
        "end_to_end": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in end_to_end(passes).items()
        },
        "per_layer": {
            name: {"value": value, "unit": units[name]} for name, value in layers.items()
        },
    }
    raw_s, loop_ms = as_timed(passes)
    print(f"\n== {workload}: {len(passes)} passes, {attempted} ops, {failed} failed ==")
    print(
        f"  raw wall {raw_s:.3f} s a pass; calibration loop {loop_ms:.2f} ms "
        f"(reference {CALIBRATION_REFERENCE_MS} ms)"
    )
    for name, entry in report["end_to_end"].items():
        print(f"  {name:<28}{entry['value']:>16.6g} {entry['unit']:<7} n={entry['samples']}")
    for name, entry in report["per_layer"].items():
        print(f"  {name:<40}{entry['value']:>16.6g} {entry['unit']}")
    for line in found:
        print(f"  PROBLEM {line}")
    return report


def append_history(reports: list[dict], seed: int, seconds: float) -> Path:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "nogit"
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = HERE / "history" / f"{stamp}-{sha}.json"
    path.parent.mkdir(exist_ok=True)
    document = {
        "utc": stamp,
        "sha": sha,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": reports,
    }
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def check_repeat(first: list[dict], second: list[dict]) -> list[str]:
    """Two back-to-back sets must agree within each metric's own bound."""
    bounds = {metric["name"]: metric["bound"] for metric in spec.END_TO_END}
    found = []
    print("\n== check-repeat: first median, second median, ratio ==")
    for before, after in zip(first, second):
        for name, bound in bounds.items():
            a, b = before["end_to_end"][name]["value"], after["end_to_end"][name]["value"]
            verdict = "ok" if abs(b / a - 1.0) <= bound else "OUT OF BOUND"
            print(f"  {before['workload']:<18}{name:<22}{a:>14.6g}{b:>14.6g}{b / a:>9.4f}  {verdict}")
            if verdict != "ok":
                found.append(f"{name} on {before['workload']} moved by {b / a - 1.0:+.1%}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    arguments = parser.parse_args()
    if not (SOURCES / "repro").is_dir():
        print(f"no program to measure: {SOURCES / 'repro'} is missing", file=sys.stderr)
        return 2

    def run_set(traced: bool) -> list[dict]:
        return [
            run_workload(name, arguments.seed, arguments.seconds, traced)
            for name in spec.WORKLOADS
        ]

    if arguments.workload is not None:
        report = run_workload(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
        shown = report["per_layer"] if arguments.trace else report["end_to_end"]
        print(
            json.dumps(
                {
                    "correct": report["correct"],
                    "attempted": report["attempted"],
                    "failed": report["failed"],
                    "metrics": {
                        name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in shown.items()
                    },
                }
            )
        )
        return 0 if report["correct"] else 1

    reports = run_set(bool(arguments.trace))
    found = [line for report in reports for line in report["problems"]]
    if arguments.check_repeat:
        found += check_repeat(reports, run_set(traced=False))
    print(f"\nhistory: {append_history(reports, arguments.seed, arguments.seconds)}")
    for line in found:
        print(f"PROBLEM {line}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
