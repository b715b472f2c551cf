"""Fixed corpora of the four workloads and everything drawn from ``--seed``.

The kernel lists never change with the seed; the seed only shuffles the
kernel order, draws the service request stream and picks the reduced problem
sizes of the output check.  ``repro`` is imported lazily: the parent process
and the contract test only need the names.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Everything a run leaves behind (trace files, scratch stores) goes here.
OUT = Path(__file__).resolve().parent / "out"

#: Solver counters that repeat exactly from pass to pass (summed over the pass).
EXACT_COUNTERS = (
    "solve_calls",
    "pivots",
    "nodes",
    "fm_rows_generated",
    "fm_rows_emitted",
    "irredundancy_probes",
)


def schedule_digest(schedule) -> str:
    """A hash of the exact (rational) schedule, comparable across processes."""
    from repro.pipeline.serialize import encode_schedule

    text = json.dumps(encode_schedule(schedule), sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


@dataclass(frozen=True)
class Corpus:
    """One workload's inputs: kernels x strategies, compiled on *machine*."""

    kernels: tuple[str, ...]
    strategies: tuple[str, ...] = ("pluto_style",)
    machine: str | None = None


CORPORA = {
    "polybench_full": Corpus(
        ("gemm", "jacobi-2d", "cholesky", "atax", "trisolv", "durbin", "seidel-2d", "gesummv"),
        machine="Intel1",
    ),
    "deepnest_schedule": Corpus(
        ("jacobi-4d", "heat-4d", "tc-6d", "sumred-4d", "polymage-deep", "harris",
         "pyramid-blending"),
    ),
    "triangular_sweep": Corpus(
        ("cholesky", "lu", "trmm", "durbin", "correlation", "covariance", "symm",
         "gramschmidt", "trisolv"),
        ("pluto_style", "tensor_scheduler_style", "isl_style", "feautrier_style",
         "big_loops_first_style"),
    ),
    # Stored population of the service; no strategy here falls back on these
    # kernels (a failed result is never stored, so it could not be a hit) and
    # none carries a strategy callback (isl_style cannot cross the wire).
    "service_mixed": Corpus(
        ("mvt", "atax", "bicg", "gesummv", "trisolv", "gemm", "cholesky", "jacobi-2d"),
        ("pluto_style", "tensor_scheduler_style", "big_loops_first_style"),
    ),
}

#: Kernels requested with fresh parameter values, so the full pipeline runs.
SERVICE_MISS_KERNELS = ("mvt", "bicg", "atax", "trisolv")
SERVICE_REQUESTS = 600
SERVICE_MISS_SHARE = 0.15
#: Repeat compiles of each cached case that sample the in-process hit latency.
HIT_SAMPLES = 2000
#: Machine model of ``sim_cycles_geomean`` where the pipeline itself has none.
CHECK_MACHINE = "Intel1"


def build(kernel: str):
    """Instantiate *kernel* from whichever suite registers it."""
    from repro.suites.deepnest import DEEPNEST_KERNELS, build_deepnest
    from repro.suites.polybench import KERNELS, build_kernel
    from repro.suites.polymage import build_pipeline

    if kernel in KERNELS:
        return build_kernel(kernel)
    if kernel in DEEPNEST_KERNELS:
        return build_deepnest(kernel)
    return build_pipeline(kernel)


def config(strategy: str):
    """A fresh configuration of the named strategy."""
    from repro.scheduler import strategies

    return getattr(strategies, strategy)()


def cases(workload: str, seed: int) -> list[tuple[str, str]]:
    """(kernel, strategy) in compile order: kernels shuffled, strategies fixed."""
    corpus = CORPORA[workload]
    kernels = list(corpus.kernels)
    random.Random(seed).shuffle(kernels)
    return [(kernel, strategy) for kernel in kernels for strategy in corpus.strategies]


def _balanced(items: list, count: int, rng: random.Random) -> list:
    """*count* draws covering *items* evenly; the remainder is drawn from the seed."""
    return items * (count // len(items)) + rng.sample(items, count % len(items))


def request_stream(seed: int, requests: int = SERVICE_REQUESTS) -> list[tuple]:
    """The closed-loop request stream of ``service_mixed``.

    ``("hit", kernel, strategy)`` names a stored key and ``("miss", kernel,
    value)`` a compile with every parameter set to the unique *value*.  The
    hit/miss split and the per-key counts are exact, so the work of a stream
    does not depend on the seed; only its order and the values do.
    """
    rng = random.Random(seed)
    misses = round(requests * SERVICE_MISS_SHARE)
    stored = cases("service_mixed", 0)
    stream = [("hit", *key) for key in _balanced(stored, requests - misses, rng)]
    values = rng.sample(range(1_000, 1_000_000), misses)
    stream += [
        ("miss", kernel, value)
        for kernel, value in zip(_balanced(list(SERVICE_MISS_KERNELS), misses, rng), values)
    ]
    rng.shuffle(stream)
    return stream


def check_parameters(scop, rng: random.Random | None) -> dict[str, int]:
    """Small problem sizes for the output check.

    Drawn from *rng*, or the fixed upper end of the range when it is ``None``.
    Sizes stay this small because some legal schedules scan a bounding box far
    larger than the domain (correlation under tensor_scheduler_style runs
    11 506 guards for 104 instances at size 4) and the interpreter pays for it.
    """
    high = 4 if scop.max_depth() <= 6 else 3
    return {
        name: min(scop.parameter_values[name], rng.randint(high - 1, high) if rng else high)
        for name in scop.parameters
    }
