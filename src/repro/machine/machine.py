"""Machine models.

Each :class:`MachineModel` is a small analytical description of a target
machine: core count, SIMD width, cache hierarchy and a handful of per-event
costs.  They replace the physical machines of the paper's evaluation:

* :func:`amd_epyc_7452`        — the paper's "AMD" machine (32 cores, 256 MiB L3),
* :func:`intel_xeon_e5_2683`   — "Intel1" (2 x 16 cores, 80 MiB L3),
* :func:`intel_xeon_silver_4215` — "Intel2" (2 x 8 cores, 22 MiB L3),
* :func:`ascend_910`           — the NPU used for the custom-operator study
  (Table I): a machine whose vector unit is wide and whose scalar pipeline is
  comparatively very slow, so that missing a vectorisation opportunity is as
  costly as it is on the real accelerator.

Cache capacities are scaled down by the same factor as the problem sizes
(MINI/SMALL datasets instead of the paper's LARGE/EXTRALARGE), so the relative
pressure on each level is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .cache import CacheHierarchy, CacheLevelSpec

__all__ = [
    "MachineModel",
    "amd_epyc_7452",
    "intel_xeon_e5_2683",
    "intel_xeon_silver_4215",
    "ascend_910",
    "machine_by_name",
]


@dataclass
class MachineModel:
    """Analytical performance model of one target machine."""

    name: str
    cores: int
    threads_per_core: int = 2
    vector_width: int = 4                  # elements per SIMD operation
    frequency_ghz: float = 2.5
    cache_levels: list[CacheLevelSpec] = field(default_factory=list)
    memory_latency_cycles: int = 200
    operation_cycles: float = 1.0          # cost of one scalar statement "operation"
    scalar_penalty: float = 1.0            # multiplier when a vectorisable op stays scalar
    loop_overhead_cycles: float = 1.0      # per loop iteration (control flow)
    guard_overhead_cycles: float = 0.5     # per evaluated guard condition set
    parallel_startup_cycles: float = 2000.0  # per entry into a parallel region (barrier/fork)
    parallel_efficiency: float = 0.85
    vector_efficiency: float = 0.8
    # CPUs auto-vectorise stride-1 innermost loops in the backend compiler; the
    # Ascend NPU only uses its vector unit when the kernel generator explicitly
    # marks the loop as vectorised (which is exactly why the paper's directives
    # matter there).
    requires_explicit_vectorization: bool = False
    #: ``(snapshot, digest)`` of :func:`repro.pipeline.fingerprint.machine_fingerprint`.
    _fingerprint_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The fingerprint memo stays out of pickles; it is computed again on demand.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def hierarchy(self) -> CacheHierarchy:
        """A fresh cache hierarchy for one simulation run."""
        return CacheHierarchy(list(self.cache_levels), self.memory_latency_cycles)

    def effective_parallelism(self, iterations: float) -> float:
        """Usable speedup from a parallel loop of the given trip count."""
        if iterations <= 1:
            return 1.0
        usable = min(float(self.cores), iterations)
        return max(1.0, usable * self.parallel_efficiency)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.cores} cores, SIMD x{self.vector_width}, "
            f"{len(self.cache_levels)} cache levels"
        )


def amd_epyc_7452() -> MachineModel:
    """The paper's AMD machine: EPYC 7452, 32 cores / 2 sockets, 256 MiB L3."""
    return MachineModel(
        name="AMD",
        cores=32,
        vector_width=4,
        frequency_ghz=2.35,
        cache_levels=[
            CacheLevelSpec("L1", 4 * 1024, 64, 8, 4),
            CacheLevelSpec("L2", 32 * 1024, 64, 8, 14),
            CacheLevelSpec("L3", 512 * 1024, 64, 16, 50),
        ],
        memory_latency_cycles=220,
        parallel_startup_cycles=2500.0,
    )


def intel_xeon_e5_2683() -> MachineModel:
    """The paper's Intel1 machine: Xeon E5-2683, 2 x 16 cores, 80 MiB L3."""
    return MachineModel(
        name="Intel1",
        cores=32,
        vector_width=4,
        frequency_ghz=2.1,
        cache_levels=[
            CacheLevelSpec("L1", 4 * 1024, 64, 8, 4),
            CacheLevelSpec("L2", 16 * 1024, 64, 8, 12),
            CacheLevelSpec("L3", 160 * 1024, 64, 16, 45),
        ],
        memory_latency_cycles=230,
        parallel_startup_cycles=3000.0,
    )


def intel_xeon_silver_4215() -> MachineModel:
    """The paper's Intel2 machine: Xeon Silver 4215, 2 x 8 cores, 22 MiB L3."""
    return MachineModel(
        name="Intel2",
        cores=16,
        vector_width=4,
        frequency_ghz=2.5,
        cache_levels=[
            CacheLevelSpec("L1", 4 * 1024, 64, 8, 4),
            CacheLevelSpec("L2", 16 * 1024, 64, 8, 12),
            CacheLevelSpec("L3", 44 * 1024, 64, 11, 40),
        ],
        memory_latency_cycles=240,
        parallel_startup_cycles=2800.0,
    )


def ascend_910() -> MachineModel:
    """An Ascend-910-like NPU model for the custom-operator study (Table I).

    The vector unit processes 16 fp32 elements per instruction out of a fast
    unified buffer; scalar fallback code is an order of magnitude slower, which
    is what makes the vectorisation directives of the paper worth a 20-30x
    speedup on the trsm operators.
    """
    return MachineModel(
        name="Ascend910",
        cores=2,                      # cube/vector cores available to one operator
        threads_per_core=1,
        vector_width=16,
        frequency_ghz=1.0,
        cache_levels=[
            CacheLevelSpec("UB", 256 * 1024, 32, 16, 2),   # unified buffer
        ],
        memory_latency_cycles=300,
        operation_cycles=1.0,
        scalar_penalty=8.0,
        loop_overhead_cycles=2.0,
        guard_overhead_cycles=1.0,
        parallel_startup_cycles=500.0,
        parallel_efficiency=0.9,
        vector_efficiency=0.95,
        requires_explicit_vectorization=True,
    )


_MACHINES = {
    "amd": amd_epyc_7452,
    "intel1": intel_xeon_e5_2683,
    "intel2": intel_xeon_silver_4215,
    "ascend": ascend_910,
    "ascend910": ascend_910,
    "npu": ascend_910,
}


def machine_by_name(name: str) -> MachineModel:
    """Look up a machine model by (case-insensitive) name."""
    key = name.lower()
    if key not in _MACHINES:
        raise KeyError(f"unknown machine {name!r}; known: {sorted(_MACHINES)}")
    return _MACHINES[key]()
