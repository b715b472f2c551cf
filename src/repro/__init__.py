"""PolyTOPS reproduction: a reconfigurable and flexible polyhedral scheduler.

The primary entry point is the unified compilation pipeline:

.. code-block:: python

    import repro

    result = repro.compile(scop, config, machine="Intel1")
    session = repro.Session(machine="Intel1")
    results = session.compile_many(jobs)

Lower layers remain importable individually:

* building SCoPs (:mod:`repro.model`),
* dependence analysis (:mod:`repro.deps`),
* the configurable scheduler (:mod:`repro.scheduler`),
* post-processing (:mod:`repro.transform`), code generation
  (:mod:`repro.codegen`) and the machine models (:mod:`repro.machine`).
"""

from . import pipeline
from .deps import compute_dependences
from .machine import estimate_cycles, machine_by_name
from .model import Schedule, Scop, ScopBuilder
from .pipeline import CompilationJob, CompilationResult, Session
from .pipeline import compile as compile  # noqa: A001 - intentional front door
from .pipeline import compile_many
from .scheduler import PolyTOPSScheduler, SchedulerConfig, SchedulingResult

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "pipeline",
    "compile",
    "compile_many",
    "Session",
    "CompilationJob",
    "CompilationResult",
    "ScopBuilder",
    "Scop",
    "Schedule",
    "compute_dependences",
    "PolyTOPSScheduler",
    "SchedulingResult",
    "SchedulerConfig",
    "machine_by_name",
    "estimate_cycles",
]
