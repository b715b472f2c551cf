"""The PolyTOPS configurable iterative polyhedral scheduler."""

from .config import (
    DEFAULT_DIMENSION,
    DimensionConfig,
    Directive,
    FusionSpec,
    SchedulerConfig,
    StrategyDecision,
    StrategyState,
)
from .core import PolyTOPSScheduler, SchedulingResult
from .cost import (
    CostFunction,
    register_cost_function,
    registered_cost_functions,
    resolve_cost_function,
)
from .custom_constraints import CustomConstraintParser
from .errors import ConfigurationError, SchedulingError
from .baselines import (
    Baseline,
    IslPpcgBaseline,
    PlutoBaseline,
    PlutoLpDfpBaseline,
    PlutoPlusBaseline,
)
from .strategies import (
    big_loops_first_style,
    feautrier_style,
    isl_style,
    kernel_specific,
    npu_vectorize_style,
    pluto_plus_style,
    pluto_style,
    tensor_scheduler_style,
)

__all__ = [
    "PolyTOPSScheduler",
    "SchedulingResult",
    "SchedulerConfig",
    "DimensionConfig",
    "Directive",
    "FusionSpec",
    "StrategyDecision",
    "StrategyState",
    "DEFAULT_DIMENSION",
    "CostFunction",
    "register_cost_function",
    "registered_cost_functions",
    "resolve_cost_function",
    "CustomConstraintParser",
    "ConfigurationError",
    "SchedulingError",
    "pluto_style",
    "pluto_plus_style",
    "tensor_scheduler_style",
    "feautrier_style",
    "isl_style",
    "big_loops_first_style",
    "npu_vectorize_style",
    "kernel_specific",
    "Baseline",
    "PlutoBaseline",
    "PlutoPlusBaseline",
    "PlutoLpDfpBaseline",
    "IslPpcgBaseline",
]
