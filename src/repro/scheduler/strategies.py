"""Predefined scheduling strategies (paper Section IV, Listings 3 and 5).

Each helper returns a :class:`SchedulerConfig` reproducing one of the
strategies evaluated in the paper:

* :func:`pluto_style`            — proximity cost function only (Listing 5, left);
* :func:`tensor_scheduler_style` — contiguity then proximity, with the
  ``no-skewing`` constraint (Listing 5, right);
* :func:`feautrier_style`        — the Feautrier cost function at every dimension;
* :func:`isl_style`              — proximity by default with a Feautrier
  recomputation whenever a dimension turns out sequential (Listing 3);
* :func:`big_loops_first_style`  — the BLF cost function (Section III-A1);
* :func:`npu_vectorize_style`    — the MindSpore/Ascend configuration used for
  Table I: auto-vectorisation plus proximity;
* :func:`kernel_specific`        — a thin wrapper building ad-hoc kernel
  configurations (cost functions, fusion, directives) as used for the
  "kernel-spec" series of Fig. 2/4.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .config import (
    DEFAULT_DIMENSION,
    DimensionConfig,
    Directive,
    FusionSpec,
    SchedulerConfig,
    StrategyDecision,
    StrategyState,
)

__all__ = [
    "pluto_style",
    "pluto_plus_style",
    "tensor_scheduler_style",
    "feautrier_style",
    "isl_style",
    "big_loops_first_style",
    "npu_vectorize_style",
    "kernel_specific",
]


def pluto_style(**options) -> SchedulerConfig:
    """Pluto's strategy: proximity cost at every dimension."""
    config = SchedulerConfig(
        name="pluto-style",
        ilp_construction={DEFAULT_DIMENSION: DimensionConfig(("proximity",))},
    )
    return _apply_options(config, options)


def pluto_plus_style(**options) -> SchedulerConfig:
    """Pluto+ proxy: the Pluto strategy with negative coefficients enabled."""
    config = pluto_style(**options)
    config.name = "pluto-plus-style"
    config.allow_negative_coefficients = True
    return config


def tensor_scheduler_style(**options) -> SchedulerConfig:
    """Tensor-scheduler strategy: contiguity first, proximity second, no skewing."""
    config = SchedulerConfig(
        name="tensor-scheduler-style",
        ilp_construction={
            DEFAULT_DIMENSION: DimensionConfig(("contiguity", "proximity"))
        },
        custom_constraints={DEFAULT_DIMENSION: ("no-skewing",)},
    )
    return _apply_options(config, options)


def feautrier_style(**options) -> SchedulerConfig:
    """Feautrier's strategy: carry as many dependences as possible per dimension."""
    config = SchedulerConfig(
        name="feautrier-style",
        ilp_construction={DEFAULT_DIMENSION: DimensionConfig(("feautrier",))},
    )
    return _apply_options(config, options)


def _isl_callback(state: StrategyState) -> StrategyDecision:
    """Listing 3: Feautrier fallback when the last dimension is not parallel."""
    if (
        state.last_dimension_parallel is False
        and not state.last_dimension_recomputed
    ):
        return StrategyDecision(cost_functions=("feautrier",), recompute_last=True)
    return StrategyDecision(cost_functions=("proximity",))


def isl_style(**options) -> SchedulerConfig:
    """isl's strategy: Pluto-style with a Feautrier fallback (dynamic configuration)."""
    config = SchedulerConfig(
        name="isl-style",
        ilp_construction={DEFAULT_DIMENSION: DimensionConfig(("proximity",))},
        strategy_callback=_isl_callback,
    )
    return _apply_options(config, options)


def big_loops_first_style(**options) -> SchedulerConfig:
    """Schedule the largest loops outermost (useful with limited outer parallelism)."""
    config = SchedulerConfig(
        name="big-loops-first-style",
        ilp_construction={
            DEFAULT_DIMENSION: DimensionConfig(("bigLoopsFirst", "proximity"))
        },
    )
    return _apply_options(config, options)


def npu_vectorize_style(
    directives: Sequence[Directive] = (), **options
) -> SchedulerConfig:
    """The MindSpore/Ascend custom-operator configuration (Table I).

    Auto-vectorisation detects the stride-1 loop of every statement and forces
    it innermost; explicit ``vectorize`` directives can override the detection
    for specific statements.
    """
    config = SchedulerConfig(
        name="npu-vectorize",
        ilp_construction={DEFAULT_DIMENSION: DimensionConfig(("proximity",))},
        # Vector code on the NPU is never skewed: keep every schedule row a
        # plain loop so the innermost dimension stays a clean vector loop.
        custom_constraints={DEFAULT_DIMENSION: ("no-skewing",)},
        directives=tuple(directives),
        auto_vectorize=True,
    )
    return _apply_options(config, options)


def kernel_specific(
    name: str = "kernel-specific",
    cost_functions: Sequence[str] = ("proximity",),
    constraints: Sequence[str] = (),
    fusion: Sequence[FusionSpec] = (),
    directives: Sequence[Directive] = (),
    auto_vectorize: bool = False,
    per_dimension: Mapping[int, Sequence[str]] | None = None,
    **options,
) -> SchedulerConfig:
    """Build a kernel-specific configuration from its ingredients.

    ``per_dimension`` optionally overrides the cost-function list for specific
    scheduling dimensions, as the JSON interface allows.
    """
    ilp_construction: dict[int | str, DimensionConfig] = {
        DEFAULT_DIMENSION: DimensionConfig(tuple(cost_functions))
    }
    for dimension, functions in (per_dimension or {}).items():
        ilp_construction[dimension] = DimensionConfig(tuple(functions))
    config = SchedulerConfig(
        name=name,
        ilp_construction=ilp_construction,
        custom_constraints={DEFAULT_DIMENSION: tuple(constraints)} if constraints else {},
        fusion=tuple(fusion),
        directives=tuple(directives),
        auto_vectorize=auto_vectorize,
    )
    return _apply_options(config, options)


def _apply_options(config: SchedulerConfig, options: Mapping[str, object]) -> SchedulerConfig:
    for key, value in options.items():
        if not hasattr(config, key):
            raise AttributeError(f"SchedulerConfig has no option {key!r}")
        setattr(config, key, value)
    return config
