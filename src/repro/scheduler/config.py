"""Scheduler configurations: the paper's JSON and programmatic interfaces.

A :class:`SchedulerConfig` collects everything that makes PolyTOPS
reconfigurable (Section III of the paper):

* **local configurations** — per-dimension cost function lists, new variables,
  custom constraints, fusion/distribution control;
* **global configurations** — directives (parallelize / vectorize / sequential)
  and auto-vectorisation;
* **options** — coefficient bounds, negative coefficients (Pluto+ mode),
  the default dimensionality-based fusion heuristic, tile sizes for the
  post-processing, and the solver stack's
  :class:`~repro.ilp.options.SolverOptions` (``solver_options``).

Configurations can be written as JSON documents (Listing 2 of the paper) or
built programmatically.  The dynamic "C++ interface" of the paper is modelled
by a Python callback (:attr:`SchedulerConfig.strategy_callback`) invoked before
each scheduling dimension with the current scheduling state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..ilp.options import SolverOptions
from .errors import ConfigurationError

if TYPE_CHECKING:
    from ..model.statement import Statement

__all__ = [
    "DimensionConfig",
    "FusionSpec",
    "Directive",
    "StrategyDecision",
    "StrategyState",
    "SchedulerConfig",
    "DEFAULT_DIMENSION",
    "resolve_statement",
]

DEFAULT_DIMENSION = "default"

KNOWN_DIRECTIVES = ("vectorize", "parallel", "sequential")


def resolve_statement(statements: Sequence["Statement"], identifier: str) -> "Statement":
    """The statement a configuration names: by name, or by its index as a string.

    Fusion groups, directives and custom-constraint symbols all name statements
    this way; a name that matches none is a :class:`ConfigurationError`.
    """
    for statement in statements:
        if statement.name == identifier:
            return statement
    for statement in statements:
        if str(statement.index) == identifier:
            return statement
    raise ConfigurationError(
        f"the configuration names an unknown statement {identifier!r}; known: "
        f"{[statement.name for statement in statements]} or their indices"
    )


@dataclass(frozen=True)
class DimensionConfig:
    """ILP construction options for one scheduling dimension."""

    cost_functions: tuple[str, ...] = ("proximity",)
    constraints: tuple[str, ...] = ()


@dataclass(frozen=True)
class FusionSpec:
    """Fusion/distribution control for one scheduling dimension.

    ``groups`` lists groups of statement identifiers (indices as strings or
    statement names); statements in the same group are fused at that dimension
    while different groups are distributed.  ``total_distribution`` distributes
    every statement separately.
    """

    dimension: int
    total_distribution: bool = False
    groups: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class Directive:
    """A global directive: parallelize, vectorize or keep sequential some loop.

    Only ``vectorize`` takes an ``iterator`` (the loop to vectorise); the
    scheduler does not honour one on ``parallel`` or ``sequential``, so such a
    directive is refused rather than compiled as if the iterator were absent.
    """

    kind: str
    statements: tuple[str, ...]
    iterator: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_DIRECTIVES:
            raise ConfigurationError(
                f"unknown directive {self.kind!r}; expected one of {KNOWN_DIRECTIVES}"
            )
        if self.iterator is not None and self.kind != "vectorize":
            raise ConfigurationError(
                f"a {self.kind!r} directive takes no iterator (got {self.iterator!r}); "
                "only 'vectorize' names one"
            )


@dataclass(frozen=True)
class StrategyDecision:
    """What a dynamic strategy callback decides for the next scheduling dimension."""

    cost_functions: tuple[str, ...] | None = None
    constraints: tuple[str, ...] | None = None
    recompute_last: bool = False


@dataclass
class StrategyState:
    """Scheduling state exposed to dynamic strategy callbacks.

    Mirrors the information available to the C++ interface of the paper: the
    dimension about to be computed, whether the previous dimension turned out
    parallel, whether it was already recomputed, the number of active (not yet
    satisfied) dependences and the schedule rows found so far.
    """

    dimension: int
    last_dimension_parallel: bool | None
    last_dimension_recomputed: bool
    active_dependences: int
    rows_so_far: dict[str, list]
    statements: list[str]


StrategyCallback = Callable[[StrategyState], StrategyDecision]


@dataclass
class SchedulerConfig:
    """A complete PolyTOPS configuration."""

    name: str = "custom"
    new_variables: tuple[str, ...] = ()
    ilp_construction: dict[int | str, DimensionConfig] = field(default_factory=dict)
    custom_constraints: dict[int | str, tuple[str, ...]] = field(default_factory=dict)
    fusion: tuple[FusionSpec, ...] = ()
    directives: tuple[Directive, ...] = ()
    auto_vectorize: bool = False
    allow_negative_coefficients: bool = False
    coefficient_bound: int = 4
    constant_bound: int = 16
    dimensionality_fusion_heuristic: bool = True
    strategy_callback: StrategyCallback | None = None
    tile_sizes: tuple[int, ...] = ()
    #: The :class:`~repro.ilp.options.SolverOptions` of the run (the branch &
    #: bound ``node_limit``); ``None`` means ``SolverOptions()``.  A limit
    #: either lets a search finish or raises: it never changes a schedule.
    solver_options: SolverOptions | None = None
    #: ``(snapshot, digest)`` of :func:`repro.pipeline.fingerprint.config_fingerprint`.
    _fingerprint_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The fingerprint memo stays out of pickles; it is computed again on demand.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    # ------------------------------------------------------------------ #
    # Accessors used by the scheduling loop
    # ------------------------------------------------------------------ #
    def dimension_config(self, dimension: int) -> DimensionConfig:
        """The ILP construction options for *dimension* (falling back to ``default``)."""
        if dimension in self.ilp_construction:
            return self.ilp_construction[dimension]
        if DEFAULT_DIMENSION in self.ilp_construction:
            return self.ilp_construction[DEFAULT_DIMENSION]
        return DimensionConfig()

    def constraints_for(self, dimension: int) -> tuple[str, ...]:
        """Custom constraints for *dimension*: dimension-specific plus defaults."""
        specific = self.custom_constraints.get(dimension, ())
        default = self.custom_constraints.get(DEFAULT_DIMENSION, ())
        combined = tuple(specific) + tuple(default)
        inline = self.dimension_config(dimension).constraints
        return combined + tuple(inline)

    def fusion_for(self, dimension: int) -> FusionSpec | None:
        for spec in self.fusion:
            if spec.dimension == dimension:
                return spec
        return None

    # ------------------------------------------------------------------ #
    # JSON interface (Listing 2)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_json(cls, source: str | Path | Mapping[str, Any], name: str | None = None) -> "SchedulerConfig":
        """Build a configuration from a JSON document, file path or mapping."""
        looks_like_path = isinstance(source, Path) or (
            isinstance(source, str)
            and "{" not in source
            and "\n" not in source
            and len(source) < 4096
        )
        if looks_like_path and Path(str(source)).exists():
            data = json.loads(Path(source).read_text())
        elif isinstance(source, str):
            data = json.loads(source)
        elif isinstance(source, Mapping):
            data = dict(source)
        else:
            raise ConfigurationError(f"unsupported configuration source: {source!r}")

        strategy = data.get("scheduling_strategy", data)
        config = cls(name=name or str(strategy.get("name", "json")))

        config.new_variables = tuple(strategy.get("new_variables", ()))

        # The registry is filled where the cost package is imported; the
        # package imports this module, so it is looked up here.
        from .cost import registered_cost_functions

        known = {*registered_cost_functions(), *config.new_variables}
        ilp_construction: dict[int | str, DimensionConfig] = {}
        for entry in strategy.get("ILP_construction", []):
            dimension = _parse_dimension(entry.get("scheduling_dimension", DEFAULT_DIMENSION))
            cost_functions = tuple(entry.get("cost_functions", ("proximity",)))
            unknown = [name for name in cost_functions if name not in known]
            if unknown:
                raise ConfigurationError(
                    f"unknown cost function(s) {unknown}; known: "
                    f"{registered_cost_functions()} or the declared new_variables "
                    f"{list(config.new_variables)}"
                )
            ilp_construction[dimension] = DimensionConfig(
                cost_functions=cost_functions,
                constraints=tuple(entry.get("constraints", ())),
            )
        config.ilp_construction = ilp_construction

        custom_constraints: dict[int | str, tuple[str, ...]] = {}
        for entry in strategy.get("custom_constraints", []):
            dimension = _parse_dimension(entry.get("scheduling_dimension", DEFAULT_DIMENSION))
            custom_constraints[dimension] = tuple(entry.get("constraints", ()))
        config.custom_constraints = custom_constraints

        fusion: list[FusionSpec] = []
        for entry in strategy.get("fusion", []):
            fusion.append(
                FusionSpec(
                    dimension=_parse_dimension(
                        entry.get("scheduling_dimension", 0), allow_default=False
                    ),
                    total_distribution=bool(entry.get("total_distribution", False)),
                    groups=tuple(
                        tuple(str(member) for member in group)
                        for group in entry.get("stmts_fusion", [])
                    ),
                )
            )
        config.fusion = tuple(fusion)

        directives: list[Directive] = []
        for entry in strategy.get("directives", []):
            directives.append(
                Directive(
                    kind=str(entry["type"]),
                    statements=_parse_statement_list(entry.get("stmts", ())),
                    # JSON null is no iterator, as an absent key is.
                    iterator=(
                        str(entry["iterator"]) if entry.get("iterator") is not None else None
                    ),
                )
            )
        config.directives = tuple(directives)

        options = strategy.get("options", {})
        config.auto_vectorize = bool(options.get("auto_vectorization", strategy.get("auto_vectorization", False)))
        config.allow_negative_coefficients = bool(options.get("negative_coefficients", False))
        config.coefficient_bound = _integral_option(
            "coefficient_bound", options.get("coefficient_bound", config.coefficient_bound), 0
        )
        config.constant_bound = _integral_option(
            "constant_bound", options.get("constant_bound", config.constant_bound), 0
        )
        config.dimensionality_fusion_heuristic = bool(
            options.get("dimensionality_fusion_heuristic", config.dimensionality_fusion_heuristic)
        )
        config.tile_sizes = tuple(
            _integral_option("tile_sizes", size, 1) for size in options.get("tile_sizes", ())
        )
        removed = [
            key
            for key in ("solver_workers", "solver_processes", "solver_core")
            if options.get(key) is not None
        ]
        if removed:
            raise ConfigurationError(
                f"option(s) {removed} were removed; the solver has one knob, "
                "'solver_options': {'node_limit': N}"
            )
        solver_options = options.get("solver_options")
        if solver_options is not None:
            try:
                config.solver_options = SolverOptions.from_dict(solver_options)
            except (TypeError, ValueError) as error:
                raise ConfigurationError(f"invalid solver_options: {error}") from error
        return config

    def to_json(self) -> str:
        """Serialise the static part of the configuration back to JSON."""
        document: dict[str, Any] = {
            "scheduling_strategy": {
                "name": self.name,
                "new_variables": list(self.new_variables),
                "ILP_construction": [
                    {
                        "scheduling_dimension": dimension,
                        "cost_functions": list(config.cost_functions),
                        "constraints": list(config.constraints),
                    }
                    for dimension, config in self.ilp_construction.items()
                ],
                "custom_constraints": [
                    {"scheduling_dimension": dimension, "constraints": list(constraints)}
                    for dimension, constraints in self.custom_constraints.items()
                ],
                "fusion": [
                    {
                        "scheduling_dimension": spec.dimension,
                        "total_distribution": spec.total_distribution,
                        "stmts_fusion": [list(group) for group in spec.groups],
                    }
                    for spec in self.fusion
                ],
                "directives": [
                    {
                        "type": directive.kind,
                        "stmts": list(directive.statements),
                        **({"iterator": directive.iterator} if directive.iterator else {}),
                    }
                    for directive in self.directives
                ],
                "options": {
                    "auto_vectorization": self.auto_vectorize,
                    "negative_coefficients": self.allow_negative_coefficients,
                    "coefficient_bound": self.coefficient_bound,
                    "constant_bound": self.constant_bound,
                    "dimensionality_fusion_heuristic": self.dimensionality_fusion_heuristic,
                    "tile_sizes": list(self.tile_sizes),
                    "solver_options": (
                        self.solver_options.to_dict()
                        if self.solver_options is not None
                        else None
                    ),
                },
            }
        }
        return json.dumps(document, indent=2)


def _parse_dimension(raw: Any, allow_default: bool = True) -> int | str:
    """A ``scheduling_dimension``: an integer ``>= 0`` by the rule of
    :func:`_integral_option`, or ``"default"`` where *allow_default*."""
    if allow_default and raw == DEFAULT_DIMENSION:
        return DEFAULT_DIMENSION
    return _integral_option("scheduling_dimension", raw, 0)


def _integral_option(key: str, raw: Any, minimum: int) -> int:
    """*raw* as an integer ``>= minimum``, or :class:`ConfigurationError`.

    The rule of ``SolverOptions.node_limit``: ``true`` is an int and ``2.5``
    truncates, so neither is accepted; an integral string still decodes.
    """
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if (
        isinstance(raw, bool)
        or value is None
        or value < minimum
        or not (isinstance(raw, str) or value == raw)
    ):
        raise ConfigurationError(f"option {key}={raw!r} must be an integer >= {minimum}")
    return value


def _parse_statement_list(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(str(member) for member in value)
