"""Tests for configurations, the JSON interface and the custom-constraint language."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from repro.ilp import ConstraintSense
from repro.scheduler import (
    ConfigurationError,
    CustomConstraintParser,
    DimensionConfig,
    Directive,
    SchedulerConfig,
    big_loops_first_style,
    feautrier_style,
    isl_style,
    npu_vectorize_style,
    pluto_plus_style,
    pluto_style,
    registered_cost_functions,
    resolve_cost_function,
    tensor_scheduler_style,
)
from repro.scheduler.config import DEFAULT_DIMENSION
from repro.scheduler.naming import (
    constant_coefficient,
    iterator_coefficient,
    parameter_coefficient,
)

LISTING2_JSON = """
{
  "scheduling_strategy" : {
    "new_variables" : ["x"],
    "ILP_construction" : [
      {"scheduling_dimension" : "default",
       "cost_functions" : ["contiguity", "proximity", "x"]}
    ],
    "custom_constraints" : [
      {"scheduling_dimension" : "default",
       "constraints" : ["x - S0_it_i >= 0"]}
    ],
    "fusion" : [
      {"scheduling_dimension" : 0,
       "total_distribution" : false,
       "stmts_fusion" : [["0", "1"], ["2"]]}
    ],
    "directives" : [
      {"type" : "vectorize", "stmts" : "0", "iterator" : "1"}
    ]
  }
}
"""


class TestSchedulerConfigJson:
    def test_listing2_roundtrip(self):
        config = SchedulerConfig.from_json(LISTING2_JSON)
        assert config.new_variables == ("x",)
        assert config.dimension_config(0).cost_functions == ("contiguity", "proximity", "x")
        assert config.constraints_for(0) == ("x - S0_it_i >= 0",)
        fusion = config.fusion_for(0)
        assert fusion is not None and fusion.groups == (("0", "1"), ("2",))
        assert config.directives[0].kind == "vectorize"
        # Serialise back and parse again.
        again = SchedulerConfig.from_json(config.to_json())
        assert again.dimension_config(0).cost_functions == config.dimension_config(0).cost_functions

    def test_dimension_specific_overrides_default(self):
        config = SchedulerConfig(
            ilp_construction={
                DEFAULT_DIMENSION: DimensionConfig(("proximity",)),
                1: DimensionConfig(("feautrier",)),
            }
        )
        assert config.dimension_config(0).cost_functions == ("proximity",)
        assert config.dimension_config(1).cost_functions == ("feautrier",)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ConfigurationError):
            Directive(kind="unroll", statements=("0",))

    def test_unknown_cost_function_rejected_where_the_json_is_read(self):
        def document(*names, new_variables=()):
            return {
                "scheduling_strategy": {
                    "new_variables": list(new_variables),
                    "ILP_construction": [{"cost_functions": list(names)}],
                }
            }

        with pytest.raises(ConfigurationError, match="unknown cost function.*'proximty'"):
            SchedulerConfig.from_json(document("proximity", "proximty"))
        # A declared variable is a cost function, and only where declared.
        config = SchedulerConfig.from_json(document("x", "proximity", new_variables=["x"]))
        assert config.dimension_config(0).cost_functions == ("x", "proximity")
        with pytest.raises(ConfigurationError, match="'x'"):
            SchedulerConfig.from_json(document("x"))

    def test_options_section(self):
        config = SchedulerConfig.from_json(
            {
                "scheduling_strategy": {
                    "options": {
                        "auto_vectorization": True,
                        "negative_coefficients": True,
                        "coefficient_bound": 7,
                        "tile_sizes": [16, 16],
                    }
                }
            }
        )
        assert config.auto_vectorize
        assert config.allow_negative_coefficients
        assert config.coefficient_bound == 7
        assert config.tile_sizes == (16, 16)

    def test_with_directives_copy(self):
        config = SchedulerConfig()
        extended = dataclasses.replace(
            config, directives=config.directives + (Directive("parallel", ("0",)),)
        )
        assert not config.directives
        assert extended.directives[0].kind == "parallel"


class TestStrategies:
    def test_predefined_strategies_exist(self):
        for factory in (
            pluto_style, tensor_scheduler_style, isl_style, feautrier_style,
            big_loops_first_style, npu_vectorize_style, pluto_plus_style,
        ):
            assert isinstance(factory(), SchedulerConfig)

    def test_tensor_style_has_no_skewing(self):
        config = tensor_scheduler_style()
        assert "no-skewing" in config.constraints_for(0)

    def test_pluto_plus_allows_negative_coefficients(self):
        assert pluto_plus_style().allow_negative_coefficients

    def test_isl_style_has_dynamic_callback(self):
        assert isl_style().strategy_callback is not None

    def test_registered_cost_functions(self):
        names = registered_cost_functions()
        assert {"proximity", "feautrier", "contiguity", "bigLoopsFirst"} <= set(names)

    def test_resolve_unknown_cost_function(self):
        with pytest.raises(ConfigurationError):
            resolve_cost_function("not-a-cost")

    def test_resolve_user_variable_cost(self):
        cost = resolve_cost_function("x", user_variables=("x",))
        assert cost.name == "x"


class TestCustomConstraintParser:
    @pytest.fixture
    def parser(self, gemm_scop):
        return CustomConstraintParser(gemm_scop.statements, user_variables=("x",))

    def test_single_coefficient(self, parser):
        (row,) = parser.parse("S1_it_0 >= 1")
        assert row.coefficients == {iterator_coefficient("S1", "i"): Fraction(1)}
        assert row.sense is ConstraintSense.GE and row.rhs == 1

    def test_sum_over_iterators(self, parser):
        (row,) = parser.parse("S1_it_i <= 1")
        assert set(row.coefficients) == {
            iterator_coefficient("S1", "i"),
            iterator_coefficient("S1", "j"),
            iterator_coefficient("S1", "k"),
        }
        assert row.sense is ConstraintSense.GE  # normalised from <=
        assert row.rhs == -1

    def test_sum_over_statements(self, parser):
        (row,) = parser.parse("Si_cst == 0")
        assert set(row.coefficients) == {constant_coefficient("S0"), constant_coefficient("S1")}

    def test_parameter_coefficients(self, parser):
        (row,) = parser.parse("S0_par_0 == 0")
        assert row.coefficients == {parameter_coefficient("S0", "NI"): Fraction(1)}

    def test_user_variable_and_arithmetic(self, parser):
        (row,) = parser.parse("x - S0_it_i >= 0")
        assert row.coefficients["x"] == 1
        assert row.coefficients[iterator_coefficient("S0", "i")] == -1
        assert row.rhs == 0

    def test_multiplication_by_constant(self, parser):
        (row,) = parser.parse("2*S1_it_0 + 3 >= 1")
        assert row.coefficients[iterator_coefficient("S1", "i")] == 2
        assert row.rhs == -2  # 1 - 3

    def test_named_no_skewing(self, parser):
        rows = parser.parse("no-skewing")
        assert len(rows) == 2  # one per statement
        for row in rows:
            assert row.sense is ConstraintSense.GE and row.rhs == -1
            assert all(value == -1 for value in row.coefficients.values())

    def test_named_no_parameter_shift(self, parser):
        rows = parser.parse("no-parameter-shift")
        assert all(row.sense is ConstraintSense.EQ for row in rows)

    def test_unknown_symbol(self, parser):
        with pytest.raises(ConfigurationError):
            parser.parse("y >= 0")

    def test_missing_relation(self, parser):
        with pytest.raises(ConfigurationError):
            parser.parse("S0_it_0 + 1")

    def test_unknown_statement_index(self, parser):
        with pytest.raises(ConfigurationError):
            parser.parse("S9_it_0 >= 0")

    def test_parse_all_flattens(self, parser):
        rows = parser.parse_all(["S0_it_0 >= 0", "S1_it_0 >= 0"])
        assert len(rows) == 2


class TestConfigJsonRoundTrip:
    """``SchedulerConfig.from_json(cfg.to_json())`` must reproduce ``cfg``.

    Covers every configuration used by the examples and by
    ``experiments/kernel_configs.py``.  The dynamic strategy callback (the
    paper's C++ interface) is the one part JSON cannot carry; configurations
    that use one are compared with the callback stripped.
    """

    @staticmethod
    def _all_configs():
        from repro.scheduler import (
            Directive as D,
            PlutoBaseline,
            PlutoLpDfpBaseline,
            PlutoPlusBaseline,
            IslPpcgBaseline,
            big_loops_first_style,
            feautrier_style,
            isl_style,
            kernel_specific,
            npu_vectorize_style,
            pluto_plus_style,
            pluto_style,
            tensor_scheduler_style,
        )
        from repro.experiments.kernel_configs import kernel_specific_candidates

        configs = [
            pluto_style(),
            pluto_plus_style(),
            tensor_scheduler_style(),
            feautrier_style(),
            isl_style(),
            big_loops_first_style(),
            npu_vectorize_style(),
            # examples/custom_operator_npu.py
            npu_vectorize_style(
                directives=(D(kind="vectorize", statements=("0", "1"), iterator="k"),)
            ),
            # examples/quickstart.py and examples/kernel_specific_config.py
            SchedulerConfig.from_json(
                '{"scheduling_strategy": {"name": "pluto-style", "ILP_construction": '
                '[{"scheduling_dimension": "default", "cost_functions": ["proximity"]}]}}'
            ),
            SchedulerConfig.from_json(LISTING2_JSON),
            kernel_specific(name="tiled", cost_functions=("proximity",), tile_sizes=(4, 4, 4)),
        ]
        for kernel in ("gemm", "gramschmidt", "jacobi-1d", "atax", "symm", "seidel-2d"):
            configs.extend(kernel_specific_candidates(kernel))
        for baseline in (
            PlutoBaseline(),
            PlutoPlusBaseline(),
            PlutoLpDfpBaseline(),
            IslPpcgBaseline(),
        ):
            configs.extend(baseline.configs())
        return configs

    def test_round_trip_equality(self):
        import dataclasses

        for config in self._all_configs():
            restored = SchedulerConfig.from_json(config.to_json())
            expected = (
                dataclasses.replace(config, strategy_callback=None)
                if config.strategy_callback is not None
                else config
            )
            assert restored == expected, f"round trip changed {config.name!r}"

    def test_round_trip_is_idempotent(self):
        for config in self._all_configs():
            once = SchedulerConfig.from_json(config.to_json())
            twice = SchedulerConfig.from_json(once.to_json())
            assert once == twice, f"second round trip changed {config.name!r}"
