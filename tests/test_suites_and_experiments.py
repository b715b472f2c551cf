"""Validation of the workload suites and quick runs of the experiment harnesses."""

from __future__ import annotations

import pytest

from repro.codegen import run_original
from repro.deps import compute_dependences
from repro.experiments import format_table, geometric_mean, write_csv
from repro.experiments.kernel_configs import kernel_specific_candidates
from repro.machine import intel_xeon_e5_2683
from repro.pipeline import EXPERIMENT_STAGES, Session
from repro.scheduler import PlutoBaseline, baseline_by_name, pluto_style
from repro.suites import (
    TABLE1_CASES,
    build_case,
    build_pipeline,
    lu_decomp,
    trsm_l_off_diag,
)
from repro.suites.polybench import FIG2_KERNELS, KERNELS, build_kernel, kernel_names


class TestPolybenchSuite:
    def test_registry_covers_fig2(self):
        assert set(FIG2_KERNELS) <= set(kernel_names())

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_builds_and_executes(self, name):
        scop = build_kernel(name)
        assert scop.n_statements >= 1
        assert scop.parameters
        arrays = scop.allocate_arrays()
        stats = run_original(scop, arrays)
        assert stats.instances > 0

    @pytest.mark.parametrize("name", ["gemm", "atax", "trisolv", "jacobi-1d", "mvt"])
    def test_kernel_has_dependences(self, name):
        scop = build_kernel(name)
        assert compute_dependences(scop)

    def test_size_scaling(self):
        small = build_kernel("gemm", size_scale=0.5)
        large = build_kernel("gemm", size_scale=2.0)
        assert large.parameter_values["NI"] > small.parameter_values["NI"]

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            build_kernel("not-a-kernel")


class TestCustomOperators:
    def test_table1_case_list_matches_paper(self):
        assert len(TABLE1_CASES) == 15  # 1 LU + 7 trsmL + 7 trsmU
        operators = {case[0] for case in TABLE1_CASES}
        assert operators == {"lu_decomp", "trsmL_off_diag", "trsmU_transpose"}

    def test_lu_decomp_structure(self):
        scop = lu_decomp(8)
        assert scop.n_statements == 2
        assert compute_dependences(scop)

    def test_trsm_vector_iterator_is_contiguous(self):
        scop = trsm_l_off_diag(rows=8, blocks=1, lanes=8)
        for statement in scop.statements:
            assert statement.preferred_vector_iterator() == "k"

    def test_build_case_unknown(self):
        with pytest.raises(KeyError):
            build_case("unknown-op")


class TestPolymageSuite:
    @pytest.mark.parametrize(
        "name", ["harris", "unsharp-mask", "camera-pipe", "interpolate", "pyramid-blending"]
    )
    def test_pipeline_builds_and_executes(self, name):
        scop = build_pipeline(name, rows=8, cols=8)
        arrays = scop.allocate_arrays()
        stats = run_original(scop, arrays)
        assert stats.instances > 0

    def test_pipelines_have_producer_consumer_dependences(self):
        scop = build_pipeline("unsharp-mask", rows=8, cols=8)
        deps = compute_dependences(scop)
        assert any(d.source != d.target for d in deps)


def experiment_session() -> Session:
    return Session(machine=intel_xeon_e5_2683(), stages=EXPERIMENT_STAGES)


class TestHarnessAndReporting:
    def test_evaluation_and_cache(self):
        session = experiment_session()
        scop = build_kernel("atax")
        first = session.compile(scop, pluto_style())
        second = session.compile(scop, pluto_style())
        assert first is second  # memoised
        assert first.cycles > 0

    def test_evaluate_best_picks_minimum(self):
        session = experiment_session()
        scop = build_kernel("atax")
        best = session.compile_best(scop, kernel_specific_candidates("atax")[:3], label="best")
        for config in kernel_specific_candidates("atax")[:3]:
            assert best.cycles <= session.compile(scop, config).cycles

    def test_baseline_by_name(self):
        assert baseline_by_name("pluto").name == "pluto"
        assert len(baseline_by_name("pluto-lp-dfp").configs()) == 3
        with pytest.raises(KeyError):
            baseline_by_name("unknown")

    def test_evaluate_baseline(self):
        scop = build_kernel("mvt")
        result = experiment_session().compile_baseline(scop, PlutoBaseline())
        assert result.configuration == "pluto"

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_format_table_and_csv(self, tmp_path):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "a" in text and "2.500" in text
        path = write_csv(tmp_path / "out.csv", ["a"], [[1], [2]])
        assert path.exists()
        assert path.read_text().startswith("a")


class TestExperimentsQuick:
    """Tiny experiment runs; the paper's shapes are asserted in
    ``test_paper_shapes.py`` and the full sweeps are ``python -m repro.experiments``."""

    def test_table1_single_case(self):
        from repro.experiments.table1 import run_table1

        rows = run_table1(cases=[("lu_decomp", "8x8", {"n": 8})])
        assert len(rows) == 1
        assert rows[0].isl_cycles > 0 and rows[0].polytops_cycles > 0

    def test_fig2_single_kernel(self):
        from repro.experiments.fig2 import run_fig2

        rows = run_fig2("Intel2", ("atax",))
        assert rows[0].kernel == "atax"
        assert set(rows[0].speedups) == {
            "pluto-style",
            "tensor-scheduler-style",
            "isl-style",
            "kernel-spec",
        }
        # The kernel-specific configuration is at least as good as the generic ones.
        assert rows[0].speedups["kernel-spec"] >= max(
            rows[0].speedups["pluto-style"] - 1e-9,
            rows[0].speedups["tensor-scheduler-style"] - 1e-9,
        )

    def test_fig3_two_sizes(self):
        from repro.experiments.fig3 import run_fig3

        points = run_fig3("Intel2", sizes=(("large", 1.0), ("4xlarge", 4.0)), base_tsteps=6, base_n=20)
        assert len(points) == 2
        assert all(p.pluto_cycles > 0 for p in points)

    def test_table2_single_pipeline(self):
        from repro.experiments.table2 import run_table2

        rows = run_table2("Intel2", ("unsharp-mask",))
        assert rows[0].timings_ms["polytops"] is not None

    def test_command_line_is_main_with_its_own_parameters(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import __main__ as cli
        from repro.suites.polybench import FIG2_KERNELS

        csv = tmp_path / "results" / "fig_3.csv"
        assert cli.main(["fig3", "--csv", str(csv)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].startswith("Fig. 3") and len(table) == 4 + 9
        assert table[4].split() == ["large", "|", "3.58", "|", "1.00"]
        assert len(csv.read_text().splitlines()) == 1 + 9

        calls = []

        def recorded(machine="Intel1", kernels=(), output_csv=None):
            calls.append((machine, kernels, output_csv))

        monkeypatch.setitem(cli.EXPERIMENTS, "fig2", (recorded, cli.EXPERIMENTS["fig2"][1]))
        cli.main(["fig2"])
        cli.main(["fig2", "--machine", "AMD", "--full", "--csv", "out.csv"])
        assert calls == [("Intel1", (), None), ("AMD", FIG2_KERNELS, "out.csv")]
        for bad in (["table1", "--machine", "Intel1"], ["fig5"], ["fig3", "--kernels", "gemm"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(bad)
            assert excinfo.value.code == 2

    def test_command_line_names_an_unknown_machine(self, capsys):
        from repro.experiments import __main__ as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig3", "--machine", "Nope"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--machine" in message and "'Nope'" in message
        assert "intel1" in message and "amd" in message  # the known names

    def test_table2_unsupported_entries_are_na(self):
        from repro.experiments.table2 import UNSUPPORTED

        assert "pyramid-blending" in UNSUPPORTED["isl-ppcg"]
        assert "camera-pipe" in UNSUPPORTED["pluto"]
