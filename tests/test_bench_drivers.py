"""Unit tests for the bench drivers and their renderers."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.fig10 import render_fig10, run_fig10
from repro.bench.fig7 import render_fig7, run_fig7
from repro.bench.fig8 import render_fig8, run_fig8
from repro.bench.fig9 import render_fig9, run_fig9
from repro.bench.tables import render_table1, run_table1


@pytest.fixture(scope="module")
def fig7_a100():
    return run_fig7(("A100",))


@pytest.fixture(scope="module")
def fig9_tiny():
    return run_fig9("A100", limit=5)


class TestFig7Driver:
    def test_cell_grid_complete(self, fig7_a100):
        # 5 sparsities x 3 versions
        assert len(fig7_a100.cells) == 15

    def test_lookup(self, fig7_a100):
        cell = fig7_a100.cell("A100 80G", 0.875, "V3")
        assert cell.version == "V3"
        assert 0 < cell.efficiency <= 1

    def test_missing_raises(self, fig7_a100):
        with pytest.raises(KeyError):
            fig7_a100.cell("A100 80G", 0.3, "V3")

    def test_series(self, fig7_a100):
        effs = fig7_a100.efficiencies("A100 80G", "V1")
        assert len(effs) == 5

    def test_render(self, fig7_a100):
        text = render_fig7(fig7_a100)
        assert "Fig. 7" in text
        assert "cuBLAS" in text
        assert "87.5%" in text


class TestFig8Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8("A100")

    def test_cell_count(self, result):
        # 6 cases x 5 sparsities x 3 kernel classes
        assert len(result.cells) == 90

    def test_render_contains_winner_markers(self, result):
        text = render_fig8(result)
        assert "*" in text
        assert "small kernel" in text

    def test_best_kernel_defined_everywhere(self, result):
        for case in "ABCDEF":
            assert result.best_kernel(case, 0.5) is not None


class TestFig9Driver:
    def test_limit(self, fig9_tiny):
        # 5 points x 4 sparsities
        assert len(fig9_tiny.points) == 20

    def test_series_lengths(self, fig9_tiny):
        assert len(fig9_tiny.series("NM-SpMM", 0.5)) == 5

    def test_ideal_constant(self, fig9_tiny):
        assert set(fig9_tiny.series("ideal", 0.75)) == {4.0}

    def test_headline_structure(self, fig9_tiny):
        headline = fig9_tiny.headline()
        assert set(headline) == {0.5, 0.625, 0.75, 0.875}
        assert "NM-SpMM vs nmSPARSE" in headline[0.5]

    def test_render_compact_and_detailed(self, fig9_tiny):
        compact = render_fig9(fig9_tiny)
        detailed = render_fig9(fig9_tiny, per_point=True)
        assert len(detailed) > len(compact)
        assert "geomean" in compact


class TestFig10Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10("A100")

    def test_point_count(self, result):
        assert len(result.points) == 8  # 2 kernels x 4 sparsities

    def test_lookup(self, result):
        p = result.point("nmSPARSE", 0.75)
        assert p.kernel == "nmSPARSE"

    def test_render(self, result):
        text = render_fig10(result)
        assert "roofline" in text.lower()
        assert "ridge" in text.lower()


class TestTable1Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1("A100", max_block=128)

    def test_three_rows(self, result):
        assert len(result.rows) == 3

    def test_small_and_large_match(self, result):
        by_class = {r.size_class.value: r for r in result.rows}
        assert by_class["small"].block_shape_matches
        assert by_class["large"].block_shape_matches

    def test_render(self, result):
        text = render_table1(result)
        assert "Table I" in text


ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Each JSON bench driver and the committed file it regenerates.
BENCH_OUTPUTS = {
    "serving": "BENCH_serving.json",
    "kernel_backends": "BENCH_kernels.json",
    "distributed": "BENCH_distributed.json",
    "resilience": "BENCH_resilience.json",
    "model_serving": "BENCH_model_serving.json",
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )


class TestResilienceBenchSmoke:
    @pytest.mark.parametrize("name", sorted(BENCH_OUTPUTS))
    def test_smoke_leaves_committed_results_alone(self, name):
        committed = ROOT / BENCH_OUTPUTS[name]
        before = committed.read_bytes()
        try:
            done = run_python(f"benchmarks/bench_{name}.py", "--smoke")
            assert done.returncode == 0, done.stdout + done.stderr
            assert "smoke run: no JSON write" in done.stdout
            assert committed.read_bytes() == before
        finally:
            if committed.read_bytes() != before:
                committed.write_bytes(before)


class TestModelServingBenchOut:
    @pytest.mark.parametrize(
        "name", ["distributed", "model_serving", "resilience"]
    )
    def test_out_leaves_committed_results_alone(self, name, tmp_path):
        committed = ROOT / BENCH_OUTPUTS[name]
        before = committed.read_bytes()
        out = tmp_path / committed.name
        try:
            done = run_python(f"benchmarks/bench_{name}.py", "--out", str(out))
            assert done.returncode == 0, done.stdout + done.stderr
            assert f"wrote {out}" in done.stdout
            assert committed.read_bytes() == before
            diff = run_python(
                "-m", "repro", "bench", "diff", str(committed), str(out)
            )
            assert diff.returncode == 0, diff.stdout
            assert "all metrics identical" in diff.stdout
        finally:
            if committed.read_bytes() != before:
                committed.write_bytes(before)
