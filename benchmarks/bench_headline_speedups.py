"""§IV-D headline numbers.

"NM-SpMM is 2.1x faster than nmSPARSE, with speedup over cuBLAS
ranging from 1.4x to 6.3x" — the cross-GPU summary over the 100-point
dataset, plus the per-sparsity A100 geomeans
(1.8/2.4/3.5/6.3x over cuBLAS, 1.5/1.8/1.5/1.2x over nmSPARSE).
"""

from repro.bench.fig9 import run_fig9
from repro.utils.intmath import geomean
from repro.utils.tables import TextTable

PAPER_A100_CUBLAS = {0.5: 1.8, 0.625: 2.4, 0.75: 3.5, 0.875: 6.3}
PAPER_A100_NMSPARSE = {0.5: 1.5, 0.625: 1.8, 0.75: 1.5, 0.875: 1.2}


def _headline(gpus=("A100", "3090", "4090")):
    results = {gpu: run_fig9(gpu) for gpu in gpus}
    return results


def test_headline_speedups(benchmark, emit):
    results = benchmark.pedantic(_headline, rounds=1, iterations=1)

    table = TextTable(
        ["gpu", "sparsity", "vs cuBLAS", "paper", "vs nmSPARSE", "paper"],
        title="§IV-D headline speedups (geomean over the 100-point dataset)",
    )
    overall_vs_nmsparse = []
    vs_cublas_range = []
    for result in results.values():
        for sparsity in result.sparsities():
            nm = result.geomean_speedup("NM-SpMM", sparsity)
            ns = result.geomean_speedup("nmSPARSE", sparsity)
            vs_cublas_range.append(nm)
            overall_vs_nmsparse.append(nm / ns)
            is_a100 = result.gpu.startswith("A100")
            table.add_row(
                [
                    result.gpu,
                    f"{sparsity * 100:.1f}%",
                    f"{nm:.2f}x",
                    f"{PAPER_A100_CUBLAS[sparsity]:.1f}x" if is_a100 else "-",
                    f"{nm / ns:.2f}x",
                    f"{PAPER_A100_NMSPARSE[sparsity]:.1f}x" if is_a100 else "-",
                ]
            )
    overall = geomean(overall_vs_nmsparse)
    lo, hi = min(vs_cublas_range), max(vs_cublas_range)
    table.add_row(["ALL", "overall", f"{lo:.1f}-{hi:.1f}x", "1.4-6.3x",
                   f"{overall:.2f}x", "2.1x"])
    emit("headline_speedups", table.render())

    # Shape acceptance: the overall nmSPARSE advantage is of the
    # paper's order, and the cuBLAS range brackets sensibly.
    assert 1.2 <= overall <= 2.6
    assert lo >= 0.9
    assert hi <= 8.0


def test_a100_headline_close_to_paper(emit):
    result = run_fig9("A100")
    table = TextTable(
        ["sparsity", "modeled", "paper", "ratio"],
        title="A100 NM-SpMM speedup vs cuBLAS — paper comparison",
    )
    for sparsity, target in PAPER_A100_CUBLAS.items():
        got = result.geomean_speedup("NM-SpMM", sparsity)
        table.add_row(
            [f"{sparsity * 100:.1f}%", f"{got:.2f}x", f"{target:.1f}x",
             f"{got / target:.2f}"]
        )
        assert 0.6 * target <= got <= 1.45 * target
    emit("headline_a100_vs_paper", table.render())
