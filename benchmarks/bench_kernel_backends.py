"""Kernel-backend throughput: wall clock per backend, GFLOP/s, speedups.

Times raw-kernel baselines (dense BLAS, the vectorized functional
kernel, the structural blocked/packed executors with explicit blocking
parameters) plus **every backend registered in the execution-backend
registry** (:mod:`repro.backends`) through the real ``execute()``
facade — so a newly registered backend lands in the tracked numbers
without touching this file.  The grid covers small/medium/large shapes
and a low- (2:4) and high-sparsity (8:32) pattern, and writes
``BENCH_kernels.json`` at the repo root so the kernel perf trajectory
accrues across PRs.  These are the substrate's own numbers (host CPU
BLAS), not the GPU model's.

Schema (``nm-spmm/kernel-bench/v1``)::

    {
      "schema": "nm-spmm/kernel-bench/v1",
      "configs": [
        {
          "name": "<size>-<N:M>",
          "shape": {"m", "n", "k"},
          "pattern": "<label>",
          "backends": {
            "<backend>": {"seconds", "gflops", "speedup_vs_dense"},
            ...
          },
          "fast_vs_blocked": <wall-clock speedup>
        }, ...
      ]
    }

``gflops`` is dense-equivalent throughput (``2*m*n*k / seconds``) so
backends are comparable on one axis; sparse backends do ``N/M`` of that
useful work.

``--smoke`` runs a tiny grid with one repeat and checks nothing; see
:mod:`harness` for the CLI, the write policy and the pytest entry.
"""

from __future__ import annotations

import time

import harness
import numpy as np

from repro.backends import available_backends
from repro.core.api import NMSpMM, SparseHandle
from repro.gpu.catalog import resolve_gpu
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.fast import nm_spmm_fast
from repro.kernels.functional import nm_spmm_functional
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.tiling import TileParams, params_for
from repro.sparsity.colinfo import preprocess_offline
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.pruning import prune_dense
from repro.utils.tables import TextTable

#: (name, (m, n, k)) — medium matches ``bench_functional_kernels``, the
#: shape the tentpole's >=5x fast-vs-blocked target is measured on.
SHAPES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("small", (128, 256, 256)),
    ("medium", (256, 512, 512)),
    ("large", (512, 1024, 1024)),
)
SMOKE_SHAPES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("small", (32, 64, 64)),
)

PATTERNS: tuple[NMPattern, ...] = (
    NMPattern(2, 4, vector_length=4),
    NMPattern(8, 32, vector_length=32),
)

#: Registry rows that are part of the library itself: a failure in one
#: of these is a regression and must abort the run, while third-party
#: registrations get the lenient skip-with-a-note path.
BUILTIN_BACKENDS = ("fast", "structural", "dense_scatter")

#: The exact ``bench_functional_kernels`` medium configuration — the
#: problem the tentpole's >=5x fast-vs-blocked acceptance target is
#: defined on (Table I medium blocking with ks pinned to 128).
FUNCBENCH_NAME = "medium-funcbench"
FUNCBENCH_SHAPE = (256, 512, 512)
FUNCBENCH_PATTERN = NMPattern(8, 32, vector_length=32)
FUNCBENCH_PARAMS = TileParams(ms=32, ns=64, mr=32, nr=32, mt=8, nt=4, ks=128)


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (after warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
        fn()
        best = min(best, time.perf_counter() - t0)  # repro-lint: disable=DET002 -- host benchmark timing
    return best


def run_config(
    name: str,
    shape: tuple[int, int, int],
    pattern: NMPattern,
    *,
    params: TileParams | None = None,
    repeats: int = 5,
    seed: int = 11,
) -> dict:
    """Time every backend on one (shape, pattern) cell."""
    m, n, k = shape
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pruned, mask = prune_dense(pattern, b)
    comp = compress(pattern, pruned, mask)
    # Offline artifacts are precomputed — the benchmark times the
    # online phase, mirroring how serving uses the handles.  The
    # registry rows run through the real execute() facade against a
    # prepared handle (gather layout built in the warmup call, plans
    # cached on the handle), so facade overhead is part of the number.
    handle = SparseHandle(compressed=comp)
    op = NMSpMM(pattern)
    if params is None:
        params = params_for(
            m, n, k, pattern, resolve_gpu("A100").smem_bytes_per_sm
        )
    col_info = preprocess_offline(comp, params.ws(pattern), params.ns)

    backends = {
        "dense": lambda: a @ pruned,
        "functional": lambda: nm_spmm_functional(a, comp),
        "blocked": lambda: nm_spmm_blocked(a, comp, params),
        "packed": lambda: nm_spmm_packed(a, comp, params, col_info),
    }
    registry_rows = set()
    for registered in available_backends():
        if registered.name in backends:
            # Never let a registered name shadow a raw baseline row —
            # speedup_vs_dense must stay anchored to raw BLAS.
            print(
                f"note: skipping registered backend {registered.name!r} "
                "(collides with a raw baseline row)"
            )
            continue
        verdict = registered.supports(
            op.build_request(a, handle, params=params)
        )
        if verdict is not True:
            if registered.name in BUILTIN_BACKENDS:
                raise RuntimeError(
                    f"builtin backend {registered.name!r} declined a "
                    f"benchmark request: {verdict}"
                )
            print(
                f"note: skipping registered backend {registered.name!r} "
                f"(unsupported here: {verdict})"
            )
            continue
        registry_rows.add(registered.name)
        backends[registered.name] = (
            lambda name=registered.name: op.execute(
                a, handle, params=params, backend=name, use_plan_cache=True
            )
        )
    gold = a @ pruned
    flops = 2.0 * m * n * k
    results: dict[str, dict] = {}
    for backend, fn in backends.items():
        # Sanity gate only (the equivalence suite owns tight bounds);
        # tolerance scales with the float32 reduction depth.  Registry
        # rows that cannot run or cannot meet float32 tolerance (e.g.
        # a registered quantized backend) are skipped with a note
        # instead of aborting the tracked run; the builtin rows stay a
        # hard gate via the acceptance assertions downstream.
        try:
            np.testing.assert_allclose(
                fn(), gold, rtol=2e-4, atol=1e-4 * np.sqrt(k)
            )
        except Exception as exc:
            if backend in registry_rows and backend not in BUILTIN_BACKENDS:
                first_line = str(exc).strip().splitlines()[0]
                print(
                    f"note: skipping registered backend {backend!r} "
                    f"({type(exc).__name__}: {first_line})"
                )
                continue
            raise
        seconds = _best_of(fn, repeats)
        results[backend] = {
            "seconds": seconds,
            "gflops": flops / seconds / 1e9,
        }
    dense_s = results["dense"]["seconds"]
    for entry in results.values():
        entry["speedup_vs_dense"] = dense_s / entry["seconds"]
    # Same-run facade-overhead measurement: the registry's "fast" row
    # runs through execute(); time the raw kernel on the same operands
    # so the API layer's cost is checkable per run (cross-run GFLOP/s
    # comparisons on shared hardware are dominated by machine noise —
    # the raw-kernel rows move +/-20% between runs of identical code).
    fast_facade_overhead = None
    if "fast" in results:
        raw_fast_s = _best_of(
            lambda: nm_spmm_fast(a, handle.gather_layout()), repeats
        )
        fast_facade_overhead = results["fast"]["seconds"] / raw_fast_s - 1.0
    return {
        "name": f"{name}-{pattern.n}:{pattern.m}",
        "shape": {"m": m, "n": n, "k": k},
        "pattern": pattern.label(),
        "backends": results,
        # None when the 'fast' registry row was skipped/replaced (it is
        # a registry row, not a guaranteed baseline) — the acceptance
        # checks downstream fail loudly on it rather than crashing here.
        "fast_vs_blocked": (
            results["blocked"]["seconds"] / results["fast"]["seconds"]
            if "fast" in results
            else None
        ),
        "fast_facade_overhead": fast_facade_overhead,
    }


def run(smoke: bool) -> tuple:
    """Run the full grid (or the CI smoke slice)."""
    shapes = SMOKE_SHAPES if smoke else SHAPES
    repeats = 1 if smoke else 5
    configs = [
        run_config(name, shape, pattern, repeats=repeats)
        for name, shape in shapes
        for pattern in PATTERNS
    ]
    if not smoke:
        configs.append(
            run_config(
                FUNCBENCH_NAME,
                FUNCBENCH_SHAPE,
                FUNCBENCH_PATTERN,
                params=FUNCBENCH_PARAMS,
                repeats=repeats,
            )
        )
    config = {
        "shapes": [[name, list(shape)] for name, shape in shapes],
        "patterns": [p.label() for p in PATTERNS],
        "repeats": repeats,
        "funcbench": not smoke,
    }
    return config, None, {"configs": configs}


def render(result: dict) -> str:
    # Column order: dense baseline first, then the union of measured
    # backends across all configs in first-seen order (a registry row
    # may be skipped on some configs but measured on others).
    names: list[str] = []
    for config in result["configs"]:
        for name in config["backends"]:
            if name != "dense" and name not in names:
                names.append(name)
    table = TextTable(
        ["config", "dense ms"]
        + [f"{name} ms" for name in names]
        + ["fast GFLOP/s", "fast/blocked"],
        title="kernel backends (host wall clock)",
    )
    for config in result["configs"]:
        be = config["backends"]
        table.add_row(
            [
                config["name"],
                f"{be['dense']['seconds'] * 1e3:.3f}",
            ]
            + [
                f"{be[name]['seconds'] * 1e3:.3f}" if name in be else "-"
                for name in names
            ]
            + [
                f"{be['fast']['gflops']:.1f}" if "fast" in be else "-",
                (
                    f"{config['fast_vs_blocked']:.1f}x"
                    if config["fast_vs_blocked"] is not None
                    else "-"
                ),
            ]
        )
    return table.render()


def checks(result: dict, smoke: bool) -> list[str]:
    if smoke:
        return []
    configs = result["configs"]
    want = len(SHAPES) * len(PATTERNS) + 1
    bars = [(len(configs) == want, f"{len(configs)} configs, want {want}")]
    for config in configs:
        name, backends = config["name"], config["backends"]
        overhead = config["fast_facade_overhead"]
        bars += [
            # The builtin registry rows always support these requests
            # and meet float32 tolerance; third-party registrations may
            # be skipped with a note, so they are not checked.
            (all(b in backends for b in BUILTIN_BACKENDS),
             f"{name}: builtin rows missing (measured: {sorted(backends)})"),
            (all(e["seconds"] > 0 and e["gflops"] > 0
                 for e in backends.values()),
             f"{name}: a non-positive time or GFLOP/s"),
            # The execute() facade must not materially slow fast vs the
            # raw kernel.  Same-run comparison (the cross-run GFLOP/s
            # history is machine-noise bound), with a bar wide enough
            # for shared-machine jitter: single-run excursions past 20%
            # in the facade's *favor* occur; real facade cost is 1-8%.
            (overhead is None or overhead < 0.25,
             f"{name}: execute() facade costs fast {overhead} over the "
             "raw kernel (bar: < 0.25)"),
        ]
    by_name = {c["name"]: c for c in configs}
    for size in ("medium", "large"):
        for pattern in ("2:4", "8:32"):
            bars.append(
                (by_name[f"{size}-{pattern}"]["fast_facade_overhead"]
                 is not None,
                 f"{size}-{pattern}: no facade-overhead measurement")
            )
    # The gather-GEMM headline: fast must beat the structural blocked executor
    # by >=5x on the bench_functional_kernels medium problem.
    funcbench = by_name[f"{FUNCBENCH_NAME}-8:32"]["fast_vs_blocked"]
    bars.append(
        (funcbench is not None and funcbench >= 5.0,
         f"fast is only {funcbench}x vs the structural blocked executor "
         "on the funcbench medium problem (bar: >= 5x)")
    )
    # The backend-registry headline: dense_scatter closes the tiny-L gap,
    # beating gather-GEMM on the degenerate 2:4/L=4 small config.
    small = by_name["small-2:4"]["backends"]
    if "fast" in small and "dense_scatter" in small:
        scatter, fast = small["dense_scatter"]["gflops"], small["fast"]["gflops"]
        bars.append(
            (scatter >= fast,
             f"dense_scatter ({scatter:.1f} GFLOP/s) does not close the "
             f"tiny-L gap vs fast ({fast:.1f} GFLOP/s) on small-2:4")
        )
    return [message for ok, message in bars if not ok]


BENCH = harness.Bench(
    name="kernel_backends",
    schema="nm-spmm/kernel-bench/v1",
    output="BENCH_kernels.json",
    run=run,
    render=render,
    checks=checks,
)
test_bench_kernel_backends = harness.pytest_case(BENCH)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(harness.main(BENCH))
