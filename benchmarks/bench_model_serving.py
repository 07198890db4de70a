"""Model-serving benchmark: whole-Llama decode loops under an HBM cap.

Runs the canned :mod:`repro.serve.model_exec.scenarios` workloads —
prefill-heavy chat, memory-constrained long-context summarization, and
bursty agentic decodes — through the serving simulator with a
:class:`~repro.serve.model_exec.executor.ModelExecutor` registered as
the model, and writes ``BENCH_model_serving.json`` at the repo root so
the KV/memory behavior accrues across PRs.

Schema (``nm-spmm/model-serving-bench/v1``)::

    {
      "schema": "nm-spmm/model-serving-bench/v1",
      "configs": [
        {
          "name": "<scenario>",
          "scenario": "<describe() string>",
          "metrics": {
            "latency": {...}, "slo": {...}, "continuous": {...},
            "memory": {"admission", "budget_bytes", "weight_bytes",
                       "kv_peak_bytes", "peak_resident_bytes",
                       "peak_utilization", "kv_evictions",
                       "overflow_steps", "budget_shrinks"},
            "model": {"prefill_s", "thrash_s", "kv_evictions"},
            ...
          }
        }, ...
      ],
      "kv_comparison": {
        "scenario": "<describe() string of the kv-aware run>",
        "kv_aware": {"slo_attainment", "kv_evictions",
                     "overflow_steps", "makespan_s"},
        "none": {...same keys...},
        "attainment_delta": <kv_aware - none, must be > 0>
      }
    }

The acceptance bar (asserted here and mirrored in tier-1 by
``tests/test_model_serving.py``): under the memory-constrained
long-context scenario at *equal offered load*, kv-aware admission
strictly beats the no-memory-model baseline on SLO attainment, the
baseline actually overflows (``overflow_steps > 0``), and every
kv-aware run's byte ledger reconciles — resident ≤ budget at every
recorded event and zero leaked KV after drain.

Run standalone (``python benchmarks/bench_model_serving.py``, add
``--smoke`` for the short no-write CI variant, or ``--out PATH`` to
write the full run somewhere other than the committed file — CI diffs
such a run against the committed baseline) or under pytest-benchmark
(``pytest benchmarks/bench_model_serving.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.serve.model_exec import (
    agentic_short_decodes,
    long_context_summarization,
    prefill_heavy_chat,
)
from repro.utils.benchmeta import bench_meta
from repro.utils.tables import TextTable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_model_serving.json"
SCHEMA = "nm-spmm/model-serving-bench/v1"

#: Scenario factories (not instances: smoke mode shortens the runs).
SCENARIOS = {
    "prefill-heavy-chat": prefill_heavy_chat,
    "long-context-summarization": long_context_summarization,
    "agentic-short-decodes": agentic_short_decodes,
}

#: The memory-constrained regime the kv-aware-vs-none comparison runs.
COMPARISON_SCENARIO = "long-context-summarization"

SMOKE_DURATION_S = 0.5


def _run_reconciled(scenario):
    """Run one scenario and re-assert the byte ledger from the outside
    (simulate() already reconciled on drain; the benchmark keeps its
    own belt-and-braces check so a regression fails loudly here)."""
    report = scenario.run()
    mem = report.memory_model
    assert mem is not None, "model-mode run produced no memory model"
    assert not mem.kv, "KV ledger leaked entries after drain"
    if mem.admission == "kv-aware" and mem.budget_shrinks == 0:
        mem.assert_within_budget()
    return report


def _comparison_leg(summary: dict) -> dict:
    return {
        "slo_attainment": summary["slo"]["attainment_rate"],
        "kv_evictions": summary["memory"]["kv_evictions"],
        "overflow_steps": summary["memory"]["overflow_steps"],
        "thrash_s": summary["model"]["thrash_s"],
        "makespan_s": summary["makespan_s"],
    }


def run_model_serving_bench(
    *, smoke: bool = False, generated_at: "str | None" = None
) -> dict:
    overrides = {"duration_s": SMOKE_DURATION_S} if smoke else {}
    configs = []
    for name, factory in SCENARIOS.items():
        scenario = factory(**overrides)
        report = _run_reconciled(scenario)
        configs.append(
            {
                "name": name,
                "scenario": scenario.describe(),
                "metrics": report.summary(),
            }
        )
    kv_scenario = SCENARIOS[COMPARISON_SCENARIO](**overrides)
    kv_summary = _run_reconciled(kv_scenario).summary()
    none_summary = _run_reconciled(
        SCENARIOS[COMPARISON_SCENARIO](kv_admission="none", **overrides)
    ).summary()
    kv_leg = _comparison_leg(kv_summary)
    none_leg = _comparison_leg(none_summary)
    seeds = {
        factory(**overrides).seed for factory in SCENARIOS.values()
    }
    return {
        "schema": SCHEMA,
        "meta": bench_meta(
            SCHEMA,
            config={
                **{c["name"]: c["scenario"] for c in configs},
                "kv_comparison": kv_scenario.describe(),
            },
            seed=seeds.pop() if len(seeds) == 1 else None,
            generated_at=generated_at,
        ),
        "configs": configs,
        "kv_comparison": {
            "scenario": kv_scenario.describe(),
            "kv_aware": kv_leg,
            "none": none_leg,
            "attainment_delta": (
                kv_leg["slo_attainment"] - none_leg["slo_attainment"]
            ),
        },
    }


def config_named(result: dict, name: str) -> dict:
    for config in result["configs"]:
        if config["name"] == name:
            return config
    raise KeyError(name)


def check_acceptance(result: dict) -> "str | None":
    """The tentpole bar (None = pass): kv-aware strictly beats the
    no-memory-model baseline on SLO attainment at equal offered load,
    and the baseline genuinely overflowed."""
    comparison = result["kv_comparison"]
    if comparison["attainment_delta"] <= 0:
        return (
            "kv-aware admission did not beat the baseline: attainment "
            f"{comparison['kv_aware']['slo_attainment']:.3f} vs "
            f"{comparison['none']['slo_attainment']:.3f}"
        )
    if comparison["none"]["overflow_steps"] == 0:
        return "the 'none' baseline never overflowed — not memory-bound"
    if comparison["kv_aware"]["kv_evictions"] == 0:
        return "kv-aware admission never evicted — not memory-bound"
    return None


def write_results(
    result: dict, path: "pathlib.Path | None" = None
) -> pathlib.Path:
    path = OUTPUT_PATH if path is None else path
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def render_results(result: dict) -> str:
    table = TextTable(
        ["scenario", "SLO %", "p99 ms", "QPS", "steps", "HBM peak %",
         "kv evict", "overflow"],
        title="model serving benchmark",
    )
    for config in result["configs"]:
        metrics = config["metrics"]
        memory = metrics["memory"]
        slo_rate = metrics["slo"]["attainment_rate"]
        table.add_row(
            [
                config["name"],
                "-" if slo_rate is None else f"{slo_rate * 100:.1f}",
                f"{metrics['latency']['p99_ms']:.2f}",
                f"{metrics['achieved_qps']:.1f}",
                metrics["continuous"]["steps"],
                f"{memory['peak_utilization'] * 100:.1f}",
                memory["kv_evictions"],
                memory["overflow_steps"],
            ]
        )
    comparison = result["kv_comparison"]
    kv_leg, none_leg = comparison["kv_aware"], comparison["none"]
    lines = [
        table.render(),
        (
            "kv-aware vs none @ equal load: attainment "
            f"{kv_leg['slo_attainment']:.3f} vs "
            f"{none_leg['slo_attainment']:.3f} "
            f"(delta {comparison['attainment_delta']:+.3f}), baseline "
            f"thrash {none_leg['thrash_s']:.3f}s over "
            f"{none_leg['overflow_steps']} overflow steps"
        ),
    ]
    return "\n".join(lines)


def test_bench_model_serving(benchmark, emit):
    result = benchmark.pedantic(
        run_model_serving_bench, rounds=1, iterations=1
    )
    path = write_results(result)
    emit("model_serving", render_results(result) + f"\n\nwrote {path}")

    assert result["schema"] == SCHEMA
    assert len(result["configs"]) == len(SCENARIOS)
    for config in result["configs"]:
        metrics = config["metrics"]
        assert metrics["resilience"]["outcomes"]["completed"] > 0
        assert metrics["continuous"]["steps"] > 0
        memory = metrics["memory"]
        assert memory["weight_bytes"] > 0
        assert memory["kv_peak_bytes"] > 0
        if memory["admission"] == "kv-aware":
            assert memory["peak_resident_bytes"] <= memory["budget_bytes"]
    assert check_acceptance(result) is None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short runs, no JSON write, no acceptance gate (CI rot check)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help=f"output path of a full run (default {OUTPUT_PATH})",
    )
    args = parser.parse_args(argv)
    result = run_model_serving_bench(smoke=args.smoke)
    print(render_results(result))
    if not args.smoke:
        out = pathlib.Path(args.out) if args.out else None
        print(f"\nwrote {write_results(result, out)}")
        failure = check_acceptance(result)
        if failure is not None:
            print(f"FAIL: {failure}")
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
