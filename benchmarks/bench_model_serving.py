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

The acceptance bar (checked on full runs and mirrored in tier-1 by
``tests/test_model_serving.py``): under the memory-constrained
long-context scenario at *equal offered load*, kv-aware admission
strictly beats the no-memory-model baseline on SLO attainment, the
baseline actually overflows (``overflow_steps > 0``), and every
kv-aware run's byte ledger reconciles — resident ≤ budget at every
recorded event and zero leaked KV after drain.  ``--smoke`` shortens
every run and checks only the ledgers; see :mod:`harness` for the CLI,
the write policy and the pytest entry.
"""

from __future__ import annotations

import harness

from repro.serve.model_exec import (
    agentic_short_decodes,
    long_context_summarization,
    prefill_heavy_chat,
)
from repro.utils.tables import TextTable

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


def run(smoke: bool) -> tuple:
    overrides = {"duration_s": SMOKE_DURATION_S} if smoke else {}
    grid = {name: factory(**overrides) for name, factory in SCENARIOS.items()}
    configs = harness.scenario_rows(grid, run=_run_reconciled)
    kv_scenario = SCENARIOS[COMPARISON_SCENARIO](**overrides)
    kv_leg = _comparison_leg(_run_reconciled(kv_scenario).summary())
    none_leg = _comparison_leg(
        _run_reconciled(
            SCENARIOS[COMPARISON_SCENARIO](kv_admission="none", **overrides)
        ).summary()
    )
    config = {
        **{c["name"]: c["scenario"] for c in configs},
        "kv_comparison": kv_scenario.describe(),
    }
    return config, harness.shared_seed(grid.values()), {
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


def checks(result: dict, smoke: bool) -> list[str]:
    if smoke:
        return []
    configs = result["configs"]
    bars = [(len(configs) == len(SCENARIOS), f"{len(configs)} configs")]
    for config in configs:
        name, metrics = config["name"], config["metrics"]
        memory = metrics["memory"]
        bars += [
            (metrics["resilience"]["outcomes"]["completed"] > 0,
             f"{name}: completed nothing"),
            (metrics["continuous"]["steps"] > 0, f"{name}: no engine steps"),
            (memory["weight_bytes"] > 0 and memory["kv_peak_bytes"] > 0,
             f"{name}: empty memory ledger: {memory}"),
            (memory["admission"] != "kv-aware"
             or memory["peak_resident_bytes"] <= memory["budget_bytes"],
             f"{name}: peak resident {memory['peak_resident_bytes']} B "
             f"over the {memory['budget_bytes']} B budget"),
        ]
    # The acceptance bar: kv-aware strictly beats the no-memory-model
    # baseline on SLO attainment at equal offered load, and the
    # comparison is genuinely memory-bound.
    comparison = result["kv_comparison"]
    kv_leg, none_leg = comparison["kv_aware"], comparison["none"]
    bars += [
        (comparison["attainment_delta"] > 0,
         "kv-aware admission did not beat the baseline: attainment "
         f"{kv_leg['slo_attainment']:.3f} vs "
         f"{none_leg['slo_attainment']:.3f}"),
        (none_leg["overflow_steps"] != 0,
         "the 'none' baseline never overflowed — not memory-bound"),
        (kv_leg["kv_evictions"] != 0,
         "kv-aware admission never evicted — not memory-bound"),
    ]
    return [message for ok, message in bars if not ok]


def render(result: dict) -> str:
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


BENCH = harness.Bench(
    name="model_serving",
    schema="nm-spmm/model-serving-bench/v1",
    output="BENCH_model_serving.json",
    run=run,
    render=render,
    checks=checks,
)
test_bench_model_serving = harness.pytest_case(BENCH)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(harness.main(BENCH))
