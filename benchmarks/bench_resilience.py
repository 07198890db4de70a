"""Chaos benchmark: SLO goodput under injected faults, with and
without the resilience machinery.

Runs one tiered-SLO Llama serving scenario (2-device column-parallel
over ethernet) through a grid of fault scenarios × resilience on/off
and writes ``BENCH_resilience.json`` at the repo root.  Every cell
replays the *identical* seeded arrival trace and fault schedule, so
the on/off delta in a row is purely what the resilience machinery
(retries + backoff, timeouts, circuit breakers + re-sharding, load
shedding) buys — or costs — under that fault model.

Schema (``nm-spmm/resilience-bench/v1``)::

    {
      "schema": "nm-spmm/resilience-bench/v1",
      "cells": [
        {
          "name": "<fault scenario>@<on|off>",
          "fault_scenario": "<grid key>",
          "faults": "<spec string or null>",
          "resilience": true/false,
          "scenario": "<describe() string>",
          "metrics": {... ServingReport.summary(), including the
                      "resilience" block: submitted, outcomes, shed,
                      timed_out, failed, retries, launch_faults,
                      failed_launches, circuit_opens, reshards,
                      recovery_s, slo_goodput ...}
        }, ...
      ]
    }

Acceptance (asserted under pytest): request accounting reconciles in
every cell (completed + shed + timed-out + failed == submitted — zero
silent loss), the healthy baseline is unperturbed by enabling
resilience, and on the device-fail-stop scenario resilience-on SLO
goodput strictly beats resilience-off at equal load.

Run standalone (``python benchmarks/bench_resilience.py [--smoke]``;
``--smoke`` is the short no-write CI variant) or under
pytest-benchmark (``pytest benchmarks/bench_resilience.py``).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario, TrafficTier
from repro.utils.benchmeta import bench_meta
from repro.utils.tables import TextTable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_resilience.json"
SCHEMA = "nm-spmm/resilience-bench/v1"

#: Every cell serves this scenario; only ``faults``/``resilience``
#: vary.  Both tiers carry SLOs so ``slo_goodput`` covers the whole
#: trace, and the raised host overhead gives launches enough weight
#: that faults actually contend.
BASE_SCENARIO = LlamaServingScenario(
    models=("llama-7b",),
    qps=600.0,
    duration_s=2.0,
    arrival="poisson",
    scheduling="slo-edf",
    tiers=(
        TrafficTier(priority=2, slo_ms=10.0, share=0.2),
        TrafficTier(priority=0, slo_ms=200.0, share=0.8),
    ),
    devices=2,
    shard="column",
    link="ethernet",
    host_overhead_s=2e-4,
    execute_numerics=False,
)

#: Fault grid.  Windows sit mid-run so every scenario has a healthy
#: warm-up and (except the fail-stop, which is permanent) a recovery
#: tail.
FAULT_SCENARIOS: dict[str, "str | None"] = {
    "no-faults": None,
    "launch-storm": "launch:p=0.5,start=0.5,end=1.0",
    "device-failstop": "devfail:device=1,at=0.8",
    "ethernet-flap": "link:factor=0.08,extra-lat=2e-4,period=0.25,duty=0.5",
}

RESILIENCE_MODES: dict[str, "ResiliencePolicy | None"] = {
    "on": ResiliencePolicy(),
    "off": None,
}


def run_resilience_bench(
    smoke: bool = False, generated_at: "str | None" = None
) -> dict:
    """Run the fault × resilience grid and return the schema result."""
    cells = []
    for fault_name, spec in FAULT_SCENARIOS.items():
        for mode, policy in RESILIENCE_MODES.items():
            scenario = dataclasses.replace(
                BASE_SCENARIO,
                faults=spec,
                resilience=policy,
                # The smoke run still has to cover every fault window
                # (the fail-stop lands at 0.8 s, the storm ends at 1 s).
                duration_s=1.1 if smoke else BASE_SCENARIO.duration_s,
            )
            report = scenario.run()
            cells.append(
                {
                    "name": f"{fault_name}@{mode}",
                    "fault_scenario": fault_name,
                    "faults": spec,
                    "resilience": policy is not None,
                    "scenario": scenario.describe(),
                    "metrics": report.summary(),
                }
            )
    return {
        "schema": SCHEMA,
        "meta": bench_meta(
            SCHEMA,
            config={cell["name"]: cell["scenario"] for cell in cells},
            seed=BASE_SCENARIO.seed,
            generated_at=generated_at,
        ),
        "cells": cells,
    }


def cell_named(result: dict, name: str) -> dict:
    for cell in result["cells"]:
        if cell["name"] == name:
            return cell
    raise KeyError(name)


def check_acceptance(result: dict) -> None:
    """The driver-enforced invariants, assertable on any run of the
    grid (pytest and the standalone path both call this)."""
    assert result["schema"] == SCHEMA
    assert len(result["cells"]) == len(FAULT_SCENARIOS) * len(
        RESILIENCE_MODES
    )
    for cell in result["cells"]:
        res = cell["metrics"]["resilience"]
        # Zero silent request loss: every submitted request terminates
        # exactly once, and the summary's outcome ledger reconciles.
        assert sum(res["outcomes"].values()) == res["submitted"], cell["name"]
        assert res["outcomes"]["completed"] == (
            cell["metrics"]["completed_requests"]
        )

    # The healthy baseline must be unperturbed by enabling resilience:
    # no retries, no drops, identical completions.
    for mode in RESILIENCE_MODES:
        res = cell_named(result, f"no-faults@{mode}")["metrics"]["resilience"]
        assert res["outcomes"]["completed"] == res["submitted"]
        assert res["retries"] == 0 and res["launch_faults"] == 0

    # The headline claim: under a mid-run device fail-stop, re-sharding
    # onto survivors strictly beats serving without resilience.
    on = cell_named(result, "device-failstop@on")["metrics"]["resilience"]
    off = cell_named(result, "device-failstop@off")["metrics"]["resilience"]
    assert on["reshards"] == 1 and on["recovery_s"] > 0
    assert off["reshards"] == 0
    assert on["slo_goodput"] > off["slo_goodput"]

    # The storm actually injected faults and (with resilience) retried.
    storm_on = cell_named(result, "launch-storm@on")["metrics"]["resilience"]
    assert storm_on["launch_faults"] > 0
    assert storm_on["retries"] > 0


def write_results(result: dict) -> pathlib.Path:
    OUTPUT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def render_results(result: dict) -> str:
    table = TextTable(
        ["cell", "completed", "shed", "timeout", "failed", "retries",
         "reshards", "goodput %"],
        title="resilience benchmark",
    )
    for cell in result["cells"]:
        res = cell["metrics"]["resilience"]
        goodput = res["slo_goodput"]
        table.add_row(
            [
                cell["name"],
                f"{res['outcomes']['completed']}/{res['submitted']}",
                str(res["shed"]),
                str(res["timed_out"]),
                str(res["failed"]),
                str(res["retries"]),
                str(res["reshards"]),
                "-" if goodput is None else f"{goodput * 100:.1f}",
            ]
        )
    return table.render()


def test_bench_resilience(benchmark, emit):
    result = benchmark.pedantic(run_resilience_bench, rounds=1, iterations=1)
    path = write_results(result)
    emit("resilience", render_results(result) + f"\n\nwrote {path}")
    check_acceptance(result)


if __name__ == "__main__":  # pragma: no cover
    import sys

    smoke = "--smoke" in sys.argv[1:]
    bench_result = run_resilience_bench(smoke=smoke)
    check_acceptance(bench_result)
    print(render_results(bench_result))
    if smoke:
        print("\nsmoke run: no JSON write")
    else:
        print(f"\nwrote {write_results(bench_result)}")
