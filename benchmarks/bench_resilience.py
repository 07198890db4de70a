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

Acceptance, enforced on smoke and full runs alike: request accounting
reconciles in every cell (completed + shed + timed-out + failed ==
submitted — zero silent loss), the healthy baseline is unperturbed by
enabling resilience, and on the device-fail-stop scenario
resilience-on SLO goodput strictly beats resilience-off at equal load.
``--smoke`` shortens every cell; see :mod:`harness` for the CLI, the
write policy and the pytest entry.
"""

from __future__ import annotations

import dataclasses

import harness

from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario, TrafficTier
from repro.utils.tables import TextTable

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


def run(smoke: bool) -> tuple:
    """Run the fault × resilience grid."""
    grid = {
        f"{fault_name}@{mode}": dataclasses.replace(
            BASE_SCENARIO,
            faults=spec,
            resilience=policy,
            # The smoke run still has to cover every fault window (the
            # fail-stop lands at 0.8 s, the storm ends at 1 s).
            duration_s=1.1 if smoke else BASE_SCENARIO.duration_s,
        )
        for fault_name, spec in FAULT_SCENARIOS.items()
        for mode, policy in RESILIENCE_MODES.items()
    }
    cells = harness.scenario_rows(grid)
    for cell in cells:
        fault_name, mode = cell["name"].split("@")
        cell["fault_scenario"] = fault_name
        cell["faults"] = FAULT_SCENARIOS[fault_name]
        cell["resilience"] = RESILIENCE_MODES[mode] is not None
    config = {cell["name"]: cell["scenario"] for cell in cells}
    return config, BASE_SCENARIO.seed, {"cells": cells}


def checks(result: dict, smoke: bool) -> list[str]:
    """Every bar holds on smoke and full runs alike."""
    cells = result["cells"]
    want = len(FAULT_SCENARIOS) * len(RESILIENCE_MODES)
    bars = [(len(cells) == want, f"{len(cells)} cells, want {want}")]
    for cell in cells:
        res = cell["metrics"]["resilience"]
        # Zero silent request loss: every submitted request terminates
        # exactly once, and the summary's outcome ledger reconciles.
        bars += [
            (sum(res["outcomes"].values()) == res["submitted"],
             f"{cell['name']}: outcomes {res['outcomes']} do not sum to "
             f"{res['submitted']} submitted"),
            (res["outcomes"]["completed"]
             == cell["metrics"]["completed_requests"],
             f"{cell['name']}: outcome ledger disagrees with "
             "completed_requests"),
        ]

    def resilience(name: str) -> dict:
        return harness.named(cells, name)["metrics"]["resilience"]

    # The healthy baseline must be unperturbed by enabling resilience:
    # no retries, no drops, identical completions.
    for mode in RESILIENCE_MODES:
        res = resilience(f"no-faults@{mode}")
        bars += [
            (res["outcomes"]["completed"] == res["submitted"],
             f"no-faults@{mode}: dropped requests: {res['outcomes']}"),
            (res["retries"] == 0 and res["launch_faults"] == 0,
             f"no-faults@{mode}: {res['retries']} retries, "
             f"{res['launch_faults']} launch faults"),
        ]

    # The headline claim: under a mid-run device fail-stop, re-sharding
    # onto survivors strictly beats serving without resilience.
    on, off = resilience("device-failstop@on"), resilience("device-failstop@off")
    storm_on = resilience("launch-storm@on")
    bars += [
        (on["reshards"] == 1 and on["recovery_s"] > 0,
         f"device-failstop@on: {on['reshards']} reshards, recovery "
         f"{on['recovery_s']} s"),
        (off["reshards"] == 0,
         f"device-failstop@off: {off['reshards']} reshards"),
        (on["slo_goodput"] > off["slo_goodput"],
         f"device-failstop: goodput on {on['slo_goodput']} is not above "
         f"off {off['slo_goodput']}"),
        # The storm actually injected faults and (with resilience)
        # retried.
        (storm_on["launch_faults"] > 0 and storm_on["retries"] > 0,
         f"launch-storm@on: {storm_on['launch_faults']} launch faults, "
         f"{storm_on['retries']} retries"),
    ]
    return [message for ok, message in bars if not ok]


def render(result: dict) -> str:
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


BENCH = harness.Bench(
    name="resilience",
    schema="nm-spmm/resilience-bench/v1",
    output="BENCH_resilience.json",
    run=run,
    render=render,
    checks=checks,
)
test_bench_resilience = harness.pytest_case(BENCH)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(harness.main(BENCH))
