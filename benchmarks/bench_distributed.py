"""Distributed strong scaling: tensor-parallel NM-SpMM across devices.

Models true-scale Llama layers (no weights are materialized — the
per-device launches are priced by the paper's performance model on the
shard shapes, and the collectives by the ring formulas of
:mod:`repro.distributed.topology`) across 1/2/4/8 simulated A100s:

* **strong scaling** — fixed problem, growing device count, for both
  tensor-parallel modes; each point reports modeled seconds, the
  compute/communication split, speedup vs single-device and parallel
  efficiency;
* **column-vs-row crossover** — at a fixed 4-device group, sweep the
  batch size ``m``: row-parallel keeps the full output width per
  device (block-level parallelism survives small batches) but pays a
  2x all-reduce; column-parallel halves the wire bytes but thins each
  device's output slab.  The sweep records the modeled winner per
  ``m`` and where (if anywhere) it flips.

Writes ``BENCH_distributed.json`` at the repo root (schema
``nm-spmm/distributed-bench/v1``) so the distributed trajectory
accrues across PRs.  Acceptance (full runs): on the large Llama shape,
4-device column-parallel must model below 0.5x the single-device
latency.  ``--smoke`` runs one shape on 1-2 devices; see
:mod:`harness` for the CLI, the write policy and the pytest entry.
"""

from __future__ import annotations

import harness

from repro.core.plan import build_plan
from repro.distributed import DeviceGroup, modeled_shape_step
from repro.sparsity.config import NMPattern
from repro.utils.tables import TextTable
from repro.workloads.llama import llama_layer_shape

GPU = "A100"
LINK = "nvlink"
PATTERN = NMPattern(2, 8, vector_length=8)

#: (name, n, k) — true Llama linear-layer shapes (weight is k x n).
#: ``large`` is the Llama-65B LM head, the acceptance shape.
SHAPES: tuple[tuple[str, int, int], ...] = tuple(
    (f"{model}/{layer}", *llama_layer_shape(model, layer))
    for model, layer in (
        ("llama-7b", "attn-qkvo"),
        ("llama-13b", "mlp-gate-up"),
        ("llama-65b", "lm-head"),
    )
)
LARGE_SHAPE = "llama-65b/lm-head"

SCALING_M = 2048
DEVICE_COUNTS: tuple[int, ...] = (1, 2, 4, 8)
CROSSOVER_DEVICES = 4
CROSSOVER_M: tuple[int, ...] = (1, 4, 16, 64, 256, 1024, 4096)

SMOKE_SHAPES = SHAPES[:1]
SMOKE_DEVICE_COUNTS: tuple[int, ...] = (1, 2)
SMOKE_CROSSOVER_M: tuple[int, ...] = (1, 256)


def _single_device_seconds(m: int, n: int, k: int) -> float:
    return build_plan(m, n, k, PATTERN, GPU).simulate().seconds


def _point(m: int, n: int, k: int, devices: int, mode: str, single_s: float) -> dict:
    group = DeviceGroup.build(GPU, devices=devices, link=LINK)
    step = modeled_shape_step(m, n, k, PATTERN, group, mode)
    return {
        "seconds": step.seconds,
        "compute_s": step.compute_seconds,
        "comm_s": step.comm.seconds,
        "comm_fraction": round(step.comm_fraction, 4),
        "speedup_vs_single": single_s / step.seconds,
        "efficiency": single_s / step.seconds / devices,
    }


def run_config(
    name: str,
    n: int,
    k: int,
    *,
    device_counts: tuple[int, ...],
    crossover_m: tuple[int, ...],
) -> dict:
    single_s = _single_device_seconds(SCALING_M, n, k)
    scaling: dict[str, dict] = {"column": {}, "row": {}}
    for mode in scaling:
        for devices in device_counts:
            if devices == 1:
                scaling[mode][str(devices)] = {
                    "seconds": single_s,
                    "compute_s": single_s,
                    "comm_s": 0.0,
                    "comm_fraction": 0.0,
                    "speedup_vs_single": 1.0,
                    "efficiency": 1.0,
                }
                continue
            scaling[mode][str(devices)] = _point(
                SCALING_M, n, k, devices, mode, single_s
            )

    points = []
    for m in crossover_m:
        column = modeled_shape_step(
            m, n, k, PATTERN,
            DeviceGroup.build(GPU, devices=CROSSOVER_DEVICES, link=LINK),
            "column",
        )
        row = modeled_shape_step(
            m, n, k, PATTERN,
            DeviceGroup.build(GPU, devices=CROSSOVER_DEVICES, link=LINK),
            "row",
        )
        points.append(
            {
                "m": m,
                "column_s": column.seconds,
                "column_comm_fraction": round(column.comm_fraction, 4),
                "row_s": row.seconds,
                "row_comm_fraction": round(row.comm_fraction, 4),
                "winner": "column" if column.seconds <= row.seconds else "row",
            }
        )
    first_winner = points[0]["winner"]
    crossover = next(
        (p["m"] for p in points if p["winner"] != first_winner), None
    )
    return {
        "name": name,
        "shape": {"m": SCALING_M, "n": n, "k": k},
        "pattern": PATTERN.label(),
        "single_device_s": single_s,
        "scaling": scaling,
        "crossover": {
            "devices": CROSSOVER_DEVICES,
            "points": points,
            "first_winner": first_winner,
            "crossover_m": crossover,
        },
    }


def run(smoke: bool) -> tuple:
    shapes = SMOKE_SHAPES if smoke else SHAPES
    device_counts = SMOKE_DEVICE_COUNTS if smoke else DEVICE_COUNTS
    crossover_m = SMOKE_CROSSOVER_M if smoke else CROSSOVER_M
    config = {
        "gpu": GPU,
        "link": LINK,
        "pattern": PATTERN.label(),
        "shapes": [list(s) for s in shapes],
        "device_counts": list(device_counts),
        "crossover_m": list(crossover_m),
        "scaling_m": SCALING_M,
    }
    return config, None, {
        "gpu": GPU,
        "link": LINK,
        "pattern": PATTERN.label(),
        "configs": [
            run_config(
                name, n, k,
                device_counts=device_counts,
                crossover_m=crossover_m,
            )
            for name, n, k in shapes
        ],
    }


def render(result: dict) -> str:
    table = TextTable(
        ["config", "mode", "devices", "modeled ms", "comm %", "speedup", "eff"],
        title="distributed strong scaling (modeled, "
        f"{result['gpu']} x {result['link']})",
    )
    for config in result["configs"]:
        for mode, by_devices in config["scaling"].items():
            for devices, point in by_devices.items():
                table.add_row(
                    [
                        config["name"],
                        mode,
                        devices,
                        f"{point['seconds'] * 1e3:.3f}",
                        f"{point['comm_fraction'] * 100:.1f}",
                        f"{point['speedup_vs_single']:.2f}x",
                        f"{point['efficiency'] * 100:.0f}%",
                    ]
                )
    lines = [table.render()]
    for config in result["configs"]:
        cross = config["crossover"]
        winners = ", ".join(
            f"m={p['m']}:{p['winner']}" for p in cross["points"]
        )
        flip = (
            f"flips at m={cross['crossover_m']}"
            if cross["crossover_m"] is not None
            else "no flip"
        )
        lines.append(
            f"{config['name']} column-vs-row @ {cross['devices']} devices: "
            f"{winners} ({flip})"
        )
    return "\n".join(lines)


def checks(result: dict, smoke: bool) -> list[str]:
    if smoke:
        return []
    configs = result["configs"]
    bars = [(len(configs) == len(SHAPES), f"{len(configs)} configs")]
    for config in configs:
        name = config["name"]
        for mode in ("column", "row"):
            points = config["scaling"][mode]
            bars += [
                (set(points) == {str(d) for d in DEVICE_COUNTS},
                 f"{name} {mode}: device counts {sorted(points)}"),
                (all(p["seconds"] > 0 for p in points.values()),
                 f"{name} {mode}: a non-positive modeled time"),
                (all(0 <= p["comm_fraction"] <= 1 for p in points.values()),
                 f"{name} {mode}: a comm fraction outside [0, 1]"),
            ]
        bars.append(
            (len(config["crossover"]["points"]) == len(CROSSOVER_M),
             f"{name}: {len(config['crossover']['points'])} crossover points")
        )
    # The acceptance bar: 4-device column-parallel below half the
    # single-device latency on the large Llama shape.
    large = harness.named(configs, LARGE_SHAPE)
    ratio = large["scaling"]["column"]["4"]["seconds"] / large["single_device_s"]
    bars.append(
        (ratio < 0.5,
         f"4-device column-parallel models {ratio:.2f}x the single-device "
         f"latency on {LARGE_SHAPE} (bar: < 0.5x)")
    )
    return [message for ok, message in bars if not ok]


BENCH = harness.Bench(
    name="distributed",
    schema="nm-spmm/distributed-bench/v1",
    output="BENCH_distributed.json",
    run=run,
    render=render,
    checks=checks,
)
test_bench_distributed = harness.pytest_case(BENCH)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(harness.main(BENCH))
