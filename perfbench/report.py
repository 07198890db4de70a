"""Result collection, statistics and output of one benchmark run.

Every metric carries its unit and its clock: ``measured`` (host wall
time, or a count taken on the host) or ``modeled`` (the simulator's
analytic A100 clock).  The human-readable lines print both; the last
line is the one-object JSON summary the benchmark contract requires.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Collection, Sequence

import numpy as np

from repro.utils.benchmeta import bench_meta

__all__ = [
    "MEASURED",
    "MODELED",
    "Metric",
    "Result",
    "percentile",
    "median",
    "peak_rss_mb",
    "provenance",
]

MEASURED = "measured"
MODELED = "modeled"

#: Schema tag of the provenance header.
SCHEMA = "nm-spmm/perfbench/v1"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of no samples")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int:
    """The BLAS thread cap this process runs under (``run.py`` sets it
    before NumPy loads)."""
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)


def provenance(workload: str, seed: int, config: dict, trace: bool) -> "dict[str, Any]":
    """The run's provenance header: the repo's standard bench ``meta``
    block (seed and config fingerprint) plus the host facts a measured
    number depends on."""
    pinned = {
        "blas_threads": blas_threads(),
        "numpy_hugepages": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
    }
    meta = bench_meta(SCHEMA, config={"workload": workload, **config, **pinned}, seed=seed)
    meta.update(
        pinned,
        workload=workload,
        trace=trace,
        nproc=len(os.sched_getaffinity(0)),
        numpy=np.__version__,
        python=platform.python_version(),
    )
    return meta


@dataclass
class Metric:
    value: float
    unit: str
    clock: str
    note: str = ""


@dataclass
class Result:
    """Metrics plus the output-check tally of one run."""

    metrics: "dict[str, Metric]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: "list[str]" = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, clock: str, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, clock, note)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; a mismatch is kept, never dropped."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"check failed: {what}")

    def render(self, header: "dict[str, Any]", summarised: "Collection[str]") -> str:
        """Every metric as a line, then the JSON summary, which holds
        the ``summarised`` metrics only; the others are marked
        ``info`` in their line."""
        lines = ["# provenance " + json.dumps(header, sort_keys=True)]
        lines += [f"# {note}" for note in self.notes]
        for name in sorted(self.metrics):
            m = self.metrics[name]
            extra = f"  ({m.note})" if m.note else ""
            tag = "" if name in summarised else "  info"
            lines.append(f"{name:<34} {m.value:>16.6g} {m.unit:<8} clock={m.clock}{tag}{extra}")
        lines.append(
            f"# checks: {self.attempted} attempted, {self.failed} failed"
        )
        summary = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in sorted(self.metrics.items())
                if name in summarised
            },
        }
        lines.append(json.dumps(summary))
        return "\n".join(lines)
