"""The structural backend: per-block executors with recorded traces.

Mirrors the CUDA kernel's device/block/warp structure — the packed
executor (Listing 3) when the plan's strategy is packing, the blocked
executor (Listings 1/2) otherwise — and records every memory and
compute event into the request's trace while actually walking the
tiles.  It is the provenance ground truth the analytic traces are
tested against, and the only backend whose traces are *recorded*
rather than derived from the plan.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends.base import ExecutionRequest, ExecutionResult
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.packed import nm_spmm_packed

__all__ = ["StructuralBackend"]


class StructuralBackend:
    """Strategy-appropriate structural executor (packed or blocked)."""

    name = "structural"

    def capabilities(self) -> dict:
        return {
            "description": "per-block executors mirroring the CUDA "
            "kernel's structure (packed at high sparsity, blocked "
            "otherwise); records event-level traces",
            "traces": "recorded",
            "needs_plan": True,
        }

    def supports(self, request: ExecutionRequest) -> "bool | str":
        if request.plan is None and request.planner is None:
            return (
                "the structural executors need an ExecutionPlan but the "
                "request carries neither a plan nor a planner"
            )
        return True

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        compressed = request.handle.compressed
        plan = None
        if request.m == 0:
            # No rows: no tiles to walk and no tiling to plan, so the
            # product is empty and a recorded trace stays empty.
            start = time.perf_counter()
            out = np.zeros((0, compressed.n), dtype=np.float32)
        else:
            plan = request.resolve_plan()
            if plan.uses_packing:
                col_info = request.col_info_for(plan)
                start = time.perf_counter()
                out = nm_spmm_packed(
                    request.a, compressed, plan.params, col_info,
                    trace=request.trace,
                )
            else:
                start = time.perf_counter()
                out = nm_spmm_blocked(
                    request.a, compressed, plan.params, trace=request.trace
                )
        seconds = time.perf_counter() - start
        if request.trace is not None:
            request.trace.tag_backend(self.name)
        return ExecutionResult(
            output=out,
            backend=self.name,
            plan=plan,
            seconds=seconds,
            trace_filled=request.wants_trace,
        )
