"""The layer boundaries the traced run wraps.

Each :class:`~perfbench.spans.Target` names a public callable at the
attribute its callers look it up through, so the wrapper sees every
call the program makes.  Span names follow the metric names in
``BENCHMARK.json`` (``traced.py`` reads the metrics off them);
``README.md`` here lists which end-to-end metric each one is expected
to move.
"""

from __future__ import annotations

from typing import Any, Callable

import repro.backends.fast as fast_backend_module
import repro.core.api as api_module
import repro.distributed.sharded as sharded_module
import repro.obs.export as export_module
import repro.serve.server as server_module
from repro.backends import AutoSelector, available_backends
from repro.core.api import NMSpMM
from repro.core.plan import ExecutionPlan
from repro.distributed.topology import DeviceGroup
from repro.nn.linear import NMSparseLinear
from repro.obs.tracer import Tracer
from repro.serve.cache import PlanCache
from repro.serve.model_exec.executor import BLOCK_LAYER_KINDS, HEAD_LAYER_KIND, ModelExecutor
from repro.serve.server import InferenceServer

from .spans import SpanRecorder, Target

__all__ = ["LAYER_KINDS", "BACKEND_CHOICES", "targets", "kernel_wrapper"]

#: The executor's five layer kinds, in walk order.
LAYER_KINDS = BLOCK_LAYER_KINDS + (HEAD_LAYER_KIND,)

#: Backends the selector can choose (``auto.choice.<name>`` metrics).
BACKEND_CHOICES = ("fast", "dense_scatter", "sharded", "structural")

_FP32 = 4


def kernel_wrapper(
    recorder: SpanRecorder, original: Callable[..., Any]
) -> Callable[..., Any]:
    """``nm_spmm_fast`` wrapped as the ``kernel`` span, adding the
    work each call does, computed from operand shapes: useful flops
    (``2 * m * n * w``, the products the pattern keeps) and bytes
    (read A, the compressed values and their row indices; write C)."""

    def kernel(a: Any, layout: Any, *args: Any, **kwargs: Any) -> Any:
        out = recorder.call("kernel", original, a, layout, *args, **kwargs)
        q, w, ell = layout.values.shape
        m = a.shape[0]
        n = q * ell
        recorder.add("kernel.flops", 2.0 * m * n * w)
        recorder.add(
            "kernel.bytes",
            float(a.nbytes + layout.values.nbytes + layout.rows.nbytes + m * n * _FP32),
        )
        return out

    return kernel


def targets(layer_kinds: "dict[int, str] | None" = None) -> "list[Target]":
    """Every wrapped boundary.  ``layer_kinds`` maps ``id()`` of an
    :class:`NMSparseLinear` to its executor layer kind, giving each
    layer call a ``layer.<kind>`` span."""
    kinds = layer_kinds or {}

    def layer_name(layer: Any, *_: Any) -> str:
        return f"layer.{kinds.get(id(layer), 'other')}"

    out = [
        # sparsity: the offline phase, at its call sites in core.api.
        Target(api_module, "prune_dense", "sparsity.prune"),
        Target(api_module, "compress", "sparsity.compress"),
        Target(api_module, "build_gather_layout", "sparsity.gather_layout"),
        # nn: one span per layer forward (``__call__`` is what the
        # executor invokes; it aliases ``forward``).
        Target(NMSparseLinear, "__call__", layer_name),
        # core.api facade.
        Target(NMSpMM, "execute", "api.execute"),
        Target(NMSpMM, "build_request", "api.build_request"),
        Target(NMSpMM, "run", "api.run"),
        # backends.
        Target(AutoSelector, "explain", "auto.explain"),
        # kernels: the gather-GEMM at both of its call sites.
        Target(fast_backend_module, "nm_spmm_fast", "kernel", kernel_wrapper),
        Target(sharded_module, "nm_spmm_fast", "kernel", kernel_wrapper),
        # distributed: the server's direct tensor-parallel numerics and
        # the ring collectives every sharded launch is priced with.
        Target(server_module, "sharded_execute", "backend.sharded.execute"),
        Target(DeviceGroup, "all_gather", "distributed.collective"),
        Target(DeviceGroup, "reduce_scatter", "distributed.collective"),
        Target(DeviceGroup, "all_reduce", "distributed.collective"),
        # serve.
        Target(ModelExecutor, "stack_seconds", "model_exec.stack_seconds"),
        Target(PlanCache, "lookup", "cache.lookup"),
        Target(ExecutionPlan, "simulate", "plan.simulate"),
        Target(InferenceServer, "simulate", "server.simulate"),
        # obs: the program's own tracer, record and export calls.
        Target(Tracer, "begin", "obs.record"),
        Target(Tracer, "end", "obs.record"),
        Target(Tracer, "add_span", "obs.record"),
        Target(Tracer, "event", "obs.record"),
        Target(export_module, "chrome_trace", "obs.export"),
    ]
    # Every registered backend's run(), one span name per backend.
    seen: "set[type]" = set()
    for backend in available_backends():
        cls = type(backend)
        if cls in seen:
            continue
        seen.add(cls)
        out.append(Target(cls, "run", f"backend.{backend.name}.run"))
    return out
