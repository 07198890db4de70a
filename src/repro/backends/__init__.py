"""Pluggable execution backends for NM-SpMM.

The execution layer's public API:

* :class:`~repro.backends.base.Backend` — the protocol (``name`` +
  ``supports(request)`` + ``run(request)``);
* :class:`~repro.backends.base.ExecutionRequest` /
  :class:`~repro.backends.base.ExecutionResult` — the operand/result
  pair every backend consumes and produces;
* :func:`~repro.backends.registry.register_backend` /
  :func:`~repro.backends.registry.get_backend` /
  :func:`~repro.backends.registry.available_backends` /
  :func:`~repro.backends.registry.backend_names` — the process-wide
  registry;
* :class:`~repro.backends.auto.AutoSelector` — the cost-aware
  ``backend="auto"`` policy, with
  :meth:`~repro.backends.auto.AutoSelector.explain` for inspectable
  decisions.

Importing this package registers the builtin backends in display
order: ``fast`` (batched gather-GEMM), ``structural`` (recorded-trace
executors), ``dense_scatter`` (scatter-to-dense + SGEMM for the tiny-L
regime) and ``sharded`` (tensor-parallel execution across a simulated
device group, from :mod:`repro.distributed`).
"""

from repro.backends.auto import (
    GATHER_FULL_EFFICIENCY_L,
    SCATTER_MACS_PER_ELEMENT,
    AutoSelector,
    SelectionDecision,
)
from repro.backends.base import (
    AnalyticTraceBackend,
    Backend,
    ExecutionRequest,
    ExecutionResult,
    fill_analytic_trace,
)
from repro.backends.dense_scatter import DenseScatterBackend
from repro.backends.fast import FastBackend
from repro.backends.registry import (
    AUTO_BACKEND,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.structural import StructuralBackend

__all__ = [
    "Backend",
    "AnalyticTraceBackend",
    "ExecutionRequest",
    "ExecutionResult",
    "fill_analytic_trace",
    "AUTO_BACKEND",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_names",
    "AutoSelector",
    "SelectionDecision",
    "GATHER_FULL_EFFICIENCY_L",
    "SCATTER_MACS_PER_ELEMENT",
    "FastBackend",
    "StructuralBackend",
    "DenseScatterBackend",
    "ShardedBackend",
]

# Builtin registrations (idempotent across re-imports because module
# initialization runs once per process).  The sharded backend lives in
# repro.distributed and is imported last: it consumes this package's
# already-bound base/registry/auto modules, which is safe mid-init.
from repro.distributed.sharded import ShardedBackend  # noqa: E402

for _backend in (
    FastBackend(),
    StructuralBackend(),
    DenseScatterBackend(),
    ShardedBackend(),
):
    register_backend(_backend)
del _backend
