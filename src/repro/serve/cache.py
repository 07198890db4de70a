"""Plan caching for the serving runtime.

Plan construction (Table I lookup, Eq. 5 ``ks``, strategy selection)
and the perf-model simulation of the resulting launch are pure
functions of the launch geometry, so the server shares one bounded LRU
across all registered models keyed by ``(model, padded_m, gpu,
version)`` — the GPU spec and optimization version shape the plan just
as much as the row count, so two models serving on different simulated
GPUs (or at different optimization levels) never collide.  The
batcher's row bucketing collapses the batch-size distribution onto a
few buckets, so the cache converges to near-100% hits after warm-up.
``ColumnInfo`` (Listing 3's offline pre-processing) is likewise reused
— it lives on each model's :class:`~repro.core.api.SparseHandle` and is
built at most once per block shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.api import NMSpMM, SparseHandle
from repro.core.plan import ExecutionPlan
from repro.utils.cache import CacheStats, LRUCache

__all__ = ["CacheStats", "LRUCache", "PlanEntry", "PlanCache"]


@dataclass(frozen=True)
class PlanEntry:
    """What the serving engine needs per launch geometry: the execution
    plan, its perf-model report (modeled seconds drive the simulated
    clock), and the closed-form :class:`~repro.kernels.blocked.
    KernelTrace` of the launch (FLOP and global-memory byte counts),
    which the tracer stamps onto every ``gpu.launch`` span so the
    trace-analytics roofline attribution never re-derives work from
    shapes."""

    plan: ExecutionPlan
    report: object  # KernelReport; kept untyped to avoid a model import
    trace: object = None  # KernelTrace; same import-avoidance

    @property
    def modeled_seconds(self) -> float:
        return self.report.seconds  # type: ignore[attr-defined]

    @property
    def launch_cost(self) -> "tuple[int, int, int]":
        """``(flops, ldg_bytes, stg_bytes)`` of one launch — the
        roofline-attribution counts, zeros if no trace was built."""
        if self.trace is None:
            return (0, 0, 0)
        t = self.trace
        return (t.flops, t.ldg_bytes, t.stg_bytes)  # type: ignore[attr-defined]


@dataclass
class PlanCache:
    """The shared ``(model, m, gpu, version) -> PlanEntry`` LRU of the
    server."""

    capacity: int = 64
    _lru: LRUCache = field(init=False)

    def __post_init__(self) -> None:
        self._lru = LRUCache(self.capacity)

    def lookup(
        self, model: str, op: NMSpMM, handle: SparseHandle, m: int
    ) -> PlanEntry:
        """The plan + modeled report for an ``m``-row launch of
        ``model``, building both on first use.

        Hit/miss accounting lives in :attr:`stats`; a tracing server
        reads the stats delta around this call to emit
        ``plan_cache.hit``/``plan_cache.miss`` events (see
        ``InferenceServer._cached_plan``), so the cache itself stays
        observability-free."""
        key = self.key(model, op, m)

        def build() -> PlanEntry:
            # Deliberately NOT handle-level caching (use_cache): this
            # LRU is the single bounded owner of serving plans, so
            # evicting an entry really frees it.
            plan = op.plan_for(m, handle)
            col_info = (
                handle.col_info(plan.ws, plan.params.ns)
                if plan.uses_packing
                else None
            )
            trace = plan.analytic_trace(
                col_info,
                index_itemsize=handle.compressed.indices.dtype.itemsize,
            )
            return PlanEntry(plan=plan, report=plan.simulate(), trace=trace)

        return self._lru.get_or_build(key, build)

    @staticmethod
    def key(model: str, op: NMSpMM, m: int) -> tuple:
        """The cache key of an ``m``-row launch of ``model``."""
        return (model, m, op.gpu.name, op.version.value)

    def touch(self, keys: Sequence[tuple]) -> None:
        """Replay a hit on each of ``keys`` (cached keys, in lookup
        order): the stats and LRU recency the same :meth:`lookup`
        calls would leave."""
        self._lru.touch(keys)

    @property
    def generation(self) -> int:
        """Bumped on every eviction and clear (see
        :class:`~repro.utils.cache.LRUCache`)."""
        return self._lru.generation

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()
