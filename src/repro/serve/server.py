"""The serving engine: model registry + discrete-event simulation.

:class:`InferenceServer` owns the registered models (each an
:class:`~repro.core.api.NMSpMM` operator plus its prepared
:class:`~repro.core.api.SparseHandle`), per-device plan caches, and a
simulated GPU — or, with ``devices > 1``, a simulated multi-GPU
:class:`~repro.distributed.topology.DeviceGroup` that every model's
weights are sharded tensor-parallel across at registration.
``simulate`` replays a seeded request trace through the batching layer
with a discrete-event loop:

* requests are admitted to their model's queue at arrival time — to
  the *decode* queue (rolling continuous batch) when continuous
  batching is enabled and the request is decode-shaped, else to the
  *prefill* queue (cut-and-wait dynamic batcher);
* whenever the GPU is free, the most urgent launchable work runs: a
  prefill queue that fills a batch budget, blows its max-wait deadline,
  or sits nonempty after the arrival stream has drained — or a
  continuous step whenever decode work is resident or waiting.
  Urgency follows the :class:`~repro.serve.scheduling.SchedulingPolicy`
  (arrival order, strict priority, or priority + earliest deadline);
* a launch's service time is the perf model's prediction for the
  padded batch shape (plus a fixed host overhead), so the latency
  curves reflect the paper's modeled GPU timing while the numerics run
  through the real NumPy kernels.  A multi-step (decode-sequence)
  request charges one modeled launch per step: the dynamic path holds
  the whole batch until its longest member finishes, while the
  continuous path re-forms the rolling batch between steps.

With a :class:`~repro.faults.FaultPlan` attached, the run is subjected
to seeded chaos — transient launch failures, device fail-stop and
slow-down, link degradation — and with a
:class:`~repro.serve.resilience.ResiliencePolicy` the engine survives
it: failed launches retry with exponential backoff on the simulated
clock, requests past their timeout are cancelled wherever they live,
a per-device circuit breaker benches a device that fails repeatedly
(half-open: it rejoins after a cooldown, or fail-stops for good when
the cooldown is disabled), dead devices trigger re-sharding of the
affected models onto the survivors, and admission control sheds
low-priority load under
backlog.  Every submitted request terminates exactly once — completed,
shed, timed-out, or failed — and the run's
:meth:`~repro.serve.metrics.ServingMetrics.reconcile` proves it.

Everything advances on the simulated clock — two runs of the same trace
produce identical reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.backends.registry import backend_names
from repro.core.api import NMSpMM, SparseHandle
from repro.distributed.shard import SHARD_MODES, ShardedHandle, shard_handle
from repro.distributed.sharded import sharded_execute
from repro.distributed.topology import CommEvent, DeviceGroup, Link, get_link
from repro.errors import ServeError
from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.gpu.spec import GPUSpec
from repro.obs.tracer import Tracer
from repro.serve.batcher import BatchingPolicy, ContinuousBatcher, DynamicBatcher
from repro.serve.cache import PlanCache
from repro.serve.metrics import (
    BatchRecord,
    DropRecord,
    ReshardRecord,
    ServingMetrics,
    StepRecord,
)
from repro.serve.model_exec.executor import ModelExecutor
from repro.serve.model_exec.memory import (
    KV_ADMISSION_MODES,
    DeviceMemoryModel,
)
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest, RequestRecord
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduling import SchedulingPolicy, request_order_key
from repro.sparsity.config import NMPattern

__all__ = ["ModelEntry", "ServingReport", "InferenceServer"]

#: Fixed host-side cost charged per batch launch (scheduling, argument
#: marshalling) on top of the modeled GPU time.
DEFAULT_HOST_OVERHEAD_S = 10e-6

#: Trace event of each non-completion outcome.
_DROP_EVENTS = {
    "shed": "admission.shed",
    "timed-out": "request.timeout",
    "failed": "request.failed",
}


@dataclass(frozen=True)
class ModelEntry:
    """One registered weight matrix and its operator.

    On a distributed server (``devices > 1``) the entry additionally
    carries the tensor-parallel partition of its weights and the device
    group they execute on; single-device entries leave both ``None``.
    """

    name: str
    op: NMSpMM
    handle: SparseHandle
    sharded: "ShardedHandle | None" = None
    group: "DeviceGroup | None" = None
    #: Model-mode: the whole-model executor this entry serves, plus
    #: one per-layer sub-entry per hosted layer (each with its own
    #: handle, shards, and plan-cache key).  Plain matmul entries
    #: leave both unset.
    executor: "ModelExecutor | None" = None
    layers: "tuple[ModelEntry, ...]" = ()

    @property
    def k(self) -> int:
        """Activation width requests must have (the weights' logical
        k; compression padding is internal to execute)."""
        if self.executor is not None:
            return self.executor.hidden
        return self.handle.k_logical

    @property
    def n(self) -> int:
        """Output width requests receive (the weights' logical n)."""
        if self.executor is not None:
            return self.executor.vocab
        return self.handle.n_logical

    @cached_property  # entries are immutable; the launch path asks often
    def distributed(self) -> bool:
        if self.layers:
            return any(layer.sharded is not None for layer in self.layers)
        return self.sharded is not None

    def describe(self) -> str:
        if self.executor is not None:
            what = (
                f"{self.executor.model.name} ({len(self.layers)} layers, "
                f"{self.executor.pattern.label()})"
            )
            placed = self.layers[0]
        else:
            what = f"{self.op.pattern.label()} k={self.k} n={self.n}"
            placed = self
        text = (
            f"{self.name}: {what} gpu={self.op.gpu.name} "
            f"{self.op.version.value}"
        )
        if self.distributed:
            text += (
                f" [{placed.sharded.mode}-parallel x"
                f"{placed.sharded.devices} over {placed.group.link.name}]"
            )
        return text


@dataclass
class _RunState:
    """Chaos/resilience state and the walk memo of one ``simulate()``
    call.

    Everything fault-related is run-local: the injector is rebuilt (and
    its seeded stream rewound) per run, re-sharded model entries live in
    an overlay over the immutable registry, and breaker/retry/timeout
    bookkeeping starts empty — so back-to-back runs of the same trace
    stay byte-identical.
    """

    metrics: ServingMetrics
    injector: "FaultInjector | None" = None
    resilience: "ResiliencePolicy | None" = None
    rng: "np.random.Generator | None" = None  # backoff jitter stream
    #: model -> re-sharded ModelEntry (shadowing the registry).
    overlay: dict = field(default_factory=dict)
    #: model -> tuple of *physical* device ids its shards run on.
    device_map: dict = field(default_factory=dict)
    #: fail-stopped physical devices (plan-scheduled, or breaker-opened
    #: permanently under ``breaker_cooldown_s=None``).
    dead: set = field(default_factory=set)
    #: physical device -> circuit-close (revival) time of a half-open
    #: breaker; models touching the device hold launches until then.
    breaker_down: dict = field(default_factory=dict)
    #: physical device -> consecutive attributed launch failures.
    breaker_streak: dict = field(default_factory=dict)
    #: request_id -> failed launch attempts so far.
    attempts: dict = field(default_factory=dict)
    #: (ready_s, request_id, request) backoff heap of pending retries.
    retry_heap: list = field(default_factory=list)
    #: request_id -> absolute cancellation deadline.
    deadlines: dict = field(default_factory=dict)
    #: model -> consecutive failed continuous steps.
    cb_streak: dict = field(default_factory=dict)
    #: model -> no continuous step before this time (decode backoff).
    holdoff: dict = field(default_factory=dict)
    resharded: bool = False
    #: Simulated HBM pool of the run (set when any registered model
    #: carries a ModelExecutor).
    memory: "DeviceMemoryModel | None" = None
    #: The run's aggregate HBM budget at full device count — the base
    #: a fail-stop's survivor budget is scaled from.
    hbm_base_budget: int = 0
    #: The run's model -> ContinuousBatcher map (device-death handling
    #: must evict model-mode residents outside the step path).
    continuous: "dict | None" = None
    #: Walk memo of :meth:`InferenceServer._cost`: ``(id of the first
    #: walked entry, entries walked, padded_rows) -> (cost, lookups,
    #: touches)``.  Valid only while ``walks_generation`` still equals
    #: the plan caches' summed generation (no eviction or clear since).
    walks: dict = field(default_factory=dict)
    walks_generation: int = 0


@dataclass(eq=False, slots=True)
class _Cost:
    """Modeled cost of one engine launch.

    Built by :meth:`InferenceServer._cost` layer by layer — one layer
    for a dynamic batch or continuous step, the whole stack for a
    model-mode walk, whose layers run back-to-back so their seconds
    add — and merged walk by walk for a model step's (re)prefills and
    decode.  ``per_device`` sums each device's compute seconds,
    ``comm_s`` every collective's seconds, and ``comm`` keeps the ring
    collective itself when the cost is one distributed layer.
    ``spans`` lists ``(layer, offset, seconds, (flops, ldg_bytes,
    stg_bytes))`` per layer in walk order, the offset relative to the
    layer's walk; ``plan`` is the single-device plan the numerics
    execute with.
    """

    seconds: float = 0.0
    per_device: "list[float] | tuple[()]" = ()
    comm: "CommEvent | None" = None
    comm_s: float = 0.0
    spans: list = field(default_factory=list)
    plan: object = None

    @property
    def work(self) -> "tuple[int, int, int]":
        """``(flops, ldg_bytes, stg_bytes)`` summed over every layer."""
        if len(self.spans) == 1:
            return self.spans[0][3]
        flops = ldg_bytes = stg_bytes = 0
        for _, _, _, (layer_flops, layer_ldg, layer_stg) in self.spans:
            flops += layer_flops
            ldg_bytes += layer_ldg
            stg_bytes += layer_stg
        return flops, ldg_bytes, stg_bytes

    def merge(self, walk: "_Cost") -> None:
        """Charge ``walk`` after everything charged so far (its spans
        keep their walk-relative offsets)."""
        self.seconds += walk.seconds
        self.comm_s += walk.comm_s
        if walk.per_device:
            self.per_device = _device_sum(self.per_device, walk.per_device)
        self.spans.extend(walk.spans)


def _device_sum(total: list, per_device: list) -> list:
    """Per-device seconds of two back-to-back launches (``total`` may
    still be empty)."""
    if not total:
        return list(per_device)
    return [a + b for a, b in zip(total, per_device, strict=True)]


@dataclass(eq=False, slots=True)
class _Launch:
    """One engine launch on its way through the pipeline: what its
    form step cut and what it costs.

    ``kind`` is ``"prefill"`` (a dynamic batch), ``"decode"`` (a
    continuous step of a plain matmul entry) or ``"model"`` (a
    model-mode step).  ``cb`` through ``preempted`` and ``dropped``/
    ``retry`` belong to the continuous kinds, ``prefills`` through
    ``kv_evicted`` to model mode.
    """

    kind: str
    name: str
    entry: ModelEntry
    batch: object
    start_s: float
    cost: _Cost
    #: Modeled launches the batch holds the GPU for (a dynamic batch
    #: runs until its longest member finishes; a failed launch dies
    #: at its first).
    steps: int = 1
    cb: "ContinuousBatcher | None" = None
    joined: int = 0
    preempted: int = 0
    #: ``(inflight, tokens, padded_rows, walk cost)`` per (re)prefill.
    prefills: "list | tuple" = ()
    decode: "_Cost | None" = None
    prefill_s: float = 0.0
    thrash_s: float = 0.0
    kv_evicted: int = 0
    #: Set by the failure handler: ids of the residents dropped for
    #: good, and the ``(residents, attempt)`` of the held-off retry.
    dropped: "tuple[int, ...]" = ()
    retry: "tuple[int, int] | None" = None


@dataclass
class ServingReport:
    """Everything one simulated run produced."""

    metrics: ServingMetrics
    policy: BatchingPolicy
    plan_cache_stats: dict
    model_names: list[str]
    numerics: bool
    backend: str = "auto"
    scheduling: str = SchedulingPolicy.FIFO.value
    continuous: bool = False
    devices: int = 1
    shard: "str | None" = None
    link: "str | None" = None
    faults: "str | None" = None
    resilience: "str | None" = None
    #: The run's reconciled HBM pool (only on executor-backed runs) —
    #: its ``events`` series backs the never-over-budget property.
    memory_model: "DeviceMemoryModel | None" = None

    @property
    def request_records(self) -> list[RequestRecord]:
        return self.metrics.request_records

    def record_for(self, request_id: int) -> RequestRecord:
        for record in self.metrics.request_records:
            if record.request.request_id == request_id:
                return record
        raise ServeError(f"no record for request {request_id}")

    def summary(self, extra: "dict | None" = None) -> dict:
        out = self.metrics.summary(
            {
                "models": self.model_names,
                "numerics": self.numerics,
                "backend": self.backend,
                "plan_cache": self.plan_cache_stats,
                "policy": {
                    "scheduling": self.scheduling,
                    "continuous_batching": self.continuous,
                    "max_batch_requests": self.policy.max_batch_requests,
                    "max_batch_rows": self.policy.max_batch_rows,
                    "max_wait_ms": self.policy.max_wait_s * 1e3,
                    "pad_rows_quantum": self.policy.pad_rows_quantum,
                    "pow2_rows": self.policy.pow2_rows,
                    "decode_rows_threshold": self.policy.decode_rows_threshold,
                },
            }
        )
        if self.devices > 1:
            out["topology"] = {
                "devices": self.devices,
                "shard": self.shard,
                "link": self.link,
            }
        if self.faults is not None or self.resilience is not None:
            out["chaos"] = {
                "faults": self.faults,
                "resilience": self.resilience,
            }
        if extra:
            out.update(extra)
        return out

    def render(self, title: str = "serve-sim") -> str:
        text = self.metrics.render(title=title)
        cache = self.plan_cache_stats
        text += (
            f"\nplan cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate'] * 100:.1f}% hit rate, "
            f"{cache['evictions']} evictions)"
        )
        text += f"\nscheduling: {self.scheduling}"
        if self.continuous:
            text += (
                " + continuous batching (decode rows <= "
                f"{self.policy.decode_rows_threshold})"
            )
        if self.devices > 1:
            text += (
                f"\ntopology: {self.devices} devices, "
                f"{self.shard}-parallel over {self.link}"
            )
        if self.faults is not None:
            text += f"\nfaults: {self.faults}"
        if self.resilience is not None:
            text += f"\nresilience: {self.resilience}"
        text += f"\nmodels: {', '.join(self.model_names)}"
        return text


class InferenceServer:
    """Single-process serving runtime over NM-SpMM operators.

    Parameters
    ----------
    policy:
        Default batching policy (overridable per ``simulate`` call).
    plan_cache_capacity:
        Entries in the shared plan LRU (keyed by model, padded row
        count, GPU, and optimization version — see
        :class:`~repro.serve.cache.PlanCache`).
    execute_numerics:
        When True each batch also runs through the NumPy kernels and
        every request record carries its output slice; when False only
        the modeled timing is produced (pure scheduling study).
    host_overhead_s:
        Fixed per-launch host cost added to the modeled GPU time.
    backend:
        Kernel backend every batch executes with — any name the
        backend registry (:mod:`repro.backends`) knows, validated here
        so misconfiguration fails at construction rather than on the
        first batch.  The default ``"auto"`` lets the cost-aware
        selector choose per model handle (gather-GEMM for healthy
        vector lengths, scatter-to-dense below the efficiency
        crossover); the server only needs numerics and modeled timing,
        never recorded traces, so auto never lands on the structural
        executors.
    scheduling:
        Queue-order and queue-selection policy: ``"fifo"`` (arrival
        order), ``"priority"`` (strict tiers), or ``"slo-edf"``
        (strict tiers + earliest deadline first within a tier).
    continuous_batching:
        Route decode-shaped requests (rows <= the policy's
        ``decode_rows_threshold``) to a rolling in-flight batch that
        refills every engine step instead of waiting for a fresh cut.
    devices:
        Simulated device count.  ``1`` (the default) is the
        single-GPU server; ``> 1`` shards every registered model's
        weights tensor-parallel across a
        :class:`~repro.distributed.topology.DeviceGroup` built from the
        model's own GPU spec — each device gets its own plan cache, a
        launch's modeled time is the slowest device plus the mode's
        ring collective, and numerics (when enabled) run the real
        per-device gather-GEMM kernels.  Distributed numerics always
        take the sharded path; ``backend`` applies to single-device
        entries only.
    shard:
        Tensor-parallel mode for ``devices > 1``: ``"column"`` (shard
        n, all-gather outputs) or ``"row"`` (shard k, all-reduce
        partials).
    link:
        Interconnect of the simulated group — a name from
        :data:`~repro.distributed.topology.LINKS` or an explicit
        :class:`~repro.distributed.topology.Link`.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When set, every
        simulated run records spans on the simulated clock — request
        admission and queue waits, batch/step launches with nested
        per-device compute and ring-collective children, plan-cache
        hits/misses, continuous-batching join/evict/preempt — plus the
        matching counters/histograms in ``tracer.metrics``.  ``None``
        (the default) keeps serving observation-free; the only cost of
        the disabled path is a ``None`` check per instrumentation
        site.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a ``--faults``
        spec string) applied to every simulated run: transient launch
        failures, device fail-stop/slow-down, link degradation.  The
        plan's seed drives one run-local random stream, so the same
        plan and trace produce the identical fault schedule.
    resilience:
        Optional :class:`~repro.serve.resilience.ResiliencePolicy`
        (``True`` for the defaults): retries with backoff, timeouts,
        circuit breaking, re-sharding onto survivors, load shedding.
        ``None`` (the default) serves without a safety net — any
        injected launch failure permanently fails its requests.
    hbm_bytes:
        Model-mode only: aggregate simulated HBM of the device group.
        ``None`` (the default) takes the executor GPU's catalog
        ``dram_gb`` times ``devices``; scaled-down scenarios pass a
        small explicit budget so memory pressure is actually exercised.
    kv_admission:
        ``"kv-aware"`` (default): continuous-batch admission refuses
        sequences whose KV cache would overflow the budget, and memory
        pressure evicts residents (cheapest modeled re-prefill first)
        before growth; resident bytes never exceed the budget.
        ``"none"``: the no-memory-model baseline — everything is
        admitted and each overflowing step pays host-link thrash time
        (spilled KV bytes over ``host_link_bytes_per_s``).
    host_link_bytes_per_s:
        Modeled host<->device bandwidth the ``"none"`` baseline's KV
        spill/reload thrash is priced against (default ~PCIe gen4).
    """

    def __init__(
        self,
        *,
        policy: "BatchingPolicy | None" = None,
        plan_cache_capacity: int = 64,
        execute_numerics: bool = True,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
        backend: str = "auto",
        scheduling: "str | SchedulingPolicy" = SchedulingPolicy.FIFO,
        continuous_batching: bool = False,
        devices: int = 1,
        shard: str = "column",
        link: "str | Link" = "nvlink",
        tracer: "Tracer | None" = None,
        faults: "FaultPlan | str | None" = None,
        resilience: "ResiliencePolicy | bool | None" = None,
        hbm_bytes: "int | None" = None,
        kv_admission: str = "kv-aware",
        host_link_bytes_per_s: float = 16e9,
    ):
        if host_overhead_s < 0:
            raise ServeError(
                f"host_overhead_s must be >= 0, got {host_overhead_s}"
            )
        if hbm_bytes is not None and hbm_bytes <= 0:
            raise ServeError(f"hbm_bytes must be > 0, got {hbm_bytes}")
        if kv_admission not in KV_ADMISSION_MODES:
            raise ServeError(
                f"unknown kv admission mode {kv_admission!r}; "
                f"pick one of {KV_ADMISSION_MODES}"
            )
        if host_link_bytes_per_s <= 0:
            raise ServeError(
                "host_link_bytes_per_s must be > 0, got "
                f"{host_link_bytes_per_s}"
            )
        if backend not in backend_names():
            raise ServeError(
                f"unknown backend {backend!r}; expected one of "
                f"{backend_names()}"
            )
        if devices < 1:
            raise ServeError(f"devices must be >= 1, got {devices}")
        if shard not in SHARD_MODES:
            raise ServeError(
                f"unknown shard mode {shard!r}; expected one of "
                f"{SHARD_MODES}"
            )
        self.policy = policy or BatchingPolicy()
        #: One plan cache per simulated device (a shard's launch
        #: geometry differs per device when windows divide unevenly, so
        #: sharing one LRU would let devices evict each other's plans).
        self.plan_caches: tuple[PlanCache, ...] = tuple(
            PlanCache(capacity=plan_cache_capacity) for _ in range(devices)
        )
        self.plan_cache = self.plan_caches[0]
        self.execute_numerics = execute_numerics
        self.host_overhead_s = host_overhead_s
        self.backend = backend
        self.scheduling = SchedulingPolicy.parse(scheduling)
        self.continuous_batching = continuous_batching
        self.devices = devices
        self.shard = shard
        self.link = get_link(link)
        self.tracer = tracer
        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
        self.faults = faults
        if resilience is True:
            resilience = ResiliencePolicy()
        elif resilience is False:
            resilience = None
        self.resilience = resilience
        #: Aggregate simulated HBM of the device group in bytes for
        #: model-mode runs; ``None`` reads the executor GPU's catalog
        #: ``dram_gb`` (times ``devices``).
        self.hbm_bytes = hbm_bytes
        #: ``"kv-aware"`` — admission/growth respects the HBM budget
        #: and memory pressure evicts; ``"none"`` — the baseline with
        #: no memory model, where overflow costs host-link thrash.
        self.kv_admission = kv_admission
        #: Modeled host<->device link rate the ``"none"`` baseline's
        #: KV spill/reload thrash is priced against.
        self.host_link_bytes_per_s = host_link_bytes_per_s
        self._models: dict[str, ModelEntry] = {}
        self._inbox: list[InferenceRequest] = []
        #: (metric, label) -> pre-bound metric handle of
        #: ``_bound_registry``; the per-launch hot path must not
        #: re-normalize labels.
        self._bound_metrics: dict = {}
        self._bound_registry = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_model(
        self,
        name: str,
        weights: np.ndarray,
        pattern: NMPattern,
        *,
        gpu: "str | GPUSpec" = "A100",
        version: str = "V3",
        already_pruned: bool = False,
    ) -> ModelEntry:
        """Prepare ``weights`` (the offline phase) and register the
        handle under ``name``."""
        op = NMSpMM(pattern, gpu=gpu, version=version)
        handle = op.prepare(weights, already_pruned=already_pruned)
        return self.register_handle(name, op, handle)

    def register_handle(
        self, name: str, op: NMSpMM, handle: SparseHandle
    ) -> ModelEntry:
        """Register an already-prepared handle under ``name``.  On a
        distributed server this is where the offline phase pays the
        tensor-parallel partition (plus the per-shard gather layouts),
        so serving steps only execute and communicate."""
        self._check_new_name(name)
        entry = self._placed(name, op, handle, self.devices)
        self._models[name] = entry
        return entry

    def register_executor(
        self, name: str, executor: ModelExecutor
    ) -> ModelEntry:
        """Register a whole-model :class:`ModelExecutor` under
        ``name``.  Every hosted layer becomes a per-layer sub-entry
        (own handle, own shards on a distributed server, own
        plan-cache key), and requests against ``name`` must be
        model-mode (``prompt_len``/``max_new_tokens``): the engine
        walks prefill and per-token decode through the sub-entries,
        one modeled gather-GEMM launch per layer per step."""
        self._check_new_name(name)
        if self.execute_numerics:
            raise ServeError(
                "model-mode serving is modeled-time only; build the "
                "server with execute_numerics=False (use the executor's "
                "own logits()/hidden_states() for numerics)"
            )
        if not self.continuous_batching:
            raise ServeError(
                "model-mode serving decodes through the rolling batch; "
                "build the server with continuous_batching=True"
            )
        layers = tuple(
            self._placed(
                f"{name}/{spec.name}", spec.layer.op, spec.layer.handle,
                self.devices,
            )
            for spec in executor.layers
        )
        entry = ModelEntry(
            name=name,
            op=executor.layers[0].layer.op,
            handle=executor.layers[0].layer.handle,
            executor=executor,
            layers=layers,
        )
        self._models[name] = entry
        return entry

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise ServeError("model name must be nonempty")
        if name in self._models:
            raise ServeError(f"model {name!r} is already registered")

    def _placed(
        self, name: str, op: NMSpMM, handle: SparseHandle, devices: int
    ) -> ModelEntry:
        """A matmul entry on ``devices`` devices — sharded
        tensor-parallel over a group of them when there are several."""
        if devices < 2:
            return ModelEntry(name=name, op=op, handle=handle)
        return ModelEntry(
            name=name, op=op, handle=handle,
            sharded=shard_handle(handle, devices, self.shard),
            group=DeviceGroup(gpu=op.gpu, devices=devices, link=self.link),
        )

    @property
    def model_names(self) -> list[str]:
        return sorted(self._models)

    def model(self, name: str) -> ModelEntry:
        try:
            return self._models[name]
        except KeyError:
            raise ServeError(
                f"unknown model {name!r}; registered: {self.model_names}"
            ) from None

    def _entry(self, name: str, state: _RunState) -> ModelEntry:
        """The model entry a launch executes with: the run-local
        re-sharded overlay entry when a fail-stop re-partitioned the
        model, else the registered one."""
        if name in state.overlay:
            return state.overlay[name]
        return self.model(name)

    def _phys_devices(
        self, entry: ModelEntry, state: _RunState
    ) -> tuple[int, ...]:
        """The physical device ids ``entry`` occupies, in shard-slot
        order.  Identity until a re-shard maps the survivors."""
        if entry.name in state.device_map:
            return state.device_map[entry.name]
        if entry.distributed:
            return tuple(range(self.devices))
        return (0,)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Queue a request for the next :meth:`run_submitted` call."""
        self._validate_request(request)
        self._inbox.append(request)

    def run_submitted(
        self, *, policy: "BatchingPolicy | None" = None
    ) -> ServingReport:
        """Simulate everything submitted so far and clear the inbox."""
        requests, self._inbox = self._inbox, []
        return self.simulate(requests, policy=policy)

    def _validate_request(self, request: InferenceRequest) -> None:
        entry = self.model(request.model)
        if request.k != entry.k:
            raise ServeError(
                f"request {request.request_id} has k={request.k} but model "
                f"{request.model!r} expects k={entry.k}"
            )
        if entry.executor is not None:
            if request.prompt_len is None:
                raise ServeError(
                    f"request {request.request_id} targets model-mode "
                    f"{request.model!r} but carries no "
                    "prompt_len/max_new_tokens"
                )
            if self.kv_admission == "kv-aware":
                ex = entry.executor
                weights = sum(
                    e.executor.weight_bytes
                    for e in self._models.values()
                    if e.executor is not None
                )
                need = ex.kv_bytes(
                    request.prompt_len + request.max_new_tokens
                )
                budget = self._model_budget_bytes()
                if weights + need > budget:
                    raise ServeError(
                        f"request {request.request_id} can never fit: "
                        f"weights {weights} B + lifetime KV {need} B "
                        f"exceed the HBM budget {budget} B"
                    )
            return
        if request.prompt_len is not None:
            raise ServeError(
                f"request {request.request_id} carries prompt_len but "
                f"model {request.model!r} is a plain matmul entry"
            )
        if self.execute_numerics and request.a is None:
            raise ServeError(
                f"request {request.request_id} is metadata-only but the "
                "server executes numerics; generate the trace with "
                "synthesize_activations=True or disable numerics"
            )

    def _model_budget_bytes(self) -> int:
        """The run's aggregate HBM budget: the explicit override, else
        the executor GPU's catalog ``dram_gb`` times the device count."""
        if self.hbm_bytes is not None:
            return int(self.hbm_bytes)
        for entry in self._models.values():
            if entry.executor is not None:
                return int(entry.op.gpu.dram_gb) * (1 << 30) * self.devices
        raise ServeError("no executor-backed model is registered")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _queue_key(self, queue: RequestQueue) -> tuple:
        """Ascending urgency of a prefill flush: the order key of the
        exact request the queue would serve next, so queue selection
        and pop order never disagree (a queue must not win on one
        tier's priority and then serve a different tier's request)."""
        return request_order_key(queue.peek(), self.scheduling)

    def _decode_key(
        self, queue: RequestQueue, batcher: ContinuousBatcher
    ) -> tuple:
        """Urgency of a continuous step: the most urgent request with a
        stake in the next step — waiting, resident, or preempted.  A
        resident high-priority sequence must not lose the GPU to lower
        tiers just because a low-priority decode request is queued."""
        keys = [
            request_order_key(entry.request, self.scheduling)
            for entry in (*batcher.resident, *batcher.preempted)
        ]
        if queue:
            keys.append(self._queue_key(queue))
        return min(keys)

    def _is_decode(self, request: InferenceRequest, policy: BatchingPolicy) -> bool:
        return (
            self.continuous_batching
            and request.rows <= policy.decode_rows_threshold
        )

    # ------------------------------------------------------------------
    # Launch cost (the perf model behind every launch kind)
    # ------------------------------------------------------------------
    def _bm(
        self,
        kind: str,
        name: str,
        help_text: str,
        label: "tuple[str, object] | None" = None,
    ):
        """Cached pre-bound metric handle for one ``(metric, label)``
        pair — per-launch instrumentation calls this instead of
        re-resolving the instrument and re-normalizing labels every
        step.  The cache holds handles of ``_bound_registry`` only:
        :meth:`simulate` starts a fresh one when the tracer (or its
        registry) was swapped, so observations never land in a
        previous run's registry."""
        key = (name, label)
        handle = self._bound_metrics.get(key)
        if handle is None:
            metric = getattr(self.tracer.metrics, kind)(name, help_text)
            handle = (
                metric.labels(**{label[0]: label[1]})
                if label is not None
                else metric.labels()
            )
            self._bound_metrics[key] = handle
        return handle

    def _cached_plan(self, device: int, entry: ModelEntry,
                     handle: SparseHandle, padded_rows: int, t_s: float):
        """One plan-cache lookup on ``device`` for a launch starting at
        ``t_s``, surfaced (when tracing) as a
        ``plan_cache.hit``/``plan_cache.miss`` event plus a counter —
        the outcome read off the cache's own stats delta, so the event
        stream and ``plan_cache_stats`` can never disagree."""
        cache = self.plan_caches[device]
        tr = self.tracer
        if tr is None:
            return cache.lookup(entry.name, entry.op, handle, padded_rows)
        tr.advance(t_s)
        hits_before = cache.stats.hits
        plan_entry = cache.lookup(entry.name, entry.op, handle, padded_rows)
        self._trace_lookup(
            device, entry.name, padded_rows, cache.stats.hits > hits_before
        )
        return plan_entry

    def _trace_lookup(
        self, device: int, model: str, padded_rows: int, hit: bool
    ) -> None:
        """The counter and (sampled) event of one plan-cache lookup."""
        outcome = "hit" if hit else "miss"
        self._bm(
            "counter", "serve_plan_cache_total",
            "plan-cache lookups by outcome", ("outcome", outcome),
        ).inc()
        tr = self.tracer
        if tr.sample():  # skip attr building on dropped traces
            tr.event(
                f"plan_cache.{outcome}",
                track="engine",
                model=model,
                padded_rows=padded_rows,
                device=device,
                keep=True,
            )

    def _cost(
        self,
        entries: "tuple[ModelEntry, ...]",
        padded_rows: int,
        state: _RunState,
        t_s: float,
    ) -> _Cost:
        """Model launching ``entries`` back-to-back at ``padded_rows``
        rows from ``t_s``: one entry for a dynamic batch or continuous
        step, every layer of the stack for a model-mode walk.

        Without a fault injector the cost is a pure function of the
        entries and the row count, so a run memoises each walk in
        ``state.walks`` (the offline/online split: the walk is paid
        once per geometry, each step only replays it).  A memo hit
        replays the walk's plan-cache lookups as hits in walk order —
        the stats, LRU recency and trace events the full walk would
        leave — and is trusted only while no plan cache has evicted or
        cleared since the fill; otherwise the full walk runs and
        refills the memo.

        Single-device entries look up one plan in their device's
        cache (the plan is kept for the numerics path).  Distributed
        entries look up one plan per device shard in that device's own
        cache; the layer's modeled time is the slowest device plus the
        mode's ring collective, kept as the full
        :class:`~repro.distributed.topology.CommEvent` so the trace can
        attribute wire bytes, not just seconds.  Each layer's
        ``(flops, ldg_bytes, stg_bytes)`` comes from the cached plans'
        analytic traces (summed over shards) — the counts roofline
        attribution places against the GPU's peaks.

        With a fault injector active, each device's modeled seconds is
        multiplied by its straggler clock factor at ``t_s`` and the
        collective is priced against the (possibly degraded) link — so
        a slowdown on one device gates the whole tensor-parallel
        launch, exactly as the topology model prescribes."""
        injector = state.injector
        if injector is None:
            generation = sum(cache.generation for cache in self.plan_caches)
            if generation != state.walks_generation:
                state.walks.clear()
                state.walks_generation = generation
            memo_key = (id(entries[0]), len(entries), padded_rows)
            memo = state.walks.get(memo_key)
            if memo is not None:
                return self._replay_walk(*memo, t_s)
        lookups = []  # (device, plan-cache key) in walk order
        total = comm_total = 0.0
        per_device_total: "list[float]" = []
        spans = []
        plan = comm = None
        for entry in entries:
            key = PlanCache.key(entry.name, entry.op, padded_rows)
            if entry.distributed:
                phys = self._phys_devices(entry, state)
                per_device = []
                flops = ldg_bytes = stg_bytes = 0
                for shard in entry.sharded.shards:
                    device = phys[shard.device]
                    plan_entry = self._cached_plan(
                        device, entry, shard.handle, padded_rows, t_s
                    )
                    lookups.append((device, key))
                    seconds = plan_entry.modeled_seconds
                    if injector is not None:
                        seconds *= injector.device_factor(device, t_s)
                    per_device.append(seconds)
                    shard_flops, shard_ldg, shard_stg = plan_entry.launch_cost
                    flops += shard_flops
                    ldg_bytes += shard_ldg
                    stg_bytes += shard_stg
                work = (flops, ldg_bytes, stg_bytes)
                group = entry.group
                if injector is not None:
                    group = injector.degraded_group(group, t_s)
                comm = entry.sharded.collective(group, padded_rows)
                seconds = max(per_device) + comm.seconds
                comm_total += comm.seconds
                per_device_total = _device_sum(per_device_total, per_device)
            else:
                # What _phys_devices answers for a single-device entry,
                # without the call on the per-layer path.
                device = state.device_map.get(entry.name, (0,))[0]
                plan_entry = self._cached_plan(
                    device, entry, entry.handle, padded_rows, t_s
                )
                lookups.append((device, key))
                seconds = plan_entry.modeled_seconds
                if injector is not None:
                    seconds *= injector.device_factor(device, t_s)
                work = plan_entry.launch_cost
                plan = plan_entry.plan
            spans.append((entry.name, total, seconds, work))
            total += seconds
        cost = _Cost(
            total, per_device_total, comm if len(entries) == 1 else None,
            comm_total, spans, plan,
        )
        if injector is None:
            touches: dict = {}
            for device, key in lookups:
                touches.setdefault(device, []).append(key)
            state.walks[memo_key] = (
                _Cost(
                    cost.seconds, tuple(per_device_total), cost.comm,
                    comm_total, tuple(spans), plan,
                ),
                tuple(lookups),
                tuple(touches.items()),
            )
        return cost

    def _replay_walk(
        self, cost: _Cost, lookups: tuple, touches: tuple, t_s: float
    ) -> _Cost:
        """A memoised walk's cost, after replaying its plan-cache
        lookups as the hits the full walk at ``t_s`` would have made
        (untraced: per device, in walk order; traced: one lookup at a
        time, each with its counter and sampled event)."""
        tr = self.tracer
        if tr is None:
            for device, keys in touches:
                self.plan_caches[device].touch(keys)
        else:
            for device, key in lookups:
                tr.advance(t_s)
                self.plan_caches[device].touch((key,))
                self._trace_lookup(device, key[0], key[1], True)
        return _Cost(
            cost.seconds, list(cost.per_device), cost.comm, cost.comm_s,
            list(cost.spans), cost.plan,
        )

    def _execute_batch(self, entry: ModelEntry, batch, plan) -> list:
        """Run one batch's numerics and split per-request outputs."""
        if entry.distributed:
            c = sharded_execute(batch.a, entry.sharded)
            return batch.split(c[:, : entry.handle.n_logical])
        c = entry.op.execute(
            batch.a, entry.handle, plan=plan, backend=self.backend,
            tracer=self.tracer,
        )
        return batch.split(c)

    def _plan_cache_stats_since(self, snapshots: list) -> dict:
        """Aggregate per-device plan-cache deltas into one stats dict
        (devices see identical lookup streams, so the sum keeps the
        single-device schema)."""
        total = None
        for cache, before in zip(self.plan_caches, snapshots, strict=True):
            delta = cache.stats.since(before)
            if total is None:
                total = delta
            else:
                total.hits += delta.hits
                total.misses += delta.misses
                total.evictions += delta.evictions
        return total.as_dict()

    # ------------------------------------------------------------------
    # Chaos & resilience
    # ------------------------------------------------------------------
    def _new_run_state(self, metrics: ServingMetrics) -> _RunState:
        plan = self.faults
        injector = None
        if plan is not None and not plan.empty:
            injector = FaultInjector(plan, tracer=self.tracer)
        # Backoff jitter draws come from their own child stream so the
        # injector's fault schedule never shifts when retries happen.
        seed = plan.seed if plan is not None else 0
        rng = np.random.default_rng([seed, 0xB0])
        return _RunState(
            metrics=metrics,
            injector=injector,
            resilience=self.resilience,
            rng=rng,
        )

    def _launch_fault(
        self, entry: ModelEntry, t_s: float, state: _RunState
    ) -> "int | None":
        """The physical device a launch of ``entry`` at ``t_s`` fails
        on — a dead device it still touches (pre-reshard, or resilience
        off), or a transient injected failure — or ``None``."""
        if state.injector is None:
            return None
        phys = self._phys_devices(entry, state)
        for device in phys:
            if device in state.dead:
                return device
            if state.breaker_down.get(device, 0.0) > t_s:
                return device
        slot = state.injector.launch_fails(entry.name, t_s, len(phys))
        if slot is None:
            return None
        return phys[slot]

    def _note_launch_failed(
        self, fail_device: int, t_s: float, state: _RunState
    ) -> float:
        """Advance the circuit breaker after a failure attributed to
        ``fail_device``.  With a cooldown the opened circuit is
        half-open (the device sits out ``breaker_cooldown_s`` and then
        rejoins); without one the device fail-stops and (when enabled)
        re-shards.  Returns the time the GPU is blocked until by any
        recovery, else 0."""
        res = state.resilience
        if (
            res is None
            or res.breaker_threshold is None
            or fail_device in state.dead
            or state.breaker_down.get(fail_device, 0.0) > t_s
        ):
            return 0.0
        streak = state.breaker_streak.get(fail_device, 0) + 1
        state.breaker_streak[fail_device] = streak
        if streak < res.breaker_threshold:
            return 0.0
        state.breaker_streak[fail_device] = 0
        state.metrics.circuit_opens += 1
        self._trace_event(
            "device.circuit_open", t_s, "faults",
            ("serve_circuit_opens_total", "circuit-breaker openings", {}),
            device=fail_device, streak=streak,
            permanent=res.breaker_cooldown_s is None,
        )
        if res.breaker_cooldown_s is not None:
            state.breaker_down[fail_device] = t_s + res.breaker_cooldown_s
            return 0.0
        state.dead.add(fail_device)
        return self._handle_device_death(fail_device, t_s, state)

    def _revive_devices(self, t_s: float, state: _RunState) -> None:
        """Close every half-open circuit whose cooldown expired."""
        for device in sorted(state.breaker_down):
            until = state.breaker_down[device]
            if until <= t_s:
                del state.breaker_down[device]
                self._trace_event(
                    "device.circuit_close", until, "faults", None,
                    device=device,
                )

    def _down_until(
        self, entry: ModelEntry, t_s: float, state: _RunState
    ) -> float:
        """When every half-open device ``entry`` touches has revived
        (``t_s`` when it is launchable now)."""
        until = t_s
        for device in self._phys_devices(entry, state):
            until = max(until, state.breaker_down.get(device, 0.0))
        return until

    def _process_device_failures(
        self, t_s: float, state: _RunState
    ) -> float:
        """Apply plan-scheduled fail-stops due at or before ``t_s``.
        Returns the time the GPU is blocked until by re-shard recovery,
        else 0."""
        if state.injector is None:
            return 0.0
        blocked = 0.0
        for failure in state.injector.plan.device_failures:
            if failure.at_s <= t_s and failure.device not in state.dead:
                state.dead.add(failure.device)
                state.injector.note_failstop(failure.device, failure.at_s)
                blocked = max(
                    blocked,
                    self._handle_device_death(
                        failure.device, failure.at_s, state
                    ),
                )
        return blocked

    def _handle_device_death(
        self, device: int, t_s: float, state: _RunState
    ) -> float:
        """Gracefully degrade after ``device`` fail-stops: re-shard
        every model it carried onto the surviving devices and keep
        serving.  The recovery pause (redistributing each model's
        compressed weights over the group link) blocks the GPU; the
        returned time is when it frees up (0 when nothing re-shards —
        resilience off, re-sharding disabled, or no survivors, in
        which case launches touching the device keep failing)."""
        res = state.resilience
        survivors = [
            d for d in range(self.devices) if d not in state.dead
        ]
        if (
            res is None
            or not res.reshard
            or not survivors
            or self.devices == 1
        ):
            return 0.0
        blocked = t_s
        for name in sorted(self._models):
            entry = self._entry(name, state)
            if not entry.distributed:
                continue
            if device not in self._phys_devices(entry, state):
                continue
            if entry.executor is not None:
                # Each layer re-partitions its own handle.
                layers = tuple(
                    self._placed(
                        layer.name, layer.op, layer.handle, len(survivors)
                    )
                    for layer in entry.layers
                )
                for layer in layers:
                    state.device_map[layer.name] = tuple(survivors)
                new_entry = ModelEntry(
                    name=name, op=entry.op, handle=entry.handle,
                    executor=entry.executor, layers=layers,
                )
                payload = entry.executor.weight_bytes
            else:
                new_entry = self._placed(
                    name, entry.op, entry.handle, len(survivors)
                )
                payload = (
                    entry.handle.compressed.values.nbytes
                    + entry.handle.compressed.indices.nbytes
                )
            state.overlay[name] = new_entry
            state.device_map[name] = tuple(survivors)
            recovery_s = (
                payload / len(survivors) / self.link.bytes_per_s
                + self.link.latency_s
            )
            state.metrics.add_reshard(
                ReshardRecord(
                    model=name,
                    failed_device=device,
                    survivors=len(survivors),
                    at_s=blocked,
                    recovery_s=recovery_s,
                )
            )
            if self.tracer is not None:
                self.tracer.add_span(
                    "reshard", blocked, blocked + recovery_s,
                    track="engine", parent=None, model=name,
                    failed_device=device, survivors=len(survivors),
                )
            self._trace_event(
                "reshard", blocked, "engine",
                ("serve_reshards_total", "health-driven re-shards",
                 {"model": name}),
                model=name, failed_device=device, survivors=len(survivors),
            )
            blocked += recovery_s
            if entry.executor is not None:
                self._evict_model_residents(
                    name, blocked, state, reason="reshard"
                )
        if state.memory is not None and self.devices > 1:
            # The survivors' aggregate HBM is smaller; evicted KV was
            # released above, and sequences that can no longer fit at
            # all are dropped by the step path's stall relief.
            state.memory.set_budget(
                state.hbm_base_budget * len(survivors) // self.devices,
                blocked,
            )
        # The plan caches key by (model, rows, gpu, version) — not by
        # handle — so plans built for the old shard geometry are stale.
        for cache in self.plan_caches:
            cache.clear()
        state.resharded = True
        return blocked

    def _evict_model_residents(
        self, name: str, t_s: float, state: _RunState, *, reason: str
    ) -> int:
        """Preempt every resident sequence of model-mode ``name`` and
        release its KV bytes (device death: the re-shard invalidates
        resident caches; victims keep their progress and re-prefill on
        the survivors when they rejoin)."""
        cb = None if state.continuous is None else state.continuous.get(name)
        if cb is None or not cb.resident:
            return 0
        victims = list(cb.resident)
        cb.preempt_entries(victims)
        for inflight in victims:
            if state.memory is not None:
                state.memory.release_kv(inflight.request.request_id, t_s)
        if state.memory is not None:
            state.memory.kv_evictions += len(victims)
        self._trace_event(
            "kv.evict", t_s, "engine",
            ("serve_kv_evictions_total", "memory-pressure evictions",
             {"model": name, "reason": reason}),
            model=name, count=len(victims), reason=reason,
        )
        return len(victims)

    def _drop(
        self,
        request: InferenceRequest,
        outcome: str,
        at_s: float,
        state: _RunState,
        **attrs,
    ) -> None:
        """Terminate ``request`` without completion: record the drop
        (reconciliation counts it) and emit the matching event."""
        state.metrics.add_drop(
            DropRecord(
                request=request,
                outcome=outcome,
                at_s=at_s,
                retries=state.attempts.get(request.request_id, 0),
            )
        )
        self._trace_event(
            _DROP_EVENTS[outcome], at_s, "queue",
            ("serve_drops_total", "dropped requests by outcome",
             {"outcome": outcome}),
            request_id=request.request_id, model=request.model,
            priority=request.priority, **attrs,
        )

    def _trace_event(
        self,
        event: str,
        t_s: float,
        track: str,
        counter: "tuple[str, str, dict] | None",
        /,
        **attrs,
    ) -> None:
        """One trace event plus, when ``counter`` is a ``(metric,
        help, labels)`` triple, one bump of that counter — the tracer
        touchpoint of the fault, admission and eviction paths."""
        tr = self.tracer
        if tr is None:
            return
        tr.event(event, t_s=t_s, track=track, **attrs)
        if counter is not None:
            name, help_text, labels = counter
            tr.metrics.counter(name, help_text).inc(**labels)

    def _burn_attempt(
        self, request: InferenceRequest, t_s: float, state: _RunState
    ) -> bool:
        """Charge ``request`` one failed launch attempt.  With the
        retry budget exhausted (or resilience off) it fails terminally
        and this returns True."""
        attempts = state.attempts.get(request.request_id, 0) + 1
        res = state.resilience
        if res is not None and attempts <= res.max_retries:
            state.attempts[request.request_id] = attempts
            return False
        self._drop(request, "failed", t_s, state, attempts=attempts)
        return True

    def _retry_or_fail(
        self, request: InferenceRequest, t_s: float, state: _RunState
    ) -> None:
        """After a failed launch: schedule a backoff retry for
        ``request`` or, with the retry budget exhausted (or resilience
        off), fail it terminally."""
        if self._burn_attempt(request, t_s, state):
            return
        res = state.resilience
        u = float(state.rng.random())
        ready_s = t_s + res.backoff_s(state.attempts[request.request_id], u)
        heapq.heappush(
            state.retry_heap, (ready_s, request.request_id, request)
        )

    def _admit_retries(
        self,
        t_s: float,
        prefill_queues: dict,
        decode_queues: dict,
        run_policy: BatchingPolicy,
        state: _RunState,
    ) -> None:
        """Re-queue every retry whose backoff expired by ``t_s``."""
        while state.retry_heap and state.retry_heap[0][0] <= t_s:
            _, request_id, request = heapq.heappop(state.retry_heap)
            decode = self._is_decode(request, run_policy)
            queues = decode_queues if decode else prefill_queues
            queues[request.model].requeue(request)
            self._trace_event(
                "retry.attempt", t_s, "queue",
                ("serve_retries_total", "launch-failure retries",
                 {"model": request.model}),
                request_id=request_id, model=request.model,
                attempt=state.attempts.get(request_id, 0),
            )

    def _cancel_timed_out(
        self,
        t_s: float,
        prefill_queues: dict,
        decode_queues: dict,
        continuous: dict,
        state: _RunState,
    ) -> None:
        """Cancel every request whose deadline passed by ``t_s``,
        wherever it lives: queued, backing off in the retry heap, or
        resident in (or preempted out of) the rolling decode batch.
        Queue and continuous-batch row accounting unwinds through the
        dedicated removal paths."""
        if state.resilience is None or not state.deadlines:
            return

        def expired(request: InferenceRequest) -> bool:
            deadline = state.deadlines.get(request.request_id)
            return deadline is not None and deadline <= t_s

        for queues, where in (
            (prefill_queues, "prefill"),
            (decode_queues, "decode"),
        ):
            for queue in queues.values():
                for request in queue.remove_where(expired):
                    self._drop(
                        request, "timed-out",
                        state.deadlines[request.request_id],
                        state, where=where,
                    )
        if state.retry_heap and any(
            expired(item[2]) for item in state.retry_heap
        ):
            kept = []
            for item in state.retry_heap:
                if expired(item[2]):
                    self._drop(
                        item[2], "timed-out",
                        state.deadlines[item[2].request_id],
                        state, where="retry",
                    )
                else:
                    kept.append(item)
            state.retry_heap = kept
            heapq.heapify(state.retry_heap)
        for name, cb in continuous.items():
            cancelled = cb.cancel_where(expired)
            state.metrics.cancelled_evictions += len(cancelled)
            for inflight in cancelled:
                if state.memory is not None:
                    state.memory.release_kv(
                        inflight.request.request_id, t_s
                    )
                self._drop(
                    inflight.request, "timed-out",
                    state.deadlines[inflight.request.request_id],
                    state, where="inflight",
                )
            if cancelled:
                self._trace_event(
                    "cb.evict", t_s, "engine", None,
                    model=name, count=len(cancelled), reason="timeout",
                )

    def _next_timeout_deadline(
        self,
        t_s: float,
        prefill_queues: dict,
        decode_queues: dict,
        continuous: dict,
        state: _RunState,
    ) -> "float | None":
        """The earliest pending cancellation deadline strictly after
        ``t_s`` among live (queued / retrying / resident) requests, so
        an idle engine wakes up to cancel on time."""
        if state.resilience is None or not state.deadlines:
            return None
        best: "float | None" = None

        def consider(request: InferenceRequest) -> None:
            nonlocal best
            deadline = state.deadlines.get(request.request_id)
            if deadline is not None and deadline > t_s:
                best = deadline if best is None else min(best, deadline)

        for queues in (prefill_queues, decode_queues):
            for queue in queues.values():
                for request in queue.iter_requests():
                    consider(request)
        for item in state.retry_heap:
            consider(item[2])
        for cb in continuous.values():
            for entry in (*cb.resident, *cb.preempted):
                consider(entry.request)
        return best

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        requests: "list[InferenceRequest] | tuple[InferenceRequest, ...]",
        *,
        policy: "BatchingPolicy | None" = None,
    ) -> ServingReport:
        """Replay a request trace through the batching layer against a
        single simulated GPU and return the full report."""
        if not requests:
            raise ServeError("simulate needs at least one request")
        for request in requests:
            self._validate_request(request)
        pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        stats_before = [cache.stats.snapshot() for cache in self.plan_caches]
        batcher = DynamicBatcher(policy or self.policy)
        run_policy = batcher.policy
        prefill_queues = {
            name: RequestQueue(name, self.scheduling) for name in self._models
        }
        decode_queues: dict[str, RequestQueue] = {}
        continuous: dict[str, ContinuousBatcher] = {}
        if self.continuous_batching:
            decode_queues = {
                name: RequestQueue(name, self.scheduling)
                for name in self._models
            }
            for name, entry in self._models.items():
                recompute_cost = None
                if entry.executor is not None:
                    # Preemption cost = the victim's modeled re-prefill
                    # (prompt + progress walked through every layer).
                    def recompute_cost(
                        inflight, _ex=entry.executor, _policy=run_policy
                    ):
                        return _ex.modeled_prefill_s(
                            inflight.request.prompt_len
                            + inflight.completed_steps,
                            _policy,
                        )

                continuous[name] = ContinuousBatcher(
                    run_policy, self.scheduling,
                    recompute_cost=recompute_cost,
                )
        metrics = ServingMetrics(submitted=len(pending))
        state = self._new_run_state(metrics)
        state.continuous = continuous
        executor_entries = sorted(
            name for name, e in self._models.items() if e.executor is not None
        )
        if executor_entries:
            budget = self._model_budget_bytes()
            state.hbm_base_budget = budget
            state.memory = DeviceMemoryModel(
                budget, admission=self.kv_admission
            )
            for name in executor_entries:
                state.memory.add_weights(
                    name, self._models[name].executor.weight_bytes, 0.0
                )
        if state.resilience is not None:
            for request in pending:
                deadline = state.resilience.deadline_s(request)
                if deadline is not None:
                    state.deadlines[request.request_id] = deadline
        tracer = self.tracer
        if tracer is not None and tracer.metrics is not self._bound_registry:
            self._bound_registry, self._bound_metrics = tracer.metrics, {}
        i, n = 0, len(pending)
        clock_s = 0.0
        gpu_free_s = 0.0

        while True:
            # The GPU can next launch at t; admit everything arrived by
            # then (requests landing during a busy period join the next
            # batch, which is how batches grow under load).
            t = max(clock_s, gpu_free_s)
            # Chaos bookkeeping first: plan-scheduled fail-stops (whose
            # re-shard recovery blocks the GPU), then cancellations,
            # then expired retry backoffs rejoining their queues.
            blocked = self._process_device_failures(t, state)
            if blocked > gpu_free_s:
                gpu_free_s = blocked
                t = max(clock_s, gpu_free_s)
            self._revive_devices(t, state)
            self._cancel_timed_out(
                t, prefill_queues, decode_queues, continuous, state
            )
            self._admit_retries(
                t, prefill_queues, decode_queues, run_policy, state
            )
            while i < n and pending[i].arrival_s <= t:
                request = pending[i]
                i += 1
                decode = self._is_decode(request, run_policy)
                queues = decode_queues if decode else prefill_queues
                target = queues[request.model]
                if state.resilience is not None and state.resilience.shed(
                    request, target.total_rows
                ):
                    self._drop(
                        request, "shed", request.arrival_s, state,
                        queued_rows=target.total_rows,
                    )
                    continue
                target.push(request)
                if tracer is not None:
                    queue_name = "decode" if decode else "prefill"
                    self._bm(
                        "counter", "serve_requests_admitted_total",
                        "admitted requests", ("queue", queue_name),
                    ).inc()
                    if tracer.sample():
                        tracer.event(
                            "request.admit",
                            t_s=request.arrival_s,
                            track="queue",
                            keep=True,
                            request_id=request.request_id,
                            model=request.model,
                            queue=queue_name,
                            priority=request.priority,
                            rows=request.rows,
                        )
            drain = i >= n
            # (sort key, kind, model): the most urgent launchable work
            # wins; model name and kind break exact ties.
            candidates: list[tuple[tuple, str, str]] = []
            for name in self._models:
                # A model touching a half-open (breaker-cooldown)
                # device holds its launches until the circuit closes.
                launchable = (
                    not state.breaker_down
                    or self._down_until(self._entry(name, state), t, state)
                    <= t
                )
                queue = prefill_queues[name]
                if launchable and batcher.should_flush(
                    queue, t, drain=drain
                ):
                    candidates.append(
                        (self._queue_key(queue) + (name, 0), "prefill", name)
                    )
                if self.continuous_batching:
                    dq = decode_queues[name]
                    cb = continuous[name]
                    if (
                        launchable
                        and (dq or cb.has_work)
                        and t >= state.holdoff.get(name, 0.0)
                    ):
                        candidates.append(
                            (self._decode_key(dq, cb) + (name, 1),
                             "decode", name)
                        )
            if candidates:
                candidates.sort(key=lambda c: c[0])
                _, kind, name = candidates[0]
                if kind == "prefill":
                    form, queue, cb = self._form_step, prefill_queues[name], None
                else:
                    queue, cb = decode_queues[name], continuous[name]
                    form = (
                        self._form_model_step
                        if self._entry(name, state).executor is not None
                        else self._form_step
                    )
                launch = form(name, queue, cb, batcher, t, state)
                gpu_free_s = t if launch is None else self._launch(launch, state)
                clock_s = t
                continue
            # Nothing to launch: advance to the next event — arrival,
            # prefill deadline, retry backoff expiry, decode holdoff
            # expiry, or a pending cancellation deadline.  All candidate
            # times are strictly after t, so the loop always progresses.
            events = []
            if i < n:
                events.append(pending[i].arrival_s)
            for queue in prefill_queues.values():
                deadline = batcher.deadline_s(queue)
                # A due-but-held queue (its model waiting out a
                # half-open breaker) wakes at the circuit-close event
                # instead; a deadline <= t here would stall the clock.
                if deadline is not None and deadline > t:
                    events.append(deadline)
            if state.retry_heap:
                events.append(state.retry_heap[0][0])
            for until in state.breaker_down.values():
                if until > t:
                    events.append(until)
            for name, until in state.holdoff.items():
                if until > t and (
                    decode_queues[name] or continuous[name].has_work
                ):
                    events.append(until)
            timeout_at = self._next_timeout_deadline(
                t, prefill_queues, decode_queues, continuous, state
            )
            if timeout_at is not None:
                events.append(timeout_at)
            if not events:
                break
            clock_s = max(t, min(events))

        if state.injector is not None:
            metrics.launch_faults = state.injector.launch_faults_injected
        if state.resharded:
            # Drop the plans built for the survivors' shard geometry:
            # the next run starts from the registered entries again.
            for cache in self.plan_caches:
                cache.clear()
        metrics.request_records.sort(key=lambda r: r.request.request_id)
        if state.memory is not None:
            # Drain invariant: every KV byte released, ledgers clean.
            state.memory.reconcile()
            metrics.memory = state.memory.summary()
            if self.tracer is not None:
                self.tracer.metrics.gauge(
                    "serve_kv_bytes", "resident KV-cache bytes"
                ).set(0.0)
        metrics.reconcile()
        chaos = self.faults is not None and not self.faults.empty
        return ServingReport(
            metrics=metrics,
            policy=run_policy,
            plan_cache_stats=self._plan_cache_stats_since(stats_before),
            model_names=self.model_names,
            numerics=self.execute_numerics,
            backend=self.backend,
            scheduling=self.scheduling.value,
            continuous=self.continuous_batching,
            devices=self.devices,
            shard=self.shard if self.devices > 1 else None,
            link=self.link.name if self.devices > 1 else None,
            faults=self.faults.describe() if chaos else None,
            resilience=(
                None if self.resilience is None else self.resilience.describe()
            ),
            memory_model=state.memory,
        )

    # ------------------------------------------------------------------
    # Launch pipeline: form (per kind) -> cost -> fault -> record -> emit
    # ------------------------------------------------------------------
    def _form_step(
        self,
        name: str,
        queue: RequestQueue,
        cb: "ContinuousBatcher | None",
        batcher: DynamicBatcher,
        start_s: float,
        state: _RunState,
    ) -> _Launch:
        """Form one launch of the plain matmul entry ``name``.  Without
        ``cb``, cut a dynamic batch from ``queue``: its geometry is
        fixed at the cut, a multi-step request charges one modeled
        launch per step, and the whole batch holds the GPU until its
        longest member finishes (finished requests' rows ride along as
        waste — the cost continuous batching removes).  With ``cb``,
        refill the rolling batch and form its next continuous step."""
        entry = self._entry(name, state)
        # Stack directly at the weights' padded k so execute() consumes
        # the block without another copy.
        stack, pad_to_k = self.execute_numerics, entry.handle.k
        if cb is None:
            batch = batcher.form_batch(queue, stack=stack, pad_to_k=pad_to_k)
            kind, joined, preempted = "prefill", 0, 0
            steps = max(request.steps for request in batch.requests)
        else:
            joined, preempted = cb.refill(queue, start_s)
            batch = cb.form_step(
                batcher.allocate_batch_id(), stack=stack, pad_to_k=pad_to_k
            )
            kind, steps = "decode", 1
        return _Launch(
            kind, name, entry, batch, start_s,
            self._cost((entry,), batch.padded_rows, state, start_s),
            steps, cb, joined, preempted,
        )

    def _form_model_step(
        self,
        name: str,
        queue: RequestQueue,
        cb: ContinuousBatcher,
        batcher: DynamicBatcher,
        start_s: float,
        state: _RunState,
    ) -> "_Launch | None":
        """Form one model-mode engine step for ``name``, or return
        ``None`` when nothing can be resident (the model then holds
        off briefly so the event loop keeps advancing).

        Order of operations, all on the simulated clock:

        1. refill the rolling batch behind the KV admission gate
           (``kv-aware`` only) and release the KV of anything the
           refill preempted;
        2. reserve KV for residents that need (re)prefill;
        3. memory-pressure eviction: while the coming growth (one
           token per resident) would overflow the budget, preempt the
           victim with the lowest priority and cheapest modeled
           re-prefill — resident bytes never exceed the budget;
        4. cost: one gather-GEMM launch per layer for each (re)prefill
           at the sequence's token count, plus one per-layer decode
           walk of the whole batch, plus — under the ``none`` baseline
           — host-link thrash for the overflow.

        The pipeline then advances the batch: finished sequences
        release their KV, survivors grow by one token.
        """
        entry = self._entry(name, state)
        ex = entry.executor
        mem = state.memory
        bpt = ex.kv_bytes_per_token
        run_policy = cb.policy

        gate = None
        if mem.enforce:
            pending = 0

            def gate(request: InferenceRequest, completed: int) -> bool:
                nonlocal pending
                # Admit on the bytes reserved now plus one step of
                # growth headroom; lifetime feasibility was proven at
                # submit against the full budget.
                need = (request.prompt_len + completed + 1) * bpt
                if not mem.fits(pending + need):
                    return False
                pending += need
                return True

        joined, preempted = cb.refill(queue, start_s, gate=gate)
        # Refill preemption displaces victims out of the batch; their
        # KV frees immediately (they re-prefill on rejoin).
        for waiting in cb.preempted:
            mem.release_kv(waiting.request.request_id, start_s)

        if not cb.resident and mem.enforce:
            # Every waiter is memory-blocked with nothing resident to
            # drain.  Anything that cannot fit even alone (possible
            # only after a fail-stop shrank the budget) is dropped;
            # the rest waits out other models' KV via a short holdoff.
            self._drop_hopeless_model_work(
                name, queue, cb, mem, bpt, start_s, state
            )
            joined2, preempted2 = cb.refill(queue, start_s, gate=gate)
            joined += joined2
            preempted += preempted2
            for waiting in cb.preempted:
                mem.release_kv(waiting.request.request_id, start_s)

        # (2) KV reservation for fresh joins and post-eviction rejoins.
        for inflight in cb.resident:
            if inflight.needs_prefill:
                request = inflight.request
                if request.request_id not in mem.kv:
                    mem.reserve_kv(
                        request.request_id,
                        (request.prompt_len + inflight.completed_steps)
                        * bpt,
                        start_s,
                    )

        # (3) Memory-pressure eviction ahead of this step's growth.
        kv_evicted = 0
        if mem.enforce and cb.resident:
            growth = len(cb.resident) * bpt
            while mem.resident_bytes + growth > mem.budget_bytes:
                if len(cb.resident) > 1:
                    victim = min(
                        enumerate(cb.resident),
                        key=lambda item: (
                            item[1].request.priority,
                            cb.recompute_cost(item[1]),
                            -item[0],
                        ),
                    )[1]
                    cb.preempt_entries([victim])
                    mem.release_kv(victim.request.request_id, start_s)
                    mem.kv_evictions += 1
                    kv_evicted += 1
                    self._trace_event(
                        "kv.evict", start_s, "engine",
                        ("serve_kv_evictions_total",
                         "memory-pressure evictions",
                         {"model": name, "reason": "memory-pressure"}),
                        model=name,
                        request_id=victim.request.request_id,
                        reason="memory-pressure",
                    )
                else:
                    # A lone resident that can no longer grow — only
                    # possible after a budget shrink (admission proved
                    # lifetime fit at the base budget).
                    lone = cb.resident[0]
                    cb.cancel_where(
                        lambda r: r.request_id == lone.request.request_id
                    )
                    state.metrics.cancelled_evictions += 1
                    mem.release_kv(lone.request.request_id, start_s)
                    self._drop(
                        lone.request, "failed", start_s, state,
                        reason="kv-overflow",
                    )
                growth -= bpt
        if not cb.resident:
            if queue or cb.has_work:
                state.holdoff[name] = start_s + max(
                    self.host_overhead_s, 1e-6
                )
            return None

        # (4) Cost: per-sequence (re)prefill walks, then one decode
        # walk of the whole rolling batch.
        cost = _Cost()
        prefills = []
        for inflight in cb.resident:
            if not inflight.needs_prefill:
                continue
            tokens = inflight.request.prompt_len + inflight.completed_steps
            rows = run_policy.bucket_rows(tokens)
            walk = self._cost(entry.layers, rows, state, start_s)
            prefills.append((inflight, tokens, rows, walk))
            cost.merge(walk)
            inflight.needs_prefill = False
        prefill_s = cost.seconds

        batch = cb.form_step(
            batcher.allocate_batch_id(), stack=False,
            pad_to_k=entry.handle.k,
        )
        decode = self._cost(entry.layers, batch.padded_rows, state, start_s)
        cost.merge(decode)

        thrash_s = 0.0
        if not mem.enforce:
            projected = mem.resident_bytes + len(cb.resident) * bpt
            overflow = projected - mem.budget_bytes
            if overflow > 0:
                # No memory model: the overflow spills to host memory
                # and reloads over the host link every step it stays
                # oversubscribed.
                thrash_s = overflow / self.host_link_bytes_per_s
                mem.overflow_steps += 1
        cost.seconds += thrash_s
        return _Launch(
            "model", name, entry, batch, start_s, cost, 1, cb, joined, preempted,
            prefills, decode, prefill_s, thrash_s, kv_evicted,
        )

    def _drop_hopeless_model_work(
        self,
        name: str,
        queue: RequestQueue,
        cb: ContinuousBatcher,
        mem: DeviceMemoryModel,
        bpt: int,
        t_s: float,
        state: _RunState,
    ) -> None:
        """After a budget shrink, drop every sequence of ``name`` that
        can never fit even with all KV drained — queued as ``shed``,
        mid-flight as ``failed`` — so the event loop cannot stall on
        permanently inadmissible work."""

        def hopeless(request: InferenceRequest) -> bool:
            lifetime = (request.prompt_len + request.max_new_tokens) * bpt
            return mem.weight_bytes + lifetime > mem.budget_bytes

        for request in queue.remove_where(hopeless):
            self._drop(request, "shed", t_s, state, reason="kv-overflow")
        doomed = [e for e in cb.preempted if hopeless(e.request)]
        if doomed:
            ids = {e.request.request_id for e in doomed}
            cb.cancel_where(lambda r: r.request_id in ids)
            state.metrics.cancelled_evictions += len(doomed)
            for inflight in doomed:
                self._drop(
                    inflight.request, "failed", t_s, state,
                    reason="kv-overflow",
                )

    def _launch(self, launch: _Launch, state: _RunState) -> float:
        """Run a formed launch through the shared tail and return when
        the GPU frees up: the fault check, then either the failure
        handler or the numerics and batch advance, one record, one
        emission, and — after a fault — settling retries, the circuit
        breaker and model-mode KV.  A faulted launch still holds the
        GPU for one modeled step (the fault kills it at its first) and
        advances nothing."""
        entry, cb, start_s = launch.entry, launch.cb, launch.start_s
        fail_device = self._launch_fault(entry, start_s, state)
        if fail_device is not None:
            launch.steps = 1
        if cb is None:
            step_s = launch.cost.seconds + self.host_overhead_s
            finished_s = start_s + launch.steps * step_s
        else:
            finished_s = start_s + launch.cost.seconds + self.host_overhead_s

        done: list = []  # (batch index, request, started_s, finished_s)
        outputs: "list[np.ndarray] | None" = None
        if fail_device is not None:
            if cb is not None:
                self._fail_residents(launch, finished_s, state)
        else:
            if state.injector is not None:
                for device in self._phys_devices(entry, state):
                    state.breaker_streak[device] = 0
            if self.execute_numerics:
                outputs = self._execute_batch(
                    entry, launch.batch, launch.cost.plan
                )
            if cb is None:
                done = [
                    (idx, request, start_s, start_s + request.steps * step_s)
                    for idx, request in enumerate(launch.batch.requests)
                ]
            else:
                state.cb_streak[launch.name] = 0
                for idx, inflight in cb.advance():
                    done.append(
                        (idx, inflight.request, inflight.joined_s, finished_s)
                    )
                if launch.kind == "model":
                    # Finished sequences leave (KV freed at step end),
                    # survivors' KV grows by the token just decoded.
                    mem = state.memory
                    bpt = entry.executor.kv_bytes_per_token
                    for _, request, _, _ in done:
                        mem.release_kv(request.request_id, finished_s)
                    for inflight in cb.resident:
                        mem.grow_kv(
                            inflight.request.request_id, bpt, finished_s
                        )

        record, requests = self._record(
            launch, finished_s, done, outputs, fail_device is not None, state
        )
        tracing = self.tracer is not None
        if tracing:
            self._emit(launch, record, requests, state)
        if fail_device is not None:
            finished_s = self._settle_failure(
                launch, fail_device, finished_s, state
            )
        if tracing and launch.kind == "model":
            self._emit_kv_gauge(launch.name, state.memory)
        return finished_s

    def _fail_residents(
        self, launch: _Launch, finished_s: float, state: _RunState
    ) -> None:
        """Failure handler of the continuous kinds: every resident
        sequence burns one attempt; the retry-exhausted ones are
        evicted (their rows free immediately) and failed, and the
        model backs off before its next step."""
        cb = launch.cb
        dropped = {
            inflight.request.request_id
            for inflight in cb.resident
            if self._burn_attempt(inflight.request, finished_s, state)
        }
        if dropped:
            cb.cancel_where(lambda r: r.request_id in dropped)
        launch.dropped = tuple(sorted(dropped))
        res = state.resilience
        if res is not None:
            streak = state.cb_streak.get(launch.name, 0) + 1
            state.cb_streak[launch.name] = streak
            u = float(state.rng.random())
            state.holdoff[launch.name] = finished_s + res.backoff_s(
                min(streak, 6), u
            )
            if cb.has_work:
                launch.retry = (len(cb.resident), streak)

    def _settle_failure(
        self,
        launch: _Launch,
        fail_device: int,
        finished_s: float,
        state: _RunState,
    ) -> float:
        """After a faulted launch is recorded: retry or fail the
        dynamic batch's members, advance the circuit breaker, and — in
        model mode — free the KV of the dropped residents (a death
        re-shard frees its evictees itself); the launch advanced
        nothing, so its (re)prefills are still owed.  Returns when the
        GPU frees up."""
        if launch.cb is None:
            for request in launch.batch.requests:
                self._retry_or_fail(request, finished_s, state)
        blocked = self._note_launch_failed(fail_device, finished_s, state)
        if launch.kind == "model":
            for request_id in launch.dropped:
                state.memory.release_kv(request_id, finished_s)
            for inflight, _, _, _ in launch.prefills:
                inflight.needs_prefill = True
        return max(finished_s, blocked)

    def _record(
        self,
        launch: _Launch,
        finished_s: float,
        done: list,
        outputs: "list[np.ndarray] | None",
        failed: bool,
        state: _RunState,
    ) -> "tuple[BatchRecord | StepRecord, list[RequestRecord]]":
        """Record one launch: a :class:`RequestRecord` per completed
        request, then the launch's :class:`BatchRecord` (dynamic) or
        :class:`StepRecord` (continuous kinds), its modeled times
        scaled by the steps it held the GPU for."""
        metrics = state.metrics
        batch, cost, steps = launch.batch, launch.cost, launch.steps
        requests = []
        for idx, request, started_s, done_s in done:
            record = RequestRecord(
                request=request,
                batch_id=batch.batch_id,
                started_s=started_s,
                finished_s=done_s,
                output=None if outputs is None else outputs[idx],
                retries=state.attempts.get(request.request_id, 0),
            )
            metrics.add_request(record)
            requests.append(record)
        modeled_gpu_s = steps * cost.seconds
        per_device_gpu_s = tuple(
            [steps * s for s in cost.per_device] if steps > 1 else cost.per_device
        )
        comm_s = steps * cost.comm_s
        if launch.cb is None:
            launch_record = BatchRecord(
                batch_id=batch.batch_id,
                model=launch.name,
                n_requests=batch.n_requests,
                rows=batch.rows,
                padded_rows=batch.padded_rows,
                started_s=launch.start_s,
                finished_s=finished_s,
                modeled_gpu_s=modeled_gpu_s,
                per_device_gpu_s=per_device_gpu_s,
                comm_s=comm_s,
                failed=failed,
            )
            metrics.add_batch(launch_record)
            return launch_record, requests
        # A failed model step records like a failed decode step.
        model_ok = launch.kind == "model" and not failed
        launch_record = StepRecord(
            step_id=batch.batch_id,
            model=launch.name,
            n_resident=batch.n_requests,
            rows=batch.rows,
            padded_rows=batch.padded_rows,
            joined=launch.joined,
            evicted=len(launch.dropped) if failed else len(done),
            preempted=launch.preempted,
            started_s=launch.start_s,
            finished_s=finished_s,
            modeled_gpu_s=modeled_gpu_s,
            per_device_gpu_s=per_device_gpu_s,
            comm_s=comm_s,
            failed=failed,
            prefill_s=launch.prefill_s if model_ok else 0.0,
            thrash_s=launch.thrash_s if model_ok else 0.0,
            kv_evicted=launch.kv_evicted if model_ok else 0,
            kv_bytes=state.memory.kv_bytes if model_ok else 0,
        )
        metrics.add_step(launch_record)
        return launch_record, requests

    # ------------------------------------------------------------------
    # Launch emission (the launch path's only tracer touchpoint)
    # ------------------------------------------------------------------
    def _emit(
        self,
        launch: _Launch,
        record: "BatchRecord | StepRecord",
        requests: "list[RequestRecord]",
        state: _RunState,
    ) -> None:
        """Turn one recorded launch into spans and metrics on the
        simulated clock: the ``serve.batch``/``serve.step`` root (one
        head-sampling draw per launch), the ``cb.*`` events, a
        ``queue.wait`` per completed request, the launch counter and
        histogram, and the GPU side — one ``gpu.launch`` covering the
        full modeled busy time (so summed launch durations equal
        ``ServingMetrics.gpu_busy_s`` exactly) with ``device.compute``
        and ``comm.*`` children, or, for a model-mode step, one
        ``gpu.launch`` per layer under ``model.prefill`` /
        ``model.decode_step`` plus ``kv.thrash``."""
        tr = self.tracer
        name, cb, failed = launch.name, launch.cb, record.failed
        start_s, finished_s = record.started_s, record.finished_s
        per_layer = launch.kind == "model" and not failed
        root_name = "serve.batch" if cb is None else "serve.step"
        keep = tr.sample()
        if not keep:
            # Dropped trace: record nothing, still advance the clock.
            root = tr.add_span(
                root_name, start_s, finished_s, parent=None, keep=False
            )
        else:
            if cb is None:
                attrs = {"kind": "prefill", "steps": launch.steps}
            else:
                # A failed model step records like a failed decode step.
                attrs = {
                    "kind": "model" if per_layer else "decode",
                    "joined": record.joined,
                    "evicted": record.evicted,
                    "preempted": record.preempted,
                }
                if per_layer:
                    attrs["kv_evicted"] = record.kv_evicted
            if failed:
                attrs["failed"] = True
            attrs.update(launch.batch.trace_attrs())
            root = tr.add_span(
                root_name, start_s, finished_s,
                track="engine", parent=None, keep=True, **attrs,
            )
            if per_layer:
                self._emit_walks(tr, root, launch, state.memory)
            if cb is not None and not failed:
                if record.joined:
                    tr.event("cb.join", t_s=start_s, track="engine",
                             keep=True, model=name, count=record.joined)
                if record.preempted:
                    tr.event("cb.preempt", t_s=start_s, track="engine",
                             keep=True, model=name, count=record.preempted)
                if record.evicted:
                    tr.event("cb.evict", t_s=finished_s, track="engine",
                             keep=True, model=name, count=record.evicted)
        if cb is not None and failed:
            # Fault bookkeeping draws its own sampling decisions.
            if record.evicted:
                tr.event(
                    "cb.evict", t_s=finished_s, track="engine",
                    model=name, count=record.evicted, reason="failed",
                )
            if launch.retry is not None:
                self._trace_event(
                    "retry.attempt", finished_s, "engine",
                    ("serve_retries_total", "launch-failure retries",
                     {"model": name}),
                    model=name, count=launch.retry[0],
                    attempt=launch.retry[1],
                )
        # Queue wait plus completion bound each request's end-to-end
        # interval, which the critical-path analyzer decomposes.
        queue = "prefill" if cb is None else "decode"
        for done in requests:
            request, started_s = done.request, done.started_s
            self._bm(
                "histogram", "serve_queue_wait_seconds",
                "queue wait per request", ("queue", queue),
            ).observe(started_s - request.arrival_s)
            if not keep:
                continue
            tr.add_span(
                "queue.wait", request.arrival_s, started_s,
                track="queue", parent=None, keep=True,
                request_id=request.request_id, model=request.model,
                priority=request.priority, queue=queue,
            )
            tr.event(
                "request.complete", t_s=done.finished_s, track="queue",
                keep=True, request_id=request.request_id,
                model=request.model, priority=request.priority,
                queue=queue, started_s=started_s,
                arrival_s=request.arrival_s,
            )
        self._bm(
            "counter", "serve_launches_total", "batch/step launches",
            ("model", name),
        ).inc()
        self._bm(
            "histogram", "serve_launch_seconds",
            "modeled GPU seconds per launch", ("model", name),
        ).observe(record.modeled_gpu_s)
        if per_layer:
            return
        steps, cost = launch.steps, launch.cost
        launch_end = start_s + steps * cost.seconds
        if not root.sampled:
            # The span tree of an unsampled trace is never built.
            tr.advance(launch_end)
            return
        flops, ldg_bytes, stg_bytes = cost.work
        device_ids = self._phys_devices(launch.entry, state)
        extra = {"failed": True} if failed else {}
        gpu_launch = tr.add_span(
            "gpu.launch", start_s, launch_end,
            track="gpu", parent=root, model=name, steps=steps, **extra,
            rows=launch.batch.padded_rows, gpu=launch.entry.op.gpu.name,
            flops=steps * flops, ldg_bytes=steps * ldg_bytes,
            stg_bytes=steps * stg_bytes,
        )
        for slot, seconds in enumerate(cost.per_device):
            device = device_ids[slot]
            tr.add_span(
                "device.compute", start_s, start_s + steps * seconds,
                track=f"device{device}", parent=gpu_launch,
                device=device, model=name,
            )
        comm = cost.comm
        if comm is not None and comm.seconds > 0:
            # Compute gates the ring, so the collective ends the launch.
            tr.add_span(
                f"comm.{comm.collective}",
                launch_end - steps * comm.seconds, launch_end,
                track="comm", parent=gpu_launch, model=name,
                **comm.trace_attrs(),
            )

    def _emit_walks(
        self, tr: Tracer, root, launch: _Launch, memory: DeviceMemoryModel
    ) -> None:
        """A model step's GPU side: each (re)prefill walk under a
        ``model.prefill`` span, the decode walk under
        ``model.decode_step``, one ``gpu.launch`` per layer, then any
        ``kv.thrash`` — back-to-back from the step's start."""
        name, batch = launch.name, launch.batch
        gpu_name = launch.entry.op.gpu.name
        walks = [
            ("model.prefill", walk, rows,
             {"request_id": inflight.request.request_id, "tokens": tokens})
            for inflight, tokens, rows, walk in launch.prefills
        ]
        walks.append(
            ("model.decode_step", launch.decode, batch.padded_rows,
             {"rows": batch.rows})
        )
        offset = launch.start_s
        for span_name, walk, rows, attrs in walks:
            span = tr.add_span(
                span_name, offset, offset + walk.seconds,
                track="gpu", parent=root, model=name, **attrs,
            )
            for layer_name, layer_off, layer_s, work in walk.spans:
                tr.add_span(
                    "gpu.launch",
                    offset + layer_off,
                    offset + layer_off + layer_s,
                    track="gpu", parent=span, model=name,
                    layer=layer_name, rows=rows, gpu=gpu_name,
                    flops=work[0], ldg_bytes=work[1], stg_bytes=work[2],
                )
            offset += walk.seconds
        if launch.thrash_s > 0:
            tr.add_span(
                "kv.thrash", offset, offset + launch.thrash_s,
                track="gpu", parent=root, model=name,
                overflow_bytes=memory.overflow_bytes,
            )

    def _emit_kv_gauge(self, name: str, memory: DeviceMemoryModel) -> None:
        """The model's resident KV bytes once a model-mode step — and,
        after a fault, its KV settling — is done."""
        self._bm(
            "gauge", "serve_kv_bytes", "resident KV-cache bytes",
            ("model", name),
        ).set(float(memory.kv_bytes))
