"""``decode`` and ``prefill``: the real ``ModelExecutor.logits`` forward
against a same-run dense walk.

Both run one closed-loop caller over ``ModelExecutor("llama-7b",
scale=4, blocks=2, pattern=2:8/L8, backend="auto")``; ``decode`` feeds
1-row activations, ``prefill`` 128-row ones.  Each sample times one
sparse forward and one dense walk back to back, alternating which goes
first, so host drift cancels in ``speedup_vs_baseline``.  Every timed
forward is checked against its dense walk.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable

import numpy as np

from repro.backends import available_backends
from repro.nn.mlp import relu
from repro.serve.model_exec.executor import ModelExecutor
from repro.sparsity.config import NMPattern

from .layers import BACKEND_CHOICES, LAYER_KINDS, targets
from .report import MEASURED, Result, geomean, median, peak_rss_mb, percentile
from .spans import SpanRecorder, instrument
from .traced import put_span_metrics, put_sparsity_metrics

__all__ = ["FORWARD_WORKLOADS", "CONFIG", "run_forward", "build_executor", "dense_logits"]

PATTERN = NMPattern(2, 8, vector_length=8)

#: Executor configuration shared by both forward workloads.
CONFIG = {"model": "llama-7b", "scale": 4, "blocks": 2, "pattern": "2:8/L8", "backend": "auto"}

#: workload -> (activation rows, tail percentile, minimum samples).
#: The tail is the highest percentile with at least ten samples beyond
#: it at the minimum sample count; the loop runs past ``--seconds``
#: until that count is reached.
FORWARD_WORKLOADS = {
    "decode": (1, 90, 100),
    "prefill": (128, 75, 40),
}

#: Executor constructions per run (``setup_s`` is their median).
SETUPS = 3
#: Distinct activation blocks cycled through the timed loop.
INPUTS = 8
#: float32 tolerance of the sparse-vs-dense comparison.
RTOL = ATOL = 1e-5
#: Repeats per entrant in the traced run's shadow race.
RACE_REPEATS = 3
#: Shape of the dense GEMM that measures the host's ceiling.
CEILING_SHAPE = (256, 1024, 1024)
#: Hard stop for the sample loop, whatever the minimum count.
MAX_LOOP_S = 120.0


def build_executor(seed: int, scale: int = 4) -> ModelExecutor:
    return ModelExecutor(
        CONFIG["model"],
        scale=scale,
        blocks=CONFIG["blocks"],
        pattern=PATTERN,
        backend=CONFIG["backend"],
        seed=seed,
    )


def dense_weights(executor: ModelExecutor) -> "dict[str, np.ndarray]":
    """Each layer's pruned weights as a plain dense ``(k, n)`` array."""
    out = {}
    for spec in executor.layers:
        handle = spec.layer.handle
        out[spec.name] = np.ascontiguousarray(
            handle.dense()[: handle.k_logical, : handle.n_logical]
        )
    return out


def dense_logits(
    executor: ModelExecutor, weights: "dict[str, np.ndarray]", x: np.ndarray
) -> np.ndarray:
    """The executor's walk (residual adds, ReLU, the Q slice standing in
    for attention) with every layer as plain ``x @ W``."""
    h = executor.hidden
    for b in range(executor.blocks):
        qkv = x @ weights[f"block{b}/attn-qkv-fused"]
        x = x + qkv[:, :h] @ weights[f"block{b}/attn-qkvo"]
        up = x @ weights[f"block{b}/mlp-gate-up"]
        x = x + relu(up) @ weights[f"block{b}/mlp-down"]
    return x @ weights["lm-head"]


def _inputs(seed: int, rows: int, hidden: int) -> "list[np.ndarray]":
    rng = np.random.default_rng([seed, 0xF0A])
    return [rng.standard_normal((rows, hidden)).astype(np.float32) for _ in range(INPUTS)]


def _timed(fn: Callable[..., np.ndarray], *args: object) -> "tuple[float, np.ndarray]":
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


def run_forward(workload: str, seed: int, seconds: float, trace: bool, scale: int = 4) -> Result:
    rows, tail_q, min_samples = FORWARD_WORKLOADS[workload]
    result = Result()
    if trace:
        _traced(result, workload, seed, seconds, scale)
    else:
        _untraced(result, seed, seconds, scale, rows, tail_q, min_samples)
    return result


def _untraced(
    result: Result, seed: int, seconds: float, scale: int, rows: int, tail_q: int, min_samples: int
) -> None:
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        executor = build_executor(seed, scale)
        setup_s.append(time.perf_counter() - start)
    weights = dense_weights(executor)
    xs = _inputs(seed, rows, executor.hidden)
    for x in xs[:2]:  # warm-up: selector memo, BLAS buffers
        executor.logits(x)
        dense_logits(executor, weights, x)

    sparse_s: "list[float]" = []
    dense_s: "list[float]" = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_samples) or elapsed >= MAX_LOOP_S:
            break
        x = xs[i % INPUTS]
        if i % 2 == 0:
            ts, ys = _timed(executor.logits, x)
            td, yd = _timed(dense_logits, executor, weights, x)
        else:
            td, yd = _timed(dense_logits, executor, weights, x)
            ts, ys = _timed(executor.logits, x)
        sparse_s.append(ts)
        dense_s.append(td)
        result.check(_close(ys, yd), f"forward {i} differs from the dense walk")
        i += 1

    n = len(sparse_s)
    count = f"n={n}"
    result.put("setup_s", median(setup_s), "s", MEASURED, f"median of {SETUPS} constructions")
    result.put("latency_ms_p50", median(sparse_s) * 1e3, "ms", MEASURED, f"sparse forward, {count}")
    result.put(
        "latency_ms_tail",
        percentile(sparse_s, tail_q) * 1e3,
        "ms",
        MEASURED,
        f"p{tail_q} sparse forward, {count}, {n - int(n * tail_q / 100)} beyond",
    )
    result.put("requests_per_s", n / sum(sparse_s), "1/s", MEASURED, "sparse forwards per second")
    result.put(
        "throughput_per_s", n * rows / sum(sparse_s), "1/s", MEASURED, f"rows per second, {rows} per forward"
    )
    result.put(
        "speedup_vs_baseline",
        median(dense_s) / median(sparse_s),
        "x",
        MEASURED,
        f"speedup vs dense: dense walk p50 {median(dense_s) * 1e3:.3f} ms over sparse p50, interleaved, {count}",
    )
    result.put("ok_share", 1.0 - result.failed / max(1, result.attempted), "share", MEASURED)
    result.put("peak_rss_mb", peak_rss_mb(), "MB", MEASURED)


def _traced(result: Result, workload: str, seed: int, seconds: float, scale: int) -> None:
    rows = FORWARD_WORKLOADS[workload][0]
    setup_rec = SpanRecorder()
    with instrument(setup_rec, targets()):
        executor = build_executor(seed, scale)
    put_sparsity_metrics(result, setup_rec, setups=1)
    weights = dense_weights(executor)
    xs = _inputs(seed, rows, executor.hidden)
    executor.logits(xs[0])  # warm-up

    # Untraced then traced over the same forwards: the ratio of their
    # wall times is the instrumentation's overhead.
    budget = seconds / 3
    untraced_s = 0.0
    n = 0
    while n < 5 or untraced_s < budget:
        untraced_s += _timed(executor.logits, xs[n % INPUTS])[0]
        n += 1
    kinds = {id(spec.layer): spec.kind for spec in executor.layers}
    rec = SpanRecorder()
    traced_s = 0.0
    with instrument(rec, targets(kinds)):
        for i in range(n):
            x = xs[i % INPUTS]
            t, y = _timed(rec.call, "forward", executor.logits, x)
            traced_s += t
            result.check(_close(y, dense_logits(executor, weights, x)), f"traced forward {i}")
    put_span_metrics(result, rec, ops=n)
    for kind in LAYER_KINDS:
        ms = rec.get(f"layer.{kind}").total_ns / n / 1e6
        result.put(f"layer.{kind}.ms", ms, "ms", MEASURED, "per forward, all blocks")
    result.put("trace.overhead_ratio", traced_s / untraced_s, "x", MEASURED, f"{n} forwards each way")
    _shadow_race(result, executor, weights, seed, rows)
    result.put("dense.gemm_gflops", _dense_ceiling(seed), "GFLOP/s", MEASURED, "x".join(map(str, CEILING_SHAPE)))


def _shadow_race(
    result: Result, executor: ModelExecutor, weights: "dict[str, np.ndarray]", seed: int, rows: int
) -> None:
    """Per layer kind: time the auto-selected layer call, every
    registered backend that supports the request, and plain
    ``a @ W``, interleaved per repeat.  Regret is the selector's pick
    over the fastest entrant; the selector itself is not changed."""
    rng = np.random.default_rng([seed, 0x8ACE])
    choices = dict.fromkeys(BACKEND_CHOICES, 0)
    regrets = []
    for kind in LAYER_KINDS:
        spec = next(s for s in executor.layers if s.kind == kind)
        layer, op, handle = spec.layer, spec.layer.op, spec.layer.handle
        w = weights[spec.name]
        x = rng.standard_normal((rows, handle.k_logical)).astype(np.float32)
        request = op.build_request(x, handle)
        chosen = op.selector.explain(request).backend
        if chosen in choices:
            choices[chosen] += 1
        entrants: "dict[str, Callable[[], np.ndarray]]" = {
            "auto": partial(layer, x),
            "dense": partial(np.matmul, x, w),
        }
        for backend in available_backends():
            if backend.supports(request) is True:
                entrants[backend.name] = partial(op.execute, x, handle, backend=backend.name)
        times: "dict[str, list[float]]" = {name: [] for name in entrants}
        reference = x @ w
        for _ in range(RACE_REPEATS):
            for name, fn in entrants.items():
                t, y = _timed(fn)
                times[name].append(t)
                result.check(_close(y, reference), f"race {kind}/{name}")
        med = {name: median(ts) for name, ts in times.items()}
        contenders = {name: t for name, t in med.items() if name != "auto"}
        regrets.append(med[chosen] / min(contenders.values()))
        result.put(f"layer.{kind}.speedup_vs_dense", med["dense"] / med["auto"], "x", MEASURED, f"auto picks {chosen}")
    for name, count in choices.items():
        result.put(f"auto.choice.{name}", count, "count", MEASURED, "layer kinds")
    result.put("auto.regret_max", max(regrets), "x", MEASURED, "chosen over fastest, incl. a @ W")
    result.put("auto.regret_geomean", geomean(regrets), "x", MEASURED)


def _dense_ceiling(seed: int) -> float:
    m, k, n = CEILING_SHAPE
    rng = np.random.default_rng([seed, 0xDE5])
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    np.matmul(a, b)
    times = [_timed(np.matmul, a, b)[0] for _ in range(7)]
    return 2.0 * m * n * k / median(times) / 1e9
