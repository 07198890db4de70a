"""Tests for the serving runtime: queue, batcher, plan cache, engine,
load generation, scenarios, and the serve-sim CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.api import NMSpMM
from repro.errors import ConfigurationError, ServeError
from repro.serve.batcher import BatchingPolicy, DynamicBatcher
from repro.serve.cache import LRUCache, PlanCache
from repro.serve.loadgen import (
    TrafficSource,
    bursty_arrivals,
    generate_requests,
    poisson_arrivals,
)
from repro.serve.metrics import LatencySummary, percentile
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest, RequestRecord
from repro.serve.scenarios import LlamaServingScenario, parse_pattern
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern
from repro.workloads.llama import get_llama_model


def int_matrix(rng, rows, cols):
    """Small-integer float32 data: exactly representable, so any
    accumulation order gives bitwise-identical products."""
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float32)


def make_request(request_id, model, rows, k, arrival_s, rng):
    return InferenceRequest(
        request_id=request_id,
        model=model,
        a=int_matrix(rng, rows, k),
        arrival_s=arrival_s,
    )


# ---------------------------------------------------------------------------
# Requests and records
# ---------------------------------------------------------------------------
class TestInferenceRequest:
    def test_basic(self, rng):
        req = make_request(0, "m", 4, 16, 0.5, rng)
        assert req.rows == 4 and req.k == 16
        assert "req#0" in req.label()

    def test_bad_arrival(self, rng):
        with pytest.raises(ServeError):
            make_request(0, "m", 2, 8, -1.0, rng)

    def test_needs_model(self, rng):
        with pytest.raises(ServeError):
            make_request(0, "", 2, 8, 0.0, rng)

    def test_record_timing(self, rng):
        req = make_request(0, "m", 2, 8, 1.0, rng)
        rec = RequestRecord(request=req, batch_id=0, started_s=1.5, finished_s=2.0)
        assert rec.latency_s == pytest.approx(1.0)
        assert rec.queue_wait_s == pytest.approx(0.5)
        assert rec.service_s == pytest.approx(0.5)

    def test_record_rejects_time_travel(self, rng):
        req = make_request(0, "m", 2, 8, 1.0, rng)
        with pytest.raises(ServeError):
            RequestRecord(request=req, batch_id=0, started_s=0.5, finished_s=2.0)


# ---------------------------------------------------------------------------
# Queue
# ---------------------------------------------------------------------------
class TestRequestQueue:
    def test_fifo_and_rows(self, rng):
        q = RequestQueue("m")
        for i, rows in enumerate([2, 3, 5]):
            q.push(make_request(i, "m", rows, 8, 0.1 * i, rng))
        assert len(q) == 3
        assert q.total_rows == 10
        assert q.oldest_arrival_s == pytest.approx(0.0)
        taken = q.pop_upto(10, 100)
        assert [r.request_id for r in taken] == [0, 1, 2]
        assert not q

    def test_row_budget(self, rng):
        q = RequestQueue("m")
        for i in range(3):
            q.push(make_request(i, "m", 4, 8, 0.0, rng))
        taken = q.pop_upto(10, 8)
        assert [r.request_id for r in taken] == [0, 1]
        assert len(q) == 1

    def test_oversized_request_still_pops(self, rng):
        q = RequestQueue("m")
        q.push(make_request(0, "m", 64, 8, 0.0, rng))
        taken = q.pop_upto(4, 8)
        assert len(taken) == 1 and taken[0].rows == 64

    def test_request_budget(self, rng):
        q = RequestQueue("m")
        for i in range(5):
            q.push(make_request(i, "m", 1, 8, 0.0, rng))
        assert len(q.pop_upto(2, 100)) == 2

    def test_rejects_wrong_model(self, rng):
        q = RequestQueue("m")
        with pytest.raises(ServeError):
            q.push(make_request(0, "other", 1, 8, 0.0, rng))

    def test_rejects_out_of_order_arrival(self, rng):
        q = RequestQueue("m")
        q.push(make_request(0, "m", 1, 8, 1.0, rng))
        with pytest.raises(ServeError):
            q.push(make_request(1, "m", 1, 8, 0.5, rng))

    def test_pop_empty_raises(self):
        with pytest.raises(ServeError):
            RequestQueue("m").pop_upto(1, 1)


# ---------------------------------------------------------------------------
# Batching policy + batcher
# ---------------------------------------------------------------------------
class TestBatchingPolicy:
    def test_bucket_rows_pow2(self):
        policy = BatchingPolicy(pad_rows_quantum=8, pow2_rows=True)
        assert policy.bucket_rows(1) == 8
        assert policy.bucket_rows(8) == 8
        assert policy.bucket_rows(9) == 16
        assert policy.bucket_rows(17) == 32

    def test_bucket_rows_quantum_only(self):
        policy = BatchingPolicy(pad_rows_quantum=8, pow2_rows=False)
        assert policy.bucket_rows(17) == 24

    def test_validation(self):
        with pytest.raises(ServeError):
            BatchingPolicy(max_batch_requests=0)
        with pytest.raises(ServeError):
            BatchingPolicy(max_wait_s=-1.0)
        with pytest.raises(ServeError):
            BatchingPolicy(pad_rows_quantum=0)


class TestDynamicBatcher:
    def test_deadline_logic(self, rng):
        batcher = DynamicBatcher(BatchingPolicy(max_wait_s=0.010))
        q = RequestQueue("m")
        assert not batcher.should_flush(q, 100.0)  # empty never flushes
        q.push(make_request(0, "m", 1, 8, 0.0, rng))
        assert batcher.deadline_s(q) == pytest.approx(0.010)
        assert not batcher.should_flush(q, 0.005)
        assert not batcher.should_flush(q, 0.0099)
        assert batcher.should_flush(q, 0.010)
        assert batcher.should_flush(q, 0.005, drain=True)

    def test_full_flush_by_requests(self, rng):
        batcher = DynamicBatcher(
            BatchingPolicy(max_batch_requests=2, max_wait_s=10.0)
        )
        q = RequestQueue("m")
        q.push(make_request(0, "m", 1, 8, 0.0, rng))
        assert not batcher.should_flush(q, 0.0)
        q.push(make_request(1, "m", 1, 8, 0.0, rng))
        assert batcher.should_flush(q, 0.0)

    def test_full_flush_by_rows(self, rng):
        batcher = DynamicBatcher(
            BatchingPolicy(max_batch_rows=8, max_wait_s=10.0)
        )
        q = RequestQueue("m")
        q.push(make_request(0, "m", 8, 8, 0.0, rng))
        assert batcher.should_flush(q, 0.0)

    def test_form_batch_pads_and_splits(self, rng):
        batcher = DynamicBatcher(
            BatchingPolicy(pad_rows_quantum=8, pow2_rows=True)
        )
        q = RequestQueue("m")
        reqs = [make_request(i, "m", rows, 4, 0.0, rng)
                for i, rows in enumerate([3, 2])]
        for req in reqs:
            q.push(req)
        batch = batcher.form_batch(q)
        assert batch.rows == 5
        assert batch.padded_rows == 8
        assert batch.padding_rows == 3
        assert batch.a.shape == (8, 4)
        # Stacked block holds each request's rows at its offset; the
        # padding rows are zero.
        np.testing.assert_array_equal(batch.a[0:3], reqs[0].a)
        np.testing.assert_array_equal(batch.a[3:5], reqs[1].a)
        np.testing.assert_array_equal(batch.a[5:], np.zeros((3, 4), np.float32))
        # split() is the inverse of stacking.
        c = rng.standard_normal((8, 6)).astype(np.float32)
        parts = batch.split(c)
        np.testing.assert_array_equal(parts[0], c[0:3])
        np.testing.assert_array_equal(parts[1], c[3:5])

    def test_split_shape_checked(self, rng):
        batcher = DynamicBatcher()
        q = RequestQueue("m")
        q.push(make_request(0, "m", 3, 4, 0.0, rng))
        batch = batcher.form_batch(q)
        with pytest.raises(ServeError):
            batch.split(np.zeros((batch.padded_rows + 1, 4), np.float32))

    def test_form_batch_pad_to_k(self, rng):
        """Stacking at the weights' padded k: extra columns are zero
        and request data lands in the logical-k prefix."""
        batcher = DynamicBatcher()
        q = RequestQueue("m")
        req = make_request(0, "m", 3, 6, 0.0, rng)
        q.push(req)
        batch = batcher.form_batch(q, pad_to_k=8)
        assert batch.a.shape == (8, 8)
        np.testing.assert_array_equal(batch.a[0:3, :6], req.a)
        np.testing.assert_array_equal(batch.a[:, 6:], np.zeros((8, 2), np.float32))

    def test_form_batch_rejects_narrow_pad(self, rng):
        batcher = DynamicBatcher()
        q = RequestQueue("m")
        q.push(make_request(0, "m", 3, 6, 0.0, rng))
        with pytest.raises(ServeError):
            batcher.form_batch(q, pad_to_k=4)

    def test_form_batch_without_stacking(self, rng):
        batcher = DynamicBatcher()
        q = RequestQueue("m")
        q.push(make_request(0, "m", 3, 4, 0.0, rng))
        batch = batcher.form_batch(q, stack=False)
        assert batch.a is None
        assert batch.rows == 3 and batch.padded_rows == 8
        assert batch.row_offsets == [0]

    def test_batch_ids_increment(self, rng):
        batcher = DynamicBatcher()
        ids = []
        for i in range(3):
            q = RequestQueue("m")
            q.push(make_request(i, "m", 1, 4, 0.0, rng))
            ids.append(batcher.form_batch(q).batch_id)
        assert ids == [0, 1, 2]


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_eviction(self):
        cache = LRUCache(2)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1  # hit keeps old value
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("c", lambda: 3)  # evicts "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.stats.hits == 1
        assert cache.stats.misses == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hit_rate == pytest.approx(0.25)

    def test_lru_order(self):
        cache = LRUCache(2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 0)  # refresh "a"
        cache.get_or_build("c", lambda: 3)  # evicts "b", not "a"
        assert "a" in cache and "b" not in cache

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)

    def test_get_put(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "a" in cache and "b" not in cache and "c" in cache

    def test_touch_replays_hits(self):
        replayed, looked_up = LRUCache(3), LRUCache(3)
        for cache in (replayed, looked_up):
            for key in "abc":
                cache.put(key, key)
        replayed.touch(["a", "b"])
        looked_up.get("a")
        looked_up.get("b")
        assert replayed.stats == looked_up.stats
        assert replayed.stats.hits == 2
        for cache in (replayed, looked_up):
            cache.put("d", "d")  # evicts "c", the least recently used
        assert "c" not in replayed and "a" in replayed

    def test_generation_counts_removals(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.put("a", 2)
        assert cache.generation == 0
        cache.put("b", 2)  # evicts "a"
        assert cache.generation == 1
        cache.clear()
        assert cache.generation == 2


class TestPlanCache:
    @pytest.fixture
    def op_and_handle(self, rng):
        op = NMSpMM(NMPattern(2, 4, vector_length=4))
        handle = op.prepare(int_matrix(rng, 64, 32))
        return op, handle

    def test_hit_returns_identical_plan(self, op_and_handle):
        op, handle = op_and_handle
        cache = PlanCache(capacity=4)
        first = cache.lookup("m", op, handle, 16)
        second = cache.lookup("m", op, handle, 16)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert first.modeled_seconds > 0

    def test_distinct_geometries_miss(self, op_and_handle):
        op, handle = op_and_handle
        cache = PlanCache(capacity=4)
        cache.lookup("m", op, handle, 16)
        cache.lookup("m", op, handle, 32)
        cache.lookup("other", op, handle, 16)
        assert cache.stats.misses == 3

    def test_eviction(self, op_and_handle):
        op, handle = op_and_handle
        cache = PlanCache(capacity=1)
        cache.lookup("m", op, handle, 16)
        cache.lookup("m", op, handle, 32)
        cache.lookup("m", op, handle, 16)  # evicted, rebuilt
        assert cache.stats.evictions == 2
        assert cache.stats.hits == 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_percentile_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([7.0], 99) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ServeError):
            percentile([], 50)
        with pytest.raises(ServeError):
            percentile([1.0], 101)

    def test_latency_summary_ordering(self):
        summary = LatencySummary.from_seconds([0.001 * i for i in range(1, 101)])
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms <= summary.max_ms
        assert summary.mean_ms == pytest.approx(50.5)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_poisson_rate(self):
        rng = np.random.default_rng(7)
        times = poisson_arrivals(1000.0, 2.0, rng)
        assert times == sorted(times)
        assert all(0 <= t < 2.0 for t in times)
        assert 1600 < len(times) < 2400  # ~2000 expected

    def test_bursty_rate_and_order(self):
        rng = np.random.default_rng(7)
        times = bursty_arrivals(1000.0, 2.0, rng)
        assert all(0 <= t < 2.0 for t in times)
        assert times == sorted(times)
        assert 1500 < len(times) < 2500

    def test_bursty_rejects_infeasible_burst(self):
        # burst_factor * burst_fraction > 1 would need a negative
        # off-phase rate; it must fail loudly, not silently over-drive.
        rng = np.random.default_rng(0)
        with pytest.raises(ServeError):
            bursty_arrivals(100.0, 1.0, rng, burst_factor=8.0)

    def test_bursty_preserves_mean_rate(self):
        rng = np.random.default_rng(11)
        times = bursty_arrivals(500.0, 20.0, rng, burst_factor=3.0)
        assert len(times) == pytest.approx(500.0 * 20.0, rel=0.1)

    def test_bursty_is_burstier(self):
        # Coefficient of variation of inter-arrival gaps must exceed
        # the Poisson baseline (~1).
        def cv(times):
            gaps = np.diff(times)
            return gaps.std() / gaps.mean()

        rng = np.random.default_rng(3)
        poisson_cv = cv(np.array(poisson_arrivals(500.0, 4.0, rng)))
        bursty_cv = cv(np.array(bursty_arrivals(500.0, 4.0, rng)))
        assert bursty_cv > poisson_cv

    def test_generate_requests_deterministic(self):
        sources = [TrafficSource(model="m", k=16)]
        a = generate_requests(sources, 100.0, 1.0, seed=5)
        b = generate_requests(sources, 100.0, 1.0, seed=5)
        assert len(a) == len(b) > 0
        for ra, rb in zip(a, b, strict=True):
            assert ra.arrival_s == rb.arrival_s
            np.testing.assert_array_equal(ra.a, rb.a)
        assert [r.request_id for r in a] == list(range(len(a)))

    def test_custom_rows_choices_fall_back_to_uniform(self):
        # Non-default-length rows_choices must not trip over the
        # decode-heavy default weights (regression).
        src = TrafficSource(model="m", k=16, rows_choices=(1, 2, 4))
        assert src.rows_weights is None
        reqs = generate_requests([src], 200.0, 0.5, seed=0)
        assert {r.rows for r in reqs} <= {1, 2, 4}

    def test_generate_requests_mixes_sources(self):
        sources = [
            TrafficSource(model="a", k=8),
            TrafficSource(model="b", k=8),
        ]
        reqs = generate_requests(sources, 500.0, 1.0, seed=1)
        models = {r.model for r in reqs}
        assert models == {"a", "b"}

    def test_metadata_only_trace(self):
        reqs = generate_requests(
            [TrafficSource(model="m", k=16)],
            200.0,
            0.3,
            seed=0,
            synthesize_activations=False,
        )
        assert reqs and all(r.a is None for r in reqs)
        assert all(r.k == 16 and r.rows >= 1 for r in reqs)

    def test_bad_arrival_process(self):
        with pytest.raises(ServeError):
            generate_requests(
                [TrafficSource(model="m", k=8)], 10.0, 1.0, arrival="uniform"
            )


# ---------------------------------------------------------------------------
# Registry + engine
# ---------------------------------------------------------------------------
def build_two_model_server(rng, **kwargs):
    """A server with two models of different shapes and patterns,
    integer-valued weights for exact numerics."""
    server = InferenceServer(**kwargs)
    server.register_model(
        "narrow", int_matrix(rng, 64, 32), NMPattern(2, 4, vector_length=4)
    )
    server.register_model(
        "wide", int_matrix(rng, 96, 64), NMPattern(2, 8, vector_length=8)
    )
    return server


class TestRegistry:
    def test_multi_model(self, rng):
        server = build_two_model_server(rng)
        assert server.model_names == ["narrow", "wide"]
        assert server.model("narrow").k == 64
        assert server.model("wide").k == 96
        assert server.model("narrow").op.pattern != server.model("wide").op.pattern
        assert "narrow" in server.model("narrow").describe()

    def test_duplicate_rejected(self, rng):
        server = build_two_model_server(rng)
        with pytest.raises(ServeError):
            server.register_model(
                "narrow", int_matrix(rng, 64, 32), NMPattern(2, 4, vector_length=4)
            )

    def test_unknown_model(self, rng):
        server = build_two_model_server(rng)
        with pytest.raises(ServeError):
            server.model("nope")

    def test_submit_validates_k(self, rng):
        server = build_two_model_server(rng)
        with pytest.raises(ServeError):
            server.submit(make_request(0, "narrow", 2, 32, 0.0, rng))

    def test_submit_unknown_model(self, rng):
        server = build_two_model_server(rng)
        with pytest.raises(ServeError):
            server.submit(make_request(0, "nope", 2, 64, 0.0, rng))


class TestEngine:
    def test_deadline_batching_in_simulation(self, rng):
        """Two requests inside one max-wait window share a batch; a
        later request rides alone."""
        server = build_two_model_server(
            rng, policy=BatchingPolicy(max_wait_s=1e-3, max_batch_requests=16)
        )
        trace = [
            make_request(0, "narrow", 2, 64, 0.0, rng),
            make_request(1, "narrow", 2, 64, 0.0005, rng),
            make_request(2, "narrow", 2, 64, 0.005, rng),
        ]
        report = server.simulate(trace)
        batches = report.metrics.batch_records
        assert [b.n_requests for b in batches] == [2, 1]
        # The first batch launches exactly at the oldest request's
        # deadline, not before.
        assert batches[0].started_s == pytest.approx(1e-3)
        rec0, rec1 = report.record_for(0), report.record_for(1)
        assert rec0.batch_id == rec1.batch_id
        assert rec0.queue_wait_s == pytest.approx(1e-3)

    def test_full_batch_launches_before_deadline(self, rng):
        server = build_two_model_server(
            rng,
            policy=BatchingPolicy(max_wait_s=1.0, max_batch_requests=2),
        )
        trace = [
            make_request(0, "narrow", 2, 64, 0.0, rng),
            make_request(1, "narrow", 2, 64, 0.0001, rng),
        ]
        report = server.simulate(trace)
        assert len(report.metrics.batch_records) == 1
        # Launch happens when the batch fills, not at the 1 s deadline.
        assert report.metrics.batch_records[0].started_s == pytest.approx(0.0001)

    def test_drain_flushes_leftovers(self, rng):
        server = build_two_model_server(
            rng, policy=BatchingPolicy(max_wait_s=10.0, max_batch_requests=16)
        )
        report = server.simulate([make_request(0, "narrow", 2, 64, 0.0, rng)])
        assert report.metrics.completed == 1
        # Drain mode flushes at arrival, not at the 10 s deadline.
        assert report.metrics.batch_records[0].started_s == pytest.approx(0.0)

    def test_gpu_serializes_batches(self, rng):
        server = build_two_model_server(rng)
        trace = [
            make_request(i, "narrow", 2, 64, 0.0001 * i, rng) for i in range(40)
        ]
        report = server.simulate(trace, policy=BatchingPolicy(max_wait_s=0.0))
        batches = sorted(report.metrics.batch_records, key=lambda b: b.started_s)
        for prev, nxt in zip(batches, batches[1:], strict=False):
            assert nxt.started_s >= prev.finished_s - 1e-12

    def test_all_requests_complete_once(self, rng):
        server = build_two_model_server(rng)
        trace = [
            make_request(i, ("narrow", "wide")[i % 2], 1 + i % 4,
                         (64, 96)[i % 2], 0.0002 * i, rng)
            for i in range(60)
        ]
        report = server.simulate(trace)
        assert report.metrics.completed == 60
        ids = [r.request.request_id for r in report.request_records]
        assert ids == list(range(60))
        assert report.metrics.per_model_completed() == {"narrow": 30, "wide": 30}
        hist = report.metrics.batch_requests_histogram()
        assert sum(k * v for k, v in hist.items()) == 60
        assert sum(report.metrics.padded_rows_histogram().values()) == len(
            report.metrics.batch_records
        )

    def test_plan_cache_converges(self, rng):
        server = build_two_model_server(rng)
        trace = [
            make_request(i, "narrow", 1, 64, 0.001 * i, rng) for i in range(50)
        ]
        report = server.simulate(trace)
        stats = report.plan_cache_stats
        assert stats["hits"] + stats["misses"] == len(
            report.metrics.batch_records
        )
        assert stats["hit_rate"] > 0.9

    def test_plan_cache_stats_are_per_run(self, rng):
        """A second run on the same (warm) server reports only its own
        lookups, not the server-lifetime counters."""
        server = build_two_model_server(rng)
        trace = [
            make_request(i, "narrow", 1, 64, 0.001 * i, rng) for i in range(10)
        ]
        first = server.simulate(trace)
        second = server.simulate(trace)
        for report in (first, second):
            stats = report.plan_cache_stats
            assert stats["hits"] + stats["misses"] == len(
                report.metrics.batch_records
            )
        # The warm second run never misses.
        assert second.plan_cache_stats["misses"] == 0
        assert second.plan_cache_stats["hit_rate"] == 1.0

    def test_serving_does_not_leak_into_handle_cache(self, rng):
        """The bounded LRU is the single owner of serving plans; the
        handle-level cache stays an explicit opt-in API."""
        server = build_two_model_server(rng)
        trace = [
            make_request(i, "narrow", 1, 64, 0.001 * i, rng) for i in range(10)
        ]
        server.simulate(trace)
        assert server.model("narrow").handle.plan_cache_size == 0

    def test_batched_outputs_match_per_request_execute_exactly(self, rng):
        """End-to-end numerics: every request's output slice equals the
        one-shot execute of its own activation, bitwise (integer data
        makes float accumulation exact)."""
        server = build_two_model_server(rng)
        trace = [
            make_request(i, ("narrow", "wide")[i % 2], 1 + (i * 7) % 9,
                         (64, 96)[i % 2], 0.0003 * i, rng)
            for i in range(30)
        ]
        report = server.simulate(trace)
        for record in report.request_records:
            entry = server.model(record.request.model)
            expected = entry.op.execute(record.request.a, entry.handle)
            assert record.output is not None
            assert record.output.shape == (record.request.rows, entry.n)
            np.testing.assert_array_equal(record.output, expected)

    def test_gaussian_outputs_close(self, rng):
        """With generic float data, batched and per-request execution
        agree to float32 tolerance."""
        server = InferenceServer()
        server.register_model(
            "g",
            rng.standard_normal((64, 32)).astype(np.float32),
            NMPattern(2, 4, vector_length=4),
        )
        trace = [
            InferenceRequest(
                request_id=i,
                model="g",
                a=rng.standard_normal((3, 64)).astype(np.float32),
                arrival_s=0.0002 * i,
            )
            for i in range(10)
        ]
        report = server.simulate(trace)
        entry = server.model("g")
        for record in report.request_records:
            expected = entry.op.execute(record.request.a, entry.handle)
            np.testing.assert_allclose(
                record.output, expected, rtol=1e-5, atol=1e-5
            )

    def test_unpadded_weight_shapes_served_correctly(self, rng):
        """Weights whose n/k are not pattern multiples: requests use the
        logical k and outputs come back at the logical n (compression
        padding never leaks to the user)."""
        server = InferenceServer()
        server.register_model(
            "odd", int_matrix(rng, 60, 18), NMPattern(2, 8, vector_length=8)
        )
        assert server.model("odd").k == 60
        assert server.model("odd").n == 18
        trace = [make_request(i, "odd", 2, 60, 0.0005 * i, rng) for i in range(8)]
        report = server.simulate(trace)
        entry = server.model("odd")
        for record in report.request_records:
            assert record.output.shape == (2, 18)
            expected = entry.op.execute(record.request.a, entry.handle)
            np.testing.assert_array_equal(record.output, expected)

    def test_numerics_off(self, rng):
        server = build_two_model_server(rng, execute_numerics=False)
        report = server.simulate([make_request(0, "narrow", 2, 64, 0.0, rng)])
        assert report.request_records[0].output is None
        assert not report.numerics

    def test_metadata_only_requests_need_numerics_off(self, rng):
        meta_req = InferenceRequest(
            request_id=0, model="narrow", a=None, arrival_s=0.0, shape=(2, 64)
        )
        with_numerics = build_two_model_server(rng)
        with pytest.raises(ServeError):
            with_numerics.simulate([meta_req])
        without = build_two_model_server(rng, execute_numerics=False)
        report = without.simulate([meta_req])
        assert report.metrics.completed == 1

    def test_request_shape_validation(self):
        with pytest.raises(ServeError):
            InferenceRequest(request_id=0, model="m", a=None, arrival_s=0.0)
        with pytest.raises(ServeError):
            InferenceRequest(
                request_id=0, model="m", a=None, arrival_s=0.0, shape=(0, 4)
            )
        with pytest.raises(ServeError):
            InferenceRequest(
                request_id=0,
                model="m",
                a=np.zeros((2, 4), np.float32),
                arrival_s=0.0,
                shape=(2, 4),
            )

    def test_latency_decomposition(self, rng):
        server = build_two_model_server(rng)
        report = server.simulate(
            [make_request(0, "narrow", 2, 64, 0.0, rng)]
        )
        rec = report.request_records[0]
        assert rec.latency_s == pytest.approx(rec.queue_wait_s + rec.service_s)
        assert rec.service_s > 0  # modeled GPU time + host overhead

    def test_empty_trace_rejected(self, rng):
        with pytest.raises(ServeError):
            build_two_model_server(rng).simulate([])

    def test_submit_and_run(self, rng):
        server = build_two_model_server(rng)
        for i in range(4):
            server.submit(make_request(i, "narrow", 1, 64, 0.001 * i, rng))
        report = server.run_submitted()
        assert report.metrics.completed == 4
        with pytest.raises(ServeError):
            server.run_submitted()  # inbox cleared


# ---------------------------------------------------------------------------
# Scenarios + CLI
# ---------------------------------------------------------------------------
class TestScenario:
    def test_parse_pattern(self):
        pattern = parse_pattern("2:8", 8)
        assert (pattern.n, pattern.m, pattern.vector_length) == (2, 8, 8)
        with pytest.raises(ConfigurationError):
            parse_pattern("2-8")
        with pytest.raises(ConfigurationError):
            parse_pattern("a:b")

    def test_scaled_llama_geometry(self):
        scaled = get_llama_model("llama-7b").scaled(16)
        assert scaled.hidden == 256 and scaled.ffn == 688 and scaled.vocab == 2000
        with pytest.raises(ConfigurationError):
            get_llama_model("llama-7b").scaled(3)
        with pytest.raises(ConfigurationError):
            get_llama_model("llama-99b")

    def test_run_is_deterministic(self):
        kwargs = dict(qps=100.0, duration_s=0.3, seed=3)
        first = LlamaServingScenario(**kwargs).run()
        second = LlamaServingScenario(**kwargs).run()
        assert first.summary() == second.summary()

    def test_multi_model_scenario(self):
        report = LlamaServingScenario(
            models=("llama-7b", "llama-13b"),
            qps=150.0,
            duration_s=0.3,
            seed=1,
            execute_numerics=False,
        ).run()
        assert set(report.summary()["per_model_completed"]) == {
            "llama-7b/attn-qkvo",
            "llama-13b/attn-qkvo",
        }

    def test_summary_schema(self):
        summary = LlamaServingScenario(qps=80.0, duration_s=0.3).run().summary()
        for key in (
            "completed_requests",
            "achieved_qps",
            "latency",
            "queue_wait",
            "mean_batch_requests",
            "batch_requests_histogram",
            "padded_rows_histogram",
            "plan_cache",
            "policy",
            "modeled_gpu_busy_s",
        ):
            assert key in summary, key
        lat = summary["latency"]
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]


class TestServeSimCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve-sim"])
        assert args.experiment == "serve-sim"
        assert args.models == ["llama-7b"]
        assert args.pattern == "2:8"
        assert args.qps == 200.0

    def test_layer_choices_match_workloads(self):
        """--layer accepts exactly the workloads' layer kinds."""
        from repro.cli import build_parser
        from repro.workloads.llama import LLAMA_LAYER_KINDS

        parser = build_parser()
        for layer in LLAMA_LAYER_KINDS:
            assert parser.parse_args(["serve-sim", "--layer", layer]).layer == layer
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-sim", "--layer", "nope"])

    def test_smoke(self, capsys):
        assert (
            main(
                ["serve-sim", "--qps", "50", "--duration", "0.2",
                 "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "latency p50" in out
        assert "latency p95" in out
        assert "latency p99" in out
        assert "achieved QPS" in out
        assert "mean batch size" in out
        assert "plan cache" in out

    def test_chaos_smoke_with_streamed_trace(self, capsys, tmp_path):
        """The CI chaos smoke: a faulted, resilient 2-device run with
        a streamed JSONL trace that `trace summarize` can read back."""
        trace = tmp_path / "chaos.jsonl"
        assert (
            main(
                ["serve-sim", "--qps", "200", "--duration", "0.1",
                 "--no-numerics", "--devices", "2", "--shard", "column",
                 "--faults", "devfail:device=1,at=0.05", "--resilience",
                 "--seed", "1", "--trace", str(trace),
                 "--trace-format", "jsonl-stream"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reshards" in out
        assert f"wrote {trace} (jsonl-stream)" in out
        assert main(["trace", "summarize", str(trace)]) == 0
        assert "serve.batch" in capsys.readouterr().out

    def test_bad_faults_spec_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--duration", "0.1",
                  "--faults", "bogus:p=1"])
        assert "serve-sim:" in str(exc.value)
        assert "bogus" in str(exc.value)

    def test_bad_pattern_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--pattern", "2-8", "--duration", "0.1"])
        assert "serve-sim:" in str(exc.value)
        assert "2-8" in str(exc.value)

    def test_bad_scale_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--scale", "3", "--duration", "0.1"])
        assert "serve-sim:" in str(exc.value)

    def test_zero_scale_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--scale", "0", "--duration", "0.1"])
        assert "scale must be >= 1" in str(exc.value)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-batch-rows", "0"),
            ("--max-batch-requests", "0"),
            ("--max-wait-ms", "-1"),
        ],
    )
    def test_bad_batching_flag_exits_cleanly(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--duration", "0.1", flag, value])
        assert str(exc.value).startswith("serve-sim: ")
        assert "\n" not in str(exc.value)

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        assert (
            main(
                ["serve-sim", "--qps", "50", "--duration", "0.2",
                 "--no-numerics", "--json", str(path)]
            )
            == 0
        )
        import json

        data = json.loads(path.read_text())
        assert data["completed_requests"] > 0
        assert data["numerics"] is False
