"""Golden pin of the serving engine's observable output.

Five seeded, numerics-off runs that between them reach every launch
path of :class:`~repro.serve.server.InferenceServer` — dynamic batches,
continuous steps, model-mode steps, each both healthy and failed — are
reduced to one sha256 over the report summary, the Chrome trace, and
the Prometheus text.  A refactor of the engine must leave every digest
unchanged: the summary, every span and event (ids, order, attributes),
the sampled-trace draws, and every metric series.

Three more runs pin the untraced summary alone, where no tracer is
attached: model mode at the default plan-cache capacity and at one
small enough to evict (so the pin covers LRU order and the plan-cache
counters under eviction), and a single-layer 2-device column-sharded
continuous run.
"""

import hashlib
import json

import pytest

from repro.obs.export import chrome_trace
from repro.obs.prometheus import prometheus_text
from repro.obs.tracer import Tracer
from repro.serve.model_exec.scenarios import long_context_summarization
from repro.serve.scenarios import LlamaServingScenario


def _layer(**overrides):
    return LlamaServingScenario(
        qps=400, duration_s=0.1, seed=7, execute_numerics=False, **overrides
    )


def _dynamic():
    return _layer(tracer=Tracer())


def _continuous_sampled():
    return _layer(
        scheduling="slo-edf", continuous=True, decode_fraction=0.5,
        devices=2, shard="column", tracer=Tracer(sample_rate=0.5),
    )


def _continuous_faults():
    return _layer(
        continuous=True, decode_fraction=0.5, devices=2,
        faults="launch:p=0.4,start=0.02,end=0.08;seed=5",
        resilience=True, tracer=Tracer(),
    )


def _model():
    return long_context_summarization(duration_s=0.5, tracer=Tracer())


def _model_faults():
    return long_context_summarization(
        duration_s=0.5, devices=2, kv_admission="none", resilience=True,
        faults="devfail:device=1,at=0.25;launch:p=0.3,start=0.05,end=0.2;seed=3",
        tracer=Tracer(),
    )


# name -> (scenario factory, (batches, failed batches, steps, failed
# steps), sha256 of summary + Chrome trace + Prometheus text)
GOLDEN = {
    "dynamic": (
        _dynamic, (23, 0, 0, 0),
        "b2a241d0db209e4252ba04256f34fb20abf0fd45e25aacfec9d9a6d8ee29d152",
    ),
    "continuous-sampled": (
        _continuous_sampled, (3, 0, 131, 0),
        "dbef379fdea9d017ca2b0046ed0d5d971c88116a95647fc0cfc8dc62f4747e72",
    ),
    "continuous-faults": (
        _continuous_faults, (4, 1, 71, 18),
        "bf5e03146d5bb666dace1482e5a1addf0ef544fabca03b670cdf88bc50d33785",
    ),
    "model": (
        _model, (0, 0, 258, 0),
        "b0d4a7b191868463d63d53d0715546104fc0f27a46be3afee7554cf41fe9afc8",
    ),
    "model-faults": (
        _model_faults, (0, 0, 147, 11),
        "f89cce921597bf20ee9fce30e9f0d5914d4350c5b5bc07c7df4a61f7b6effb05",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_serving_output_is_pinned(name):
    factory, shape, digest = GOLDEN[name]
    scenario = factory()
    report = scenario.run()
    tracer = scenario.tracer
    metrics = report.metrics
    assert (
        len(metrics.batch_records),
        sum(b.failed for b in metrics.batch_records),
        len(metrics.step_records),
        sum(s.failed for s in metrics.step_records),
    ) == shape
    blob = (
        json.dumps(report.summary(), sort_keys=True)
        + json.dumps(chrome_trace(tracer), sort_keys=True)
        + prometheus_text(tracer.metrics)
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _model_untraced():
    return long_context_summarization(duration_s=0.5)


def _model_untraced_evicting():
    return long_context_summarization(duration_s=0.5, plan_cache_capacity=16)


def _continuous_sharded_untraced():
    return _layer(
        continuous=True, decode_fraction=0.5, devices=2, shard="column",
    )


# name -> (scenario factory, whether the plan cache must evict, sha256
# of the summary)
GOLDEN_UNTRACED = {
    "model": (
        _model_untraced, False,
        "6a7d85260dbcd25f8f7de4ce39d09c62875126aea3b2a9db6b3268dbf9b82372",
    ),
    "model-evicting": (
        _model_untraced_evicting, True,
        "32c11c73b8459308a17764653f21f67e0dd6fd9f942d5f8bead6ae1c5d46101d",
    ),
    "continuous-sharded": (
        _continuous_sharded_untraced, False,
        "a3f93fe9452044a9378aeb1a7c1c11f279ae7000fe78b5713083e5f80e807402",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_UNTRACED))
def test_untraced_summary_is_pinned(name):
    factory, evicts, digest = GOLDEN_UNTRACED[name]
    summary = factory().run().summary()
    assert (summary["plan_cache"]["evictions"] > 0) == evicts
    blob = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
