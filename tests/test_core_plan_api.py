"""Unit tests for plan building and the NMSpMM facade."""

import numpy as np
import pytest

from repro.core.api import NMSpMM, nm_spmm
from repro.core.pipeline_design import design_pipeline
from repro.core.plan import build_plan
from repro.core.strategy import LoadStrategy
from repro.errors import CompressionError, PlanError, ShapeError
from repro.kernels.blocked import KernelTrace
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense


class TestBuildPlan:
    def test_default_plan(self):
        plan = build_plan(4096, 4096, 4096, NMPattern(4, 32, 32), "A100")
        assert plan.uses_packing
        assert plan.params.ks > 0
        assert plan.version.value == "V3"

    def test_moderate_no_packing(self):
        plan = build_plan(4096, 4096, 4096, NMPattern(16, 32, 32), "A100")
        assert plan.strategy is LoadStrategy.NON_PACKING

    def test_v1_never_packs(self):
        plan = build_plan(
            4096, 4096, 4096, NMPattern(4, 32, 32), "A100", version="V1"
        )
        assert plan.strategy is LoadStrategy.NON_PACKING

    def test_simulate_and_analyze(self):
        plan = build_plan(1024, 1024, 1024, NMPattern(8, 32, 32), "A100")
        rep = plan.simulate()
        assert rep.seconds > 0
        res = plan.analyze()
        assert res.ai_elements > 0

    def test_describe(self):
        plan = build_plan(512, 512, 512, NMPattern(8, 32, 32), "A100")
        assert "V3" in plan.describe()

    def test_ws_qs(self):
        plan = build_plan(512, 512, 512, NMPattern(8, 32, 32), "A100")
        assert plan.ws == plan.params.ws(plan.pattern)
        assert plan.qs == plan.params.qs(plan.pattern)


class TestPipelineDesign:
    def test_moderate_compute_covers(self):
        d = design_pipeline(
            LoadStrategy.NON_PACKING, lg2s_cycles=10, compute_cycles=50
        )
        assert d.covering_stage == "compute covers load"
        assert d.iteration_cycles() == 50

    def test_high_load_covers(self):
        d = design_pipeline(
            LoadStrategy.PACKING,
            lg2s_cycles=60,
            compute_cycles=20,
            colinfo_cycles=10,
        )
        assert d.covering_stage == "load covers compute"
        assert d.iteration_cycles() == 70

    def test_serial_adds(self):
        d = design_pipeline(
            LoadStrategy.NON_PACKING,
            lg2s_cycles=10,
            compute_cycles=50,
            double_buffered=False,
        )
        assert d.iteration_cycles() == 60

    def test_colinfo_requires_packing(self):
        with pytest.raises(PlanError):
            design_pipeline(
                LoadStrategy.NON_PACKING,
                lg2s_cycles=1,
                compute_cycles=1,
                colinfo_cycles=5,
            )

    def test_negative_rejected(self):
        with pytest.raises(PlanError):
            design_pipeline(
                LoadStrategy.NON_PACKING, lg2s_cycles=-1, compute_cycles=1
            )


class TestNMSpMMFacade:
    @pytest.fixture
    def op_and_data(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        b = random_dense(64, 48, rng)
        a = random_dense(16, 64, rng)
        return op, a, b

    def test_prepare_execute(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        out = op.execute(a, handle)
        # result equals dense product on the pruned weights
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=2e-5, atol=2e-5
        )

    def test_handle_properties(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        assert handle.k == 64
        assert handle.n == 48
        assert handle.pattern == op.pattern

    def test_colinfo_cached(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        c1 = handle.col_info(8, 16)
        c2 = handle.col_info(8, 16)
        assert c1 is c2

    def test_already_pruned(self, op_and_data, rng):
        op, a, b = op_and_data
        from repro.sparsity.pruning import prune_dense

        pruned, _ = prune_dense(op.pattern, b)
        handle = op.prepare(pruned, already_pruned=True)
        out = op.execute(a, handle)
        np.testing.assert_allclose(out, a @ pruned, rtol=2e-5, atol=2e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("already_pruned", [False, True])
    def test_non_finite_weights_rejected(self, rng, bad, already_pruned):
        op = NMSpMM(NMPattern(2, 8, vector_length=4))
        b = random_dense(64, 64, rng)
        b[3, 5] = bad
        b[40, 1] = bad
        with pytest.raises(CompressionError) as info:
            op.prepare(b, already_pruned=already_pruned)
        message = str(info.value)
        assert "\n" not in message
        assert "2 non-finite" in message
        assert "first at index (3, 5)" in message

    def test_short_a_rejected(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        with pytest.raises(ShapeError):
            op.execute(a[:, :32], handle)

    def test_trace_populated(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        trace = KernelTrace()
        op.execute(a, handle, trace=trace)
        assert trace.blocks > 0
        assert trace.fma_ops > 0

    def test_predict_with_handle(self, op_and_data):
        op, a, b = op_and_data
        handle = op.prepare(b)
        rep = op.predict(512, handle=handle)
        assert rep.seconds > 0

    def test_predict_explicit_dims(self):
        op = NMSpMM(NMPattern(8, 32, 32))
        rep = op.predict(1024, 2048, 2048, gpu="3090")
        assert rep.gpu == "RTX 3090"

    def test_predict_requires_dims(self):
        op = NMSpMM(NMPattern(8, 32, 32))
        with pytest.raises(PlanError):
            op.predict(1024)

    def test_moderate_sparsity_uses_blocked_path(self, rng):
        """At 50% the facade must not run the packed kernel."""
        pattern = NMPattern(4, 8, vector_length=4)  # 50%
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(32, 32, rng))
        plan = op.plan_for(16, handle)
        assert not plan.uses_packing

    def test_one_shot_helper(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        a = random_dense(16, 32, rng)
        b = random_dense(32, 16, rng)
        out = nm_spmm(a, b, pattern)
        from repro.sparsity.pruning import prune_dense

        pruned, _ = prune_dense(pattern, b)
        np.testing.assert_allclose(out, a @ pruned, rtol=2e-5, atol=2e-5)

    def test_high_sparsity_packed_path_matches(self, rng):
        """At 87.5% the facade runs the packed kernel; results match."""
        pattern = NMPattern(4, 32, vector_length=8)
        op = NMSpMM(pattern)
        b = random_dense(128, 64, rng)
        a = random_dense(16, 128, rng)
        handle = op.prepare(b)
        plan = op.plan_for(16, handle)
        assert plan.uses_packing
        out = op.execute(a, handle)
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=2e-5, atol=2e-5
        )


class TestExecuteShapeCheck:
    """Regression: execute() must reject A whose k differs from the
    prepared weights in EITHER direction (an oversized A used to be
    silently accepted and truncated by the kernels)."""

    @pytest.fixture
    def op_and_handle(self, rng):
        op = NMSpMM(NMPattern(2, 8, vector_length=4))
        handle = op.prepare(random_dense(64, 48, rng))
        return op, handle

    def test_oversized_a_rejected(self, op_and_handle, rng):
        op, handle = op_and_handle
        with pytest.raises(ShapeError):
            op.execute(random_dense(16, 72, rng), handle)

    def test_undersized_a_rejected(self, op_and_handle, rng):
        op, handle = op_and_handle
        with pytest.raises(ShapeError):
            op.execute(random_dense(16, 32, rng), handle)

    def test_exact_k_accepted(self, op_and_handle, rng):
        op, handle = op_and_handle
        out = op.execute(random_dense(16, 64, rng), handle)
        assert out.shape == (16, 48)


class TestColInfoCaching:
    def test_same_block_shape_returns_identical_object(self, rng):
        op = NMSpMM(NMPattern(2, 8, vector_length=4))
        handle = op.prepare(random_dense(64, 48, rng))
        first = handle.col_info(8, 16)
        assert handle.col_info(8, 16) is first

    def test_distinct_block_shapes_do_not_collide(self, rng):
        op = NMSpMM(NMPattern(2, 8, vector_length=4))
        handle = op.prepare(random_dense(64, 48, rng))
        a = handle.col_info(8, 16)
        b = handle.col_info(8, 32)
        c = handle.col_info(16, 16)
        assert a is not b and a is not c and b is not c
        assert (a.ws, a.ns) == (8, 16)
        assert (b.ws, b.ns) == (8, 32)
        assert (c.ws, c.ns) == (16, 16)
        # The cache holds all three, and re-lookups still hit.
        assert handle.col_info(8, 32) is b
        assert handle.col_info(16, 16) is c


class TestHandlePlanCache:
    @pytest.fixture
    def op_and_handle(self, rng):
        op = NMSpMM(NMPattern(2, 8, vector_length=4))
        handle = op.prepare(random_dense(64, 48, rng))
        return op, handle

    def test_plan_for_cache(self, op_and_handle):
        op, handle = op_and_handle
        assert handle.plan_cache_size == 0
        first = op.plan_for(16, handle, use_cache=True)
        assert handle.plan_cache_size == 1
        assert op.plan_for(16, handle, use_cache=True) is first
        # Uncached calls build fresh plans and do not populate.
        assert op.plan_for(16, handle) is not first
        assert handle.plan_cache_size == 1

    def test_distinct_m_distinct_entries(self, op_and_handle):
        op, handle = op_and_handle
        op.plan_for(16, handle, use_cache=True)
        op.plan_for(32, handle, use_cache=True)
        assert handle.plan_cache_size == 2
        handle.clear_plan_cache()
        assert handle.plan_cache_size == 0

    def test_plan_cache_bounded(self, op_and_handle):
        from repro.core.api import PLAN_CACHE_CAPACITY

        op, handle = op_and_handle
        for m in range(1, PLAN_CACHE_CAPACITY + 10):
            op.plan_for(m, handle, use_cache=True)
        assert handle.plan_cache_size == PLAN_CACHE_CAPACITY
        # Newest entries survive; the oldest fell out.
        key_new = (PLAN_CACHE_CAPACITY + 9, op.gpu.name, op.version.value, None)
        key_old = (1, op.gpu.name, op.version.value, None)
        assert handle.cached_plan(key_new) is not None
        assert handle.cached_plan(key_old) is None

    def test_execute_with_plan(self, op_and_handle, rng):
        op, handle = op_and_handle
        a = random_dense(16, 64, rng)
        plan = op.plan_for(16, handle)
        np.testing.assert_array_equal(
            op.execute(a, handle, plan=plan), op.execute(a, handle)
        )

    def test_execute_use_plan_cache(self, op_and_handle, rng):
        op, handle = op_and_handle
        a = random_dense(16, 64, rng)
        op.execute(a, handle, use_plan_cache=True)
        assert handle.plan_cache_size == 1

    def test_execute_rejects_mismatched_plan(self, op_and_handle, rng):
        op, handle = op_and_handle
        plan = op.plan_for(32, handle)
        with pytest.raises(PlanError):
            op.execute(random_dense(16, 64, rng), handle, plan=plan)

    def test_execute_rejects_foreign_pattern_plan(self, op_and_handle, rng):
        op, handle = op_and_handle
        other = NMSpMM(NMPattern(4, 8, vector_length=4))
        other_handle = other.prepare(random_dense(64, 48, rng))
        plan = other.plan_for(16, other_handle)
        with pytest.raises(PlanError):
            op.execute(random_dense(16, 64, rng), handle, plan=plan)


class TestLogicalShapes:
    """Non-pattern-multiple weight shapes: compression pads k and n
    internally, but the facade accepts logical-k activations and trims
    the output back to logical n."""

    def test_one_shot_with_unpadded_k(self, rng):
        # k=60 is not a multiple of M=8; this used to raise ShapeError.
        pattern = NMPattern(2, 8, vector_length=4)
        a = random_dense(4, 60, rng)
        b = random_dense(60, 16, rng)
        out = nm_spmm(a, b, pattern)
        assert out.shape == (4, 16)
        from repro.sparsity.pruning import prune_dense

        # prune_dense pads b's k to 64; the pad rows are zero, so the
        # logical-k slice is the true reference.
        pruned, _ = prune_dense(pattern, b)
        np.testing.assert_allclose(out, a @ pruned[:60], rtol=2e-5, atol=2e-5)

    def test_output_trimmed_to_logical_n(self, rng):
        # n=18 is not a multiple of L=8; the padded columns are dropped.
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        b = random_dense(64, 18, rng)
        handle = op.prepare(b)
        assert handle.n == 24 and handle.n_logical == 18
        out = op.execute(random_dense(4, 64, rng), handle)
        assert out.shape == (4, 18)

    def test_padded_k_still_accepted(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(60, 16, rng))
        assert handle.k == 64 and handle.k_logical == 60
        a_logical = random_dense(4, 60, rng)
        a_padded = np.hstack([a_logical, np.zeros((4, 4), np.float32)])
        np.testing.assert_array_equal(
            op.execute(a_logical, handle), op.execute(a_padded, handle)
        )

    def test_wrong_k_names_both_accepted_widths(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(60, 16, rng))
        with pytest.raises(ShapeError, match=r"k=60.*k=64"):
            op.execute(random_dense(4, 48, rng), handle)


class TestOneShotPassthrough:
    def test_gpu_and_version_passthrough(self, rng):
        a = random_dense(16, 32, rng)
        b = random_dense(32, 16, rng)
        pattern = NMPattern(2, 8, vector_length=4)
        out = nm_spmm(a, b, pattern, gpu="3090", version="V1")
        from repro.sparsity.pruning import prune_dense

        pruned, _ = prune_dense(pattern, b)
        np.testing.assert_allclose(out, a @ pruned, rtol=2e-5, atol=2e-5)
