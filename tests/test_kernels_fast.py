"""Equivalence and contract tests for the fast gather-GEMM kernel."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.fast import GATHER_BUFFER_ELEMENTS, ROW_TILE, nm_spmm_fast
from repro.kernels.functional import nm_spmm_functional
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.reference import nm_spmm_reference
from repro.kernels.tiling import TileParams
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import build_gather_layout
from repro.sparsity.pruning import prune_dense
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5

PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(4, 8, vector_length=8),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 32, vector_length=16),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]


def _setup(pattern, m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = random_dense(m, pattern.padded_k(k), rng)
    b = random_dense(pattern.padded_k(k), pattern.padded_n(n), rng)
    pruned, mask = prune_dense(pattern, b)
    comp = compress(pattern, pruned, mask)
    return a, comp, a @ pruned


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestFastEquivalence:
    def test_vs_dense(self, pattern):
        a, comp, gold = _setup(pattern, 24, 2 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp), gold, rtol=RTOL, atol=ATOL
        )

    def test_vs_reference(self, pattern):
        a, comp, _ = _setup(pattern, 24, 2 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp),
            nm_spmm_reference(a, comp),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_vs_functional(self, pattern):
        a, comp, _ = _setup(pattern, 17, 3 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp),
            nm_spmm_functional(a, comp),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_vs_blocked_and_packed(self, pattern):
        a, comp, _ = _setup(pattern, 40, 2 * pattern.padded_n(40), 3 * pattern.m)
        params = TileParams(ms=32, ns=32, mr=16, nr=32, mt=4, nt=4, ks=pattern.m)
        fast = nm_spmm_fast(a, comp)
        np.testing.assert_allclose(
            fast, nm_spmm_blocked(a, comp, params), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            fast, nm_spmm_packed(a, comp, params), rtol=RTOL, atol=ATOL
        )

    def test_precomputed_layout_matches_on_the_fly(self, pattern):
        a, comp, _ = _setup(pattern, 8, 2 * pattern.padded_n(8), 2 * pattern.m)
        layout = build_gather_layout(comp)
        np.testing.assert_array_equal(
            nm_spmm_fast(a, layout), nm_spmm_fast(a, comp)
        )

    def test_rescale(self, pattern):
        a, comp, _ = _setup(pattern, 8, 2 * pattern.padded_n(8), 2 * pattern.m)
        scale = np.float32(pattern.m / pattern.n)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp, rescale=True),
            nm_spmm_reference(a, comp, rescale=True),
            rtol=RTOL,
            atol=ATOL,
        )
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp, rescale=True),
            nm_spmm_fast(a, comp) * scale,
            rtol=RTOL,
            atol=ATOL,
        )

    def test_chunked_gather_identical(self, pattern, monkeypatch):
        """Forcing the window loop down to one-window chunks must give
        bitwise-identical output (chunking only bounds the gather
        buffer, never changes the per-window GEMMs)."""
        import repro.kernels.fast as fast_module

        a, comp, _ = _setup(pattern, 24, 4 * pattern.padded_n(8), 2 * pattern.m)
        unchunked = nm_spmm_fast(a, comp)
        monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", 1)
        np.testing.assert_array_equal(nm_spmm_fast(a, comp), unchunked)

    def test_decode_style_single_row(self, pattern):
        """m=1 (decode batches) must work — matmul broadcasting has no
        special case to fall into."""
        a, comp, gold = _setup(pattern, 1, 2 * pattern.padded_n(8), 2 * pattern.m)
        out = nm_spmm_fast(a, comp)
        assert out.shape == (1, comp.n)
        np.testing.assert_allclose(out, gold, rtol=RTOL, atol=ATOL)


#: More rows than two row tiles, so the last tile is ragged.
RAGGED_M = 2 * ROW_TILE + 3


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestFastRowTiling:
    def test_ragged_row_tiles_vs_dense(self, pattern):
        a, comp, gold = _setup(pattern, RAGGED_M, 4 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp), gold, rtol=RTOL, atol=ATOL
        )

    def test_ragged_row_tiles_one_window_groups(self, pattern, monkeypatch):
        import repro.kernels.fast as fast_module

        a, comp, gold = _setup(pattern, RAGGED_M, 4 * pattern.padded_n(8), 2 * pattern.m)
        monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", 1)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp), gold, rtol=RTOL, atol=ATOL
        )


def test_window_floor_with_row_tiles():
    """A window wider than the buffer bound allows for one row tile:
    the one-window floor and the row tiling are active together, at
    the kernel's real bounds."""
    pattern = NMPattern(4, 8, vector_length=4)
    k = 1152
    a, comp, gold = _setup(pattern, RAGGED_M, 16, k)
    assert comp.w * ROW_TILE > GATHER_BUFFER_ELEMENTS
    np.testing.assert_allclose(nm_spmm_fast(a, comp), gold, rtol=RTOL, atol=ATOL)


class TestFastShapeContract:
    def setup_method(self):
        self.pattern = NMPattern(2, 8, vector_length=4)
        self.a, self.comp, _ = _setup(self.pattern, 8, 16, 16)

    def test_undersized_a_rejected(self):
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_fast(self.a[:, :-1], self.comp)

    def test_oversized_a_rejected(self):
        padded = np.hstack(
            [self.a, np.zeros((self.a.shape[0], 8), dtype=np.float32)]
        )
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_fast(padded, self.comp)

    def test_output_dtype_and_contiguity(self):
        out = nm_spmm_fast(self.a, self.comp)
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]


class TestFunctionalOversizeRegression:
    """`nm_spmm_functional` used to accept oversized A silently (the
    `<` vs `!=` bug also fixed in `execute()` by PR 1)."""

    def test_oversized_a_rejected(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, _ = _setup(pattern, 8, 16, 16)
        oversized = np.hstack([a, np.ones((8, 8), dtype=np.float32)])
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_functional(oversized, comp)

    def test_undersized_a_still_rejected(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, _ = _setup(pattern, 8, 16, 16)
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_functional(a[:, :-1], comp)

    def test_exact_k_accepted(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, gold = _setup(pattern, 8, 16, 16)
        np.testing.assert_allclose(
            nm_spmm_functional(a, comp), gold, rtol=RTOL, atol=ATOL
        )
