"""Fast gather-GEMM NM-SpMM (the batched online execution path).

Where :func:`repro.kernels.functional.nm_spmm_functional` re-derives
the gather rows from ``D`` and loops over column windows in Python,
this kernel consumes a precomputed
:class:`~repro.sparsity.gather.GatherLayout` and evaluates the windows
with batched ``matmul`` calls: gather ``A`` into ``(q, m, w)`` blocks,
multiply against the layout's ``(q, w, L)`` value blocks, and
interleave the ``(q, m, L)`` results back into ``(m, n)``.  This is the
§III-B2 observation applied end to end — after the offline layout
conversion the whole product is dense-GEMM-shaped work that BLAS can
execute at full rate, which is why ``execute(backend="fast")`` is the
library's default numerics path.

The loop is blocked at two levels, the host analogue of the paper's
hierarchical blocking for data locality:

* **Row tiles** of at most :data:`ROW_TILE` activation rows.  Each tile
  gathers from its own contiguous ``A^T`` slab, so a gathered window
  row is ``ROW_TILE`` floats long however tall ``A`` is.
* **Window groups** inside each row tile, sized so the gathered
  ``(cq, w, rows)`` block stays under :data:`GATHER_BUFFER_ELEMENTS`
  (a cache-sized bound): the batched GEMM then reads an operand that
  was just written and is still in cache, and every group of a tile
  gathers from the same ``k * rows`` slab.

Measured with 2-thread OpenBLAS at k=n=1024 (best of 7), the
cache-sized buffer bound alone against the bound plus row tiles:
2:8/L8 at m=512, 22 ms → 13 ms; at m=2048, 104 ms → 54 ms; 2:4/L4 at
m=512, 80 ms → 34 ms.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.utils.arrays import as_f32
from repro.utils.validation import check_matrix

__all__ = ["nm_spmm_fast", "GATHER_BUFFER_ELEMENTS", "ROW_TILE"]

#: Bound on the gathered-operand buffer, in float32 elements (64 Ki,
#: i.e. 256 KiB — about one core's L2).  Every column window
#: gathers its own (w, rows) view of A, so an unchunked gather grows as
#: q * w * m.  The bound used to be 64 MiB, which only capped memory:
#: each group's temporary was freshly allocated, written once and out
#: of cache again before the GEMM read it.  On the nine Llama-7B
#: prefill layers (scale 4, 2:8/L8, m=128, 2-thread OpenBLAS) the
#: kernel took 330-400 ms under the old bound and 80-110 ms under this
#: one, against 65 ms for dense SGEMM.  One window is the floor, so
#: correctness never depends on the limit.
GATHER_BUFFER_ELEMENTS = 1 << 16

#: Most activation rows gathered at once.  Without it a tall A (large
#: m) drives the window groups down to the one-window floor with a
#: gathered block far past the cache bound; tiling rows keeps each
#: one-window block at ``w * ROW_TILE`` elements and the ``A^T`` slab
#: a tile's groups gather from at ``k * ROW_TILE``.
ROW_TILE = 128


def nm_spmm_fast(
    a: np.ndarray,
    layout: "GatherLayout | NMCompressedMatrix",
    *,
    rescale: bool = False,
) -> np.ndarray:
    """Compute ``C = A (*) (B', D)`` from a precomputed gather layout.

    Parameters
    ----------
    a:
        Dense ``(m, k)`` input with exactly the layout's (padded) k.
    layout:
        A :class:`GatherLayout`, or an :class:`NMCompressedMatrix` to
        convert on the fly (hot paths should build the layout once via
        :func:`~repro.sparsity.gather.build_gather_layout` and reuse
        it — conversion costs more than one call saves).
    rescale:
        Apply Eq. 1's ``M/N`` mean-preserving prefactor.

    Numerically equivalent to :func:`nm_spmm_reference` up to float32
    summation order (each output entry sums the same ``w`` products).
    """
    if isinstance(layout, NMCompressedMatrix):
        layout = build_gather_layout(layout)
    a = as_f32(check_matrix("a", a))
    m_rows, k = a.shape
    if k != layout.k:
        raise ShapeError(
            f"A has k={k} columns but the gather layout expects "
            f"k={layout.k}"
        )
    pattern = layout.pattern
    ell = pattern.vector_length
    q, w = layout.q, layout.w
    out = np.empty((m_rows, q * ell), dtype=np.float32)
    out3 = out.reshape(m_rows, q, ell)
    for r0 in range(0, m_rows, ROW_TILE):
        r1 = min(r0 + ROW_TILE, m_rows)
        rows = r1 - r0
        # Gather from the tile's A^T so every gathered element pulls a
        # contiguous row-tile run instead of a strided column — one
        # fancy-index per window group builds the windows' Ar^T as a
        # contiguous (cq, w, rows) block.  matmul broadcasts over the
        # leading window axis (Ar^T is consumed transposed, which BLAS
        # handles without a copy), so the per-window GEMMs of a group
        # run in a single batched call.
        at = np.ascontiguousarray(a[r0:r1].T)
        chunk_q = max(1, min(q, GATHER_BUFFER_ELEMENTS // max(1, w * rows)))
        for j0 in range(0, q, chunk_q):
            j1 = min(j0 + chunk_q, q)
            ar_t = at[layout.rows[j0:j1].reshape(-1)]
            prod = np.matmul(
                ar_t.reshape(j1 - j0, w, rows).transpose(0, 2, 1),
                layout.values[j0:j1],
            )  # (cq, rows, L)
            out3[r0:r1, j0:j1] = prod.transpose(1, 0, 2)
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
