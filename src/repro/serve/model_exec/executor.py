"""Full-model execution on the NM-SpMM stack.

:class:`ModelExecutor` hosts every layer shape of a
``workloads.llama`` model — the five shapes
:func:`~repro.workloads.llama.llama_layer_shapes` derives (fused QKV,
attention output, MLP gate/up, MLP down, LM head) — as
:class:`~repro.nn.linear.NMSparseLinear` layers, repeated per
transformer block.  Each layer keeps its own compressed handle and
routes through the pluggable backend registry, so format/backend
choice can differ per layer shape (the customized-storage argument of
Shi et al.); the serving engine charges one gather-GEMM launch per
layer per step through the perf model.

The executor provides both views the simulator needs:

* *numerics* — :meth:`hidden_states` / :meth:`logits` run the actual
  NumPy forward walk (tests compare it against a dense reference);
* *modeled time* — :meth:`modeled_prefill_s` /
  :meth:`modeled_decode_step_s` sum the per-layer perf-model seconds
  at a padded row count, memoized per bucket.  The continuous
  batcher's cost-of-recompute preemption model is exactly
  ``modeled_prefill_s`` of the victim's restart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError
from repro.nn.linear import Linear, NMSparseLinear
from repro.nn.mlp import relu
from repro.sparsity.config import NMPattern
from repro.workloads.llama import (
    LlamaModel,
    get_llama_model,
    llama_layer_shapes,
)

__all__ = ["LayerSpec", "ModelExecutor"]

#: Per-block layer kinds, in walk order (the LM head runs once at the
#: end of the stack, not per block).
BLOCK_LAYER_KINDS = ("attn-qkv-fused", "attn-qkvo", "mlp-gate-up", "mlp-down")
HEAD_LAYER_KIND = "lm-head"


@dataclass(frozen=True)
class LayerSpec:
    """One resident layer of the executor's walk order."""

    #: Unique name, e.g. ``"block0/mlp-gate-up"`` or ``"lm-head"``.
    name: str
    #: The :func:`llama_layer_shapes` kind this layer instantiates.
    kind: str
    #: Transformer block index, or ``None`` for the LM head.
    block: "int | None"
    #: The hosted N:M-sparse layer (owns op + compressed handle).
    layer: NMSparseLinear

    @property
    def weight_bytes(self) -> int:
        """Compressed footprint (values + indices) of this layer."""
        compressed = self.layer.handle.compressed
        return int(compressed.values_bytes() + compressed.indices_bytes())


class ModelExecutor:
    """A whole Llama model hosted on the NM-SpMM serving stack.

    Parameters
    ----------
    model:
        A :class:`~repro.workloads.llama.LlamaModel` or a catalog name
        (``"llama-7b"`` etc.).
    scale:
        Down-scaling divisor applied via ``LlamaModel.scaled`` so the
        simulator runs at laptop sizes; ``1`` keeps paper dimensions.
    blocks:
        Transformer blocks to instantiate (each gets independent
        weights for all four block-layer shapes).
    pattern:
        N:M pruning pattern shared by every layer.
    kv_dtype_bytes:
        Bytes per cached element (2 ~= fp16 KV cache).
    """

    def __init__(
        self,
        model: "str | LlamaModel" = "llama-7b",
        *,
        scale: int = 16,
        blocks: int = 2,
        pattern: "NMPattern | None" = None,
        gpu: str = "A100",
        version: str = "V3",
        backend: str = "auto",
        seed: int = 0,
        kv_dtype_bytes: int = 2,
    ):
        if blocks < 1:
            raise ServeError(f"blocks must be >= 1, got {blocks}")
        if kv_dtype_bytes < 1:
            raise ServeError(
                f"kv_dtype_bytes must be >= 1, got {kv_dtype_bytes}"
            )
        if seed < 0:
            raise ServeError(f"seed must be >= 0, got {seed}")
        base = get_llama_model(model) if isinstance(model, str) else model
        self.base_model = base
        self.model = base.scaled(scale) if scale != 1 else base
        self.blocks = blocks
        self.pattern = (
            pattern if pattern is not None else NMPattern(2, 8, vector_length=8)
        )
        self.gpu = gpu
        self.version = version
        self.backend = backend
        self.seed = seed
        self.kv_dtype_bytes = kv_dtype_bytes
        self.layers = self._build_layers()
        self._by_name = {spec.name: spec for spec in self.layers}
        #: padded-row bucket -> summed per-layer modeled seconds.
        self._stack_seconds: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_layers(self) -> "tuple[LayerSpec, ...]":
        # llama_layer_shapes yields (kind, n, k): the layer computes
        # [m, k] @ [k, n], so the dense weight is (k, n).
        shapes = {
            kind: (k, n) for kind, n, k in llama_layer_shapes(self.model)
        }
        rng = np.random.default_rng([self.seed, 0x11A])
        specs: list[LayerSpec] = []

        def host(name: str, kind: str, block: "int | None") -> None:
            k, n = shapes[kind]
            weight = (rng.standard_normal((k, n)) * k**-0.5).astype(
                np.float32
            )
            sparse = NMSparseLinear.from_dense(
                Linear(weight), self.pattern, gpu=self.gpu, version=self.version
            )
            sparse.backend = self.backend
            specs.append(LayerSpec(name=name, kind=kind, block=block, layer=sparse))

        for b in range(self.blocks):
            for kind in BLOCK_LAYER_KINDS:
                host(f"block{b}/{kind}", kind, b)
        host(HEAD_LAYER_KIND, HEAD_LAYER_KIND, None)
        return tuple(specs)

    def layer(self, name: str) -> LayerSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ServeError(
                f"executor hosts no layer {name!r}; "
                f"layers are {[s.name for s in self.layers]}"
            ) from None

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------
    @property
    def hidden(self) -> int:
        return self.model.hidden

    @property
    def vocab(self) -> int:
        return self.model.vocab

    @property
    def weight_bytes(self) -> int:
        """Compressed weights resident in HBM for the whole run."""
        return sum(spec.weight_bytes for spec in self.layers)

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes one sequence pins per cached token: K and V
        vectors of ``hidden`` elements, per block."""
        return 2 * self.blocks * self.model.hidden * self.kv_dtype_bytes

    def kv_bytes(self, tokens: int) -> int:
        """KV footprint of one sequence with ``tokens`` cached."""
        if tokens < 0:
            raise ServeError(f"tokens must be >= 0, got {tokens}")
        return tokens * self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Numerics (the NumPy walk; modeled-time serving never calls this)
    # ------------------------------------------------------------------
    def _block_forward(self, x: np.ndarray, block: int) -> np.ndarray:
        h = self.model.hidden
        qkv = self._by_name[f"block{block}/attn-qkv-fused"].layer(x)
        # Single-token decode has no cross-token mixing to model in a
        # GEMM-level simulator; the Q projection slice stands in for
        # the attention read so the residual stream stays h-wide.
        attended = qkv[:, :h]
        x = x + self._by_name[f"block{block}/attn-qkvo"].layer(attended)
        up = self._by_name[f"block{block}/mlp-gate-up"].layer(x)
        x = x + self._by_name[f"block{block}/mlp-down"].layer(relu(up))
        return x

    def hidden_states(self, x: np.ndarray) -> np.ndarray:
        """Walk every transformer block: ``(m, hidden) -> (m, hidden)``."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.model.hidden:
            raise ServeError(
                f"activations must be (m, {self.model.hidden}), "
                f"got {x.shape}"
            )
        for b in range(self.blocks):
            x = self._block_forward(x, b)
        return x

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Full forward: blocks then LM head, ``(m, vocab)`` logits."""
        return self._by_name[HEAD_LAYER_KIND].layer(self.hidden_states(x))

    __call__ = logits

    # ------------------------------------------------------------------
    # Modeled time
    # ------------------------------------------------------------------
    def stack_seconds(self, padded_rows: int) -> float:
        """Summed per-layer modeled seconds for one walk of the whole
        stack at ``padded_rows`` activation rows (memoized per bucket;
        single-device — the server models sharded walks itself)."""
        if padded_rows < 1:
            raise ServeError(f"padded_rows must be >= 1, got {padded_rows}")
        cached = self._stack_seconds.get(padded_rows)
        if cached is not None:
            return cached
        total = 0.0
        for spec in self.layers:
            plan = spec.layer.op.plan_for(
                padded_rows, spec.layer.handle, use_cache=True
            )
            total += plan.simulate().seconds
        self._stack_seconds[padded_rows] = total
        return total

    def modeled_prefill_s(self, tokens: int, policy=None) -> float:
        """Modeled seconds to (re)build a sequence's KV cache: one walk
        at ``tokens`` rows (bucketed by ``policy`` when given).  Also
        the preemption cost-of-recompute for a victim holding that many
        tokens."""
        if tokens < 1:
            raise ServeError(f"tokens must be >= 1, got {tokens}")
        rows = policy.bucket_rows(tokens) if policy is not None else tokens
        return self.stack_seconds(rows)

    def modeled_decode_step_s(self, rows: int, policy=None) -> float:
        """Modeled seconds for one decode step of a ``rows``-sequence
        rolling batch (one token per sequence)."""
        if rows < 1:
            raise ServeError(f"rows must be >= 1, got {rows}")
        padded = policy.bucket_rows(rows) if policy is not None else rows
        return self.stack_seconds(padded)

    def describe(self) -> dict:
        return {
            "model": self.model.name,
            "hidden": self.model.hidden,
            "ffn": self.model.ffn,
            "vocab": self.model.vocab,
            "blocks": self.blocks,
            "layers": len(self.layers),
            "pattern": str(self.pattern),
            "gpu": self.gpu,
            "version": self.version,
            "backend": self.backend,
            "weight_bytes": self.weight_bytes,
            "kv_bytes_per_token": self.kv_bytes_per_token,
        }
