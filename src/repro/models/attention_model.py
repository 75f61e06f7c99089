"""Attention-based memory access predictor (paper Fig. 6).

Architecture::

    addr segments (B,T,S_a) --Linear--+
                                      +--> +PosEnc -> LN -> [Encoder]*L
    pc   segments (B,T,S_p) --Linear--+         -> MeanPool -> Linear -> logits

The two parallel input linears are the ``2 S_l(T_I, D_A, K_I, C_I)`` terms in
the paper's storage model (Eq. 23). The head applies the output linear after
mean-pooling over tokens and produces ``D_O`` logits for the delta bitmap;
``predict_proba`` adds the final Sigmoid (which tabularizes to a LUT).
"""

from __future__ import annotations

import numpy as np

from repro.models.config import ModelConfig
from repro.nn import functional as F
from repro.nn.layernorm import LayerNorm
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.transformer import MeanPool, PositionalEncoding, TransformerEncoderLayer
from repro.utils.rng import spawn_rngs


class AttentionPredictor(Module):
    """Multi-label delta-bitmap predictor with a Transformer encoder trunk."""

    def __init__(self, config: ModelConfig, addr_dim: int, pc_dim: int, rng=0):
        super().__init__()
        self.config = config
        self.addr_dim = int(addr_dim)
        self.pc_dim = int(pc_dim)
        rngs = spawn_rngs(rng, config.layers + 3)
        d = config.dim
        self.addr_proj = Linear(self.addr_dim, d, rng=rngs[0])
        self.pc_proj = Linear(self.pc_dim, d, rng=rngs[1])
        self.pos = PositionalEncoding(d, max_len=max(config.history_len, 64))
        self.ln_in = LayerNorm(d)
        self.register_modules(
            "encoders",
            [
                TransformerEncoderLayer(
                    d, config.heads, config.ffn_dim, score_mode=config.score_mode, rng=rngs[2 + i]
                )
                for i in range(config.layers)
            ],
        )
        self.pool = MeanPool()
        self.head = Linear(d, config.bitmap_size, rng=rngs[-1])

    # --------------------------------------------------------------- forward
    def forward(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """Return logits ``(B, D_O)`` for inputs ``(B, T, S_a)``/``(B, T, S_p)``."""
        h = self.addr_proj.forward(x_addr) + self.pc_proj.forward(x_pc)
        h = self.ln_in.forward(self.pos.forward(h))
        for enc in self.encoders:
            h = enc.forward(h)
        return self.head.forward(self.pool.forward(h))

    def backward(self, grad_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.pool.backward(self.head.backward(grad_logits))
        for enc in reversed(self.encoders):
            g = enc.backward(g)
        g = self.pos.backward(self.ln_in.backward(g))
        return self.addr_proj.backward(g), self.pc_proj.backward(g)

    # ------------------------------------------------------------- inference
    def predict_logits(self, x_addr: np.ndarray, x_pc: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Batched forward without gradient bookkeeping growth."""
        outs = []
        for start in range(0, x_addr.shape[0], batch_size):
            sl = slice(start, start + batch_size)
            outs.append(self.forward(x_addr[sl], x_pc[sl]))
        return np.concatenate(outs, axis=0) if outs else np.zeros((0, self.config.bitmap_size))

    def predict_proba(self, x_addr: np.ndarray, x_pc: np.ndarray, batch_size: int = 512) -> np.ndarray:
        return F.sigmoid(self.predict_logits(x_addr, x_pc, batch_size))

    # ----------------------------------------------------- tabularization API
    def trunk_activations(self, x_addr: np.ndarray, x_pc: np.ndarray) -> dict[str, np.ndarray]:
        """Forward pass that records named intermediate activations.

        The converter uses these as PQ training data and as fine-tuning
        targets. Keys: ``embed`` (post input linears + posenc + LN),
        ``enc{i}/...`` per encoder layer, ``pooled``, ``logits``.
        """
        acts: dict[str, np.ndarray] = {}
        h = self.addr_proj.forward(x_addr) + self.pc_proj.forward(x_pc)
        h = self.ln_in.forward(self.pos.forward(h))
        acts["embed"] = h
        for i, enc in enumerate(self.encoders):
            a = enc.attn.forward(h)
            # Exact QKV projection and merged attention context: fine-tuning
            # targets for the converter (one extra GEMM; attn caches the rest).
            acts[f"enc{i}/qkv"] = h @ enc.attn.qkv.weight.value.T + enc.attn.qkv.bias.value
            acts[f"enc{i}/attn_ctx"] = enc.attn.last_context
            acts[f"enc{i}/attn_out"] = a
            h1 = enc.ln1.forward(h + a)
            acts[f"enc{i}/post_ln1"] = h1
            f1 = enc.ffn.lin1.forward(h1)
            acts[f"enc{i}/ffn_hidden_pre"] = f1
            f1a = enc.ffn.act.forward(f1)
            f2 = enc.ffn.lin2.forward(f1a)
            acts[f"enc{i}/ffn_out"] = f2
            h = enc.ln2.forward(h1 + f2)
            acts[f"enc{i}/post_ln2"] = h
        pooled = self.pool.forward(h)
        acts["pooled"] = pooled
        acts["logits"] = self.head.forward(pooled)
        return acts


# ------------------------------------------------------------- persistence
_SCORE_CODES = {"softmax": 0, "sigmoid": 1}
_SCORE_NAMES = {v: k for k, v in _SCORE_CODES.items()}


def student_state(model: AttentionPredictor) -> dict[str, np.ndarray]:
    """The student's flat array layout: its weights plus ``__meta__/config``
    and ``__meta__/dims`` (everything :func:`student_from_state` needs)."""
    mc = model.config
    state = model.state_dict()
    state["__meta__/config"] = np.array(
        [mc.layers, mc.dim, mc.heads, mc.ffn_dim, mc.history_len, mc.bitmap_size,
         _SCORE_CODES[mc.score_mode]],
        dtype=np.int64,
    )
    state["__meta__/dims"] = np.array([model.addr_dim, model.pc_dim], dtype=np.int64)
    return state


def student_from_state(state: dict[str, np.ndarray]) -> AttentionPredictor:
    """Rebuild the predictor :func:`student_state` laid out (weights copied)."""
    if "__meta__/config" not in state or "__meta__/dims" not in state:
        raise ValueError(
            "not an attention-predictor blob (missing __meta__ arrays); "
            "was this saved with save_attention_predictor?"
        )
    state = dict(state)
    layers, dim, heads, ffn_dim, hist, bitmap, score = (
        int(v) for v in state.pop("__meta__/config")
    )
    addr_dim, pc_dim = (int(v) for v in state.pop("__meta__/dims"))
    config = ModelConfig(
        layers=layers, dim=dim, heads=heads, ffn_dim=ffn_dim, history_len=hist,
        bitmap_size=bitmap, score_mode=_SCORE_NAMES[score],
    )
    model = AttentionPredictor(config, addr_dim, pc_dim, rng=0)
    model.load_state_dict(state)
    return model


def save_attention_predictor(model: AttentionPredictor, path) -> None:
    """Persist an :class:`AttentionPredictor` (config + weights) to ``.npz``.

    The adaptation loop needs the distilled student *next to* the deployed
    tables (drift re-tabularizes the frozen student on the live window), so
    the student must survive the train/serve process boundary just like the
    tables do.
    """
    from repro.utils.serialization import save_arrays

    save_arrays(path, student_state(model))


def load_attention_predictor(path) -> AttentionPredictor:
    """Load a predictor saved by :func:`save_attention_predictor`."""
    from repro.utils.serialization import load_arrays

    return student_from_state(load_arrays(path))
