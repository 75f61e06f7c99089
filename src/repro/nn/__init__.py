"""A from-scratch NumPy deep-learning substrate.

This package replaces PyTorch for this reproduction: it provides explicit
forward/backward modules over float64 ndarrays of shape ``(batch, time, dim)``,
losses, and optimizers. Gradients are hand-derived and verified against finite
differences in the test suite (``tests/nn/test_gradients.py``).

Design notes
------------
* Every :class:`Module` caches exactly the activations its ``backward`` needs;
  buffers are overwritten on the next forward, never reallocated per-sample.
* ``backward(grad_out)`` returns ``grad_in`` and *accumulates* parameter
  gradients (so gradient accumulation across micro-batches works naturally).
* No autograd tape: composition is explicit (:class:`Sequential`) or manual
  (the transformer encoder wires residuals by hand), which keeps the
  tabularization converter's layer-walk trivial.
"""

from repro.nn.activations import GELU, Dropout, ReLU, Sigmoid, Tanh
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layernorm import LayerNorm
from repro.nn.linear import Linear
from repro.nn.losses import (
    bce_with_logits,
    kd_loss,
    mse_loss,
    t_sigmoid,
)
from repro.nn.lstm import LSTM
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, clip_global_norm
from repro.nn.positional import LearnedPositionalEmbedding
from repro.nn.schedulers import (
    CosineAnnealingLR,
    ExponentialLR,
    LRScheduler,
    StepLR,
    WarmupCosineLR,
)
from repro.nn.transformer import (
    FeedForward,
    PositionalEncoding,
    TransformerEncoderLayer,
)

__all__ = [
    "GELU",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MultiHeadSelfAttention",
    "LayerNorm",
    "Linear",
    "bce_with_logits",
    "kd_loss",
    "mse_loss",
    "t_sigmoid",
    "LSTM",
    "Module",
    "Parameter",
    "Sequential",
    "SGD",
    "Adam",
    "clip_global_norm",
    "LearnedPositionalEmbedding",
    "LRScheduler",
    "StepLR",
    "ExponentialLR",
    "CosineAnnealingLR",
    "WarmupCosineLR",
    "FeedForward",
    "PositionalEncoding",
    "TransformerEncoderLayer",
]
