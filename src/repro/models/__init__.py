"""Memory-access prediction models.

* :class:`AttentionPredictor` — the paper's Fig. 6 architecture: dual input
  linears (address + PC segment features), positional encoding, Transformer
  encoder layers, and a multi-label delta-bitmap head. Used for the teacher,
  the distilled student, and the TransFetch-like baseline.
* :class:`LSTMPredictor` — a Voyager-like recurrent predictor baseline that
  shares DART's delta-bitmap formulation (drops into the paper's comparison).
* :class:`ModelConfig` — the Table I structure notation (L, D, H, ...).
"""

from repro.models.attention_model import (
    AttentionPredictor,
    load_attention_predictor,
    save_attention_predictor,
)
from repro.models.config import DART_CONFIG, STUDENT_CONFIG, TEACHER_CONFIG, ModelConfig
from repro.models.lstm_model import LSTMPredictor

__all__ = [
    "AttentionPredictor",
    "ModelConfig",
    "TEACHER_CONFIG",
    "STUDENT_CONFIG",
    "DART_CONFIG",
    "LSTMPredictor",
    "load_attention_predictor",
    "save_attention_predictor",
]
