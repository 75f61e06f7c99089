"""Tabularization: converting attention NNs to hierarchies of tables.

This package is the paper's primary contribution (Sec. V–VI):

* :class:`TabularLinear` — the linear kernel (Sec. V-A): PQ prototypes over
  layer inputs, a precomputed prototype×weight table with the bias folded in.
* :class:`TabularAttention` — the attention kernel (Sec. V-B): pairwise
  prototype QK tables, a second quantization of the intermediate product, and
  scaling/activation folded into the QKV table.
* :class:`SigmoidLUT` / :class:`LayerNormOp` — the remaining layer types of
  Algorithm 1 (lines 15–18).
* :class:`TabularAttentionPredictor` — the full hierarchy of tables mirroring
  :class:`repro.models.AttentionPredictor`.
* :func:`tabularize_predictor` — Algorithm 1: layer-wise conversion with
  optional fine-tuning (Eq. 26) against the NN layer outputs.
* :mod:`~repro.tabularization.transitions` — exact code transitions: where a
  table feeds the next quantizer only through elementwise ops, that
  quantizer's codes are looked up per source code tuple instead of encoded.
* :mod:`~repro.tabularization.rowpool` — the row workers a large batch
  ``predict_proba`` spreads its rows over, one BLAS thread each.
"""

from repro.tabularization.attention_kernel import TabularAttention
from repro.tabularization.converter import ConversionReport, tabularize_predictor
from repro.tabularization.finetune import finetune_linear
from repro.tabularization.layernorm_op import LayerNormOp
from repro.tabularization.linear_kernel import TabularLinear
from repro.tabularization.sigmoid_lut import SigmoidLUT
from repro.tabularization.tabular_model import (
    TableConfig,
    TabularAttentionPredictor,
    TabularMSA,
)

__all__ = [
    "TabularAttention",
    "ConversionReport",
    "tabularize_predictor",
    "finetune_linear",
    "LayerNormOp",
    "TabularLinear",
    "SigmoidLUT",
    "TableConfig",
    "TabularAttentionPredictor",
    "TabularMSA",
]

from repro.tabularization.export import (  # noqa: E402
    export_packed,
    import_packed,
    packed_info,
)
from repro.tabularization.fastpath import SingleQueryFastPath  # noqa: E402
from repro.tabularization.serialization import (  # noqa: E402
    FORMAT_VERSION,
    config_fingerprint,
    load_tabular_model,
    save_tabular_model,
)
from repro.tabularization.shm import (  # noqa: E402
    SharedTables,
    attach_artifact,
    attach_state,
    publish_artifact,
    publish_state,
)

__all__ += [
    "FORMAT_VERSION",
    "SingleQueryFastPath",
    "SharedTables",
    "attach_artifact",
    "attach_state",
    "config_fingerprint",
    "load_tabular_model",
    "publish_artifact",
    "publish_state",
    "save_tabular_model",
    "export_packed",
    "import_packed",
    "packed_info",
]
