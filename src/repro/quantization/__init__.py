"""Product quantization substrate (paper Sec. II-B).

Provides prototype learning (k-means or Maddness-style hash trees), vector
encoding, and precomputed dot-product tables — the machinery under the
tabularization kernels in :mod:`repro.tabularization`.
"""

from repro.quantization.bitwidth import (
    apply_bitwidth,
    dequantize_array,
    fake_quantize,
    quantization_snr_db,
    quantize_array,
)
from repro.quantization.encoders import HashTreeEncoder
from repro.quantization.kmeans import kmeans_fit
from repro.quantization.pq import (
    ProductQuantizer,
    build_weight_table,
    lookup_aggregate,
    pairwise_prototype_table,
)

__all__ = [
    "apply_bitwidth",
    "dequantize_array",
    "fake_quantize",
    "quantization_snr_db",
    "quantize_array",
    "HashTreeEncoder",
    "kmeans_fit",
    "ProductQuantizer",
    "build_weight_table",
    "lookup_aggregate",
    "pairwise_prototype_table",
]
