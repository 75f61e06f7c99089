"""Prefetchers and prefetcher design tooling.

Baselines: Best-Offset (BO), Irregular Stream Buffer (ISB), classic stride and
next-line prefetchers, and neural prefetchers (TransFetch-like attention,
Voyager-like LSTM) with the paper's latency/storage figures. DART itself wraps
the tabular predictor. The cost model (Eqs. 16–23) and the table configurator
(Sec. VI-C) live here too, since they answer prefetcher design questions.

The classic stream buffer (:class:`StreamPrefetcher`) drives the multicore
goldens and the report's shootout; the timeliness analysis wraps any of
them. Degree throttling is not a prefetcher concern here: the one throttle
is the serving-side :class:`repro.runtime.AdmissionController`.
"""

from repro.prefetch.analysis import TimelinessReport, analyze_timeliness, compare_timeliness
from repro.prefetch.base import Prefetcher, PrecomputedPrefetcher, SequentialPrefetcher
from repro.prefetch.bo import BestOffsetPrefetcher
from repro.prefetch.streamer import StreamPrefetcher
from repro.prefetch.cost_model import (
    attention_kernel_latency,
    attention_kernel_ops,
    attention_kernel_storage_bits,
    linear_kernel_latency,
    linear_kernel_ops,
    linear_kernel_storage_bits,
    nn_systolic_latency,
    nn_ops,
    nn_storage_bits,
    tabular_model_latency,
    tabular_model_ops,
    tabular_model_storage_bits,
)
from repro.prefetch.dart import DARTPrefetcher
from repro.prefetch.isb import ISBPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.nn_prefetcher import NeuralPrefetcher, decode_bitmap_probs, model_prefetch_lists
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.table_configurator import (
    CandidateConfig,
    TableConfigurator,
    configure_dart,
)

__all__ = [
    "Prefetcher",
    "PrecomputedPrefetcher",
    "SequentialPrefetcher",
    "decode_bitmap_probs",
    "model_prefetch_lists",
    "BestOffsetPrefetcher",
    "attention_kernel_latency",
    "attention_kernel_ops",
    "attention_kernel_storage_bits",
    "linear_kernel_latency",
    "linear_kernel_ops",
    "linear_kernel_storage_bits",
    "nn_systolic_latency",
    "nn_ops",
    "nn_storage_bits",
    "tabular_model_latency",
    "tabular_model_ops",
    "tabular_model_storage_bits",
    "DARTPrefetcher",
    "TimelinessReport",
    "analyze_timeliness",
    "compare_timeliness",
    "ISBPrefetcher",
    "StreamPrefetcher",
    "NextLinePrefetcher",
    "NeuralPrefetcher",
    "StridePrefetcher",
    "CandidateConfig",
    "TableConfigurator",
    "configure_dart",
]
