"""Synthetic LLC memory-access traces standing in for SPEC CPU 2006/2017.

The paper evaluates on ChampSim-extracted LLC traces of eight SPEC apps
(Table IV). Real traces are not redistributable, so this package generates
seeded synthetic traces whose *prediction-relevant* properties match the
paper's per-app statistics: trace length, page-footprint cardinality, delta
cardinality, and the qualitative pattern classes visualized in Fig. 7
(streaming, strided stencil, pointer-chase, irregular).

Users bringing their own traces import them through :mod:`repro.traces.io`
(CSV or ChampSim-style text, gzip-aware).
"""

from repro.traces.generators import (
    InterleavedStreams,
    PointerChasePhase,
    RandomPhase,
    StridedStencilPhase,
    StreamPhase,
    compose_trace,
    phase_shift_trace,
)
from repro.traces.io import (
    iter_accesses,
    iter_chunks,
    load_any,
    load_csv,
    load_text,
    save_csv,
    save_text,
)
from repro.traces.phases import (
    FEATURE_NAMES,
    detect_phases,
    phase_summary,
    phase_transition_matrix,
    window_features,
)
from repro.traces.stats import PAPER_TABLE4, trace_statistics
from repro.traces.trace import MemoryTrace
from repro.traces.workloads import WORKLOAD_NAMES, make_workload

__all__ = [
    "FEATURE_NAMES",
    "detect_phases",
    "phase_summary",
    "phase_transition_matrix",
    "window_features",
    "InterleavedStreams",
    "PointerChasePhase",
    "RandomPhase",
    "StridedStencilPhase",
    "StreamPhase",
    "compose_trace",
    "phase_shift_trace",
    "iter_accesses",
    "iter_chunks",
    "load_any",
    "load_csv",
    "load_text",
    "save_csv",
    "save_text",
    "PAPER_TABLE4",
    "trace_statistics",
    "MemoryTrace",
    "WORKLOAD_NAMES",
    "make_workload",
]
