"""DART reproduction: attention, distillation, and tabularization for
practical neural-network-based prefetching (IPDPS 2024).

Public API quick map
--------------------
* ``repro.core.DARTPipeline`` — end-to-end Fig. 2 workflow on a trace.
* ``repro.models`` — attention / LSTM predictors (teacher, student, baselines).
* ``repro.distillation`` — training loop and T-Sigmoid knowledge distillation.
* ``repro.tabularization`` — linear/attention kernels, Algorithm 1 converter,
  the hierarchy-of-tables predictor.
* ``repro.prefetch`` — DART, BO, ISB, stream buffer, stride/next-line,
  neural wrappers, the cost model (Eqs. 16-23) and the table configurator.
* ``repro.sim`` — trace-driven LLC + OoO-core simulation with prefetch
  timeliness; detailed L1D/L2/LLC + banked-DRAM hierarchy (LRU or PLRU per
  level); multicore and multi-tenant contention.
* ``repro.runtime`` — online serving engines and the one prefetch throttle
  (``AdmissionController``).
* ``repro.traces`` — synthetic SPEC workload substitutes (Table IV), phase
  detection, trace import/export.
* ``repro.data`` — segmented addresses and delta-bitmap labels.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "data",
    "distillation",
    "models",
    "nn",
    "prefetch",
    "quantization",
    "sim",
    "tabularization",
    "traces",
    "utils",
]
