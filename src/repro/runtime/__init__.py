"""Online, chunked prefetch serving runtime.

The batch pipeline (``prefetch_lists``) answers questions about whole traces;
this package serves a *live* access stream with bounded latency and memory:

* :mod:`repro.runtime.streaming` — the :class:`StreamingPrefetcher` protocol
  and the adapters between the batch and online worlds;
* :mod:`repro.runtime.microbatch` — micro-batched vectorized serving for the
  learned predictors (DART tables and the NN baselines): per-tenant
  :class:`StreamState` + shared :class:`_FlushPath`, and the single-stream
  engine :class:`MicroBatcher` (a one-stream ``MultiStreamEngine``);
* :mod:`repro.runtime.multistream` — the one in-process engine: N concurrent
  streams sharing one model, with cross-stream micro-batching (one predict
  per flush across streams);
* :mod:`repro.runtime.sharded` — N streams across W OS worker processes,
  each a ``MultiStreamEngine`` over tables mapped zero-copy from shared
  memory (:mod:`repro.tabularization.shm`); versioned swap broadcast, named
  :class:`ShardFailure` on worker death, and **elastic** serving: stream
  admission/close at any point, bit-identical live migration via the
  stream-state snapshot codec, and live fleet rescale;
* :mod:`repro.runtime.artifact` — versioned model artifacts, the unit the
  engines hold and hot-swap (``swap_model`` drains at a flush boundary with
  zero dropped emissions);
* :mod:`repro.runtime.adaptation` — the drift-aware loop: stream monitor
  (windowed accuracy/coverage + phase features), adaptation controller
  (drift -> re-fit -> hot swap), and the ``AdaptiveStream`` wrapper that
  ``DARTPrefetcher.stream(adapt=...)`` returns;
* :mod:`repro.runtime.engine` — the serving loop with throughput / latency
  accounting;
* :mod:`repro.runtime.throttle` — accuracy-driven admission control for
  multi-tenant serving: a per-tenant :class:`StreamMonitor` feeds an
  :class:`AdmissionController` whose hysteresis state machine (full →
  degree-capped → drop-all) throttles low-accuracy tenants and restores
  them on recovery; :meth:`AdmissionController.wrap` turns any handle into
  a :class:`ThrottledStream`;
* :mod:`repro.runtime.record` / :mod:`repro.runtime.replay` — session
  record/replay: a :class:`SessionRecorder` captures any live session
  (accesses, emissions, control-plane ops, model digests) into a versioned
  ``DARTTRC1`` trace, and :func:`replay` re-executes it on a fresh engine of
  any column under declarative behavioral contracts (exactly-once ordering,
  bit-identity, accuracy/coverage floors, pause bounds), raising a named
  :class:`ContractViolation` on the first broken one.

Entry points: ``prefetcher.stream()`` on any prefetcher,
``prefetcher.multistream()`` / ``prefetcher.sharded()`` on the learned ones,
``as_streaming`` to
coerce, ``BatchAdapter`` to go back, ``serve`` to drive a stream over a
trace, chunk iterator, or live feed, and ``serve_interleaved`` to drive N
streams round-robin.
"""

from repro.runtime.adaptation import (
    AdaptationConfig,
    AdaptationController,
    AdaptiveStream,
    StreamMonitor,
    nn_refit,
    score_prefetch_lists,
    tabular_refit,
)
from repro.runtime.artifact import ModelArtifact
from repro.runtime.engine import StreamLifecycle, StreamStats, access_pairs, serve
from repro.runtime.microbatch import (
    MicroBatcher,
    StreamState,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.runtime.multistream import MultiStreamEngine, StreamHandle, serve_interleaved
from repro.runtime.record import (
    SessionRecorder,
    SessionTrace,
    TRACE_MAGIC,
)
from repro.runtime.replay import ContractViolation, ReplayReport, replay
from repro.runtime.sharded import ShardedEngine, ShardFailure, ShardHandle
from repro.runtime.throttle import (
    AdmissionController,
    TenantThrottle,
    ThrottleConfig,
    ThrottledStream,
)
from repro.runtime.streaming import (
    BatchAdapter,
    Emission,
    SequentialStreamAdapter,
    StreamingPrefetcher,
    as_streaming,
)

__all__ = [
    "AdaptationConfig",
    "AdaptationController",
    "AdaptiveStream",
    "AdmissionController",
    "TenantThrottle",
    "ThrottleConfig",
    "ThrottledStream",
    "BatchAdapter",
    "ContractViolation",
    "Emission",
    "MicroBatcher",
    "ModelArtifact",
    "MultiStreamEngine",
    "ReplayReport",
    "SequentialStreamAdapter",
    "SessionRecorder",
    "SessionTrace",
    "ShardFailure",
    "ShardHandle",
    "ShardedEngine",
    "StreamHandle",
    "StreamLifecycle",
    "StreamMonitor",
    "StreamState",
    "StreamStats",
    "StreamingPrefetcher",
    "TRACE_MAGIC",
    "access_pairs",
    "as_streaming",
    "nn_refit",
    "replay",
    "score_prefetch_lists",
    "serve",
    "serve_interleaved",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
    "tabular_refit",
]
