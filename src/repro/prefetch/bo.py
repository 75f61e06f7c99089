"""Best-Offset (BO) hardware prefetcher [Michaud, HPCA 2016].

BO learns a single best prefetch *offset* by a scoring tournament:

* A **recent-requests (RR) table** remembers base addresses ``X - O`` of lines
  ``X`` that recently completed (modelled here with a fixed insertion delay in
  accesses, standing in for the memory round-trip).
* Each learning round walks a fixed offset list; testing offset ``O`` on a
  trigger ``X`` scores a point if ``X - O`` is in the RR table (i.e. a
  prefetch with offset ``O`` issued back then would have been timely).
* When an offset reaches ``SCORE_MAX`` or ``ROUND_MAX`` rounds elapse, the
  winner becomes the prefetch offset; a winner scoring below ``BAD_SCORE``
  turns prefetch off for the next round (BO's off state).

The offset list is Michaud's: positive offsets up to 256 with prime factors
in {2, 3, 5}, here extended with their negatives (covers descending streams).
"""

from __future__ import annotations


from repro.prefetch.base import SequentialPrefetcher


def michaud_offsets(limit: int = 256, negatives: bool = True) -> list[int]:
    """Offsets in [1, limit] whose prime factors are all in {2, 3, 5}."""
    offs = []
    for n in range(1, limit + 1):
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            offs.append(n)
    if negatives:
        offs = offs + [-o for o in offs]
    return offs


class _BOState:
    """Tournament and recent-requests state (one instance per replay/stream).

    ``scores`` is per offset-list position. ``lead``/``lead_score`` track the
    tournament's current argmax the way ``max(scores)`` would pick it: the
    highest score, the earliest offset among equals.
    """

    __slots__ = ("scores", "lead", "lead_score", "test_idx", "rounds", "best_offset",
                 "prefetch_on", "rr", "pending")

    def __init__(self, offsets: list[int]):
        self.scores = [0] * len(offsets)
        self.lead = 0
        self.lead_score = 0
        self.test_idx = 0  # which offset the tournament is currently testing
        self.rounds = 0
        self.best_offset = 1  # initial guess: next-line
        self.prefetch_on = True
        self.rr: dict[int, None] = {}  # insertion-ordered set (dict keys)
        self.pending: list[tuple[int, int]] = []  # (due_index, block) awaiting RR fill


class BestOffsetPrefetcher(SequentialPrefetcher):
    """Best-Offset prefetcher; paper Table IX: ~4 KB state, ≈60-cycle latency."""

    name = "BO"
    latency_cycles = 60
    storage_bytes = 4096.0

    def __init__(
        self,
        score_max: int = 31,
        round_max: int = 100,
        bad_score: int = 1,
        rr_size: int = 256,
        rr_delay: int = 8,
        degree: int = 1,
    ):
        self.offsets = michaud_offsets()
        self.score_max = int(score_max)
        self.round_max = int(round_max)
        self.bad_score = int(bad_score)
        self.rr_size = int(rr_size)
        #: accesses between a request and its RR insertion (memory round-trip)
        self.rr_delay = int(rr_delay)
        self.degree = int(degree)

    def reset_state(self) -> _BOState:
        return _BOState(self.offsets)

    def step(self, state: _BOState, pc: int, block: int, index: int) -> list[int]:
        x = block
        rr = state.rr
        # Complete delayed RR insertions.
        while state.pending and state.pending[0][0] <= index:
            _, blk = state.pending.pop(0)
            if blk in rr:
                del rr[blk]
            rr[blk] = None
            if len(rr) > self.rr_size:
                rr.pop(next(iter(rr)))
        # Learning step: test the current offset against this trigger. Only
        # this offset's score moves, so it alone can take the lead.
        i = state.test_idx
        if (x - self.offsets[i]) in rr:
            score = state.scores[i] = state.scores[i] + 1
            if score > state.lead_score or (score == state.lead_score and i < state.lead):
                state.lead, state.lead_score = i, score
        state.test_idx += 1
        if state.test_idx == len(self.offsets):
            state.test_idx = 0
            state.rounds += 1
        if state.lead_score >= self.score_max or state.rounds >= self.round_max:
            state.best_offset = self.offsets[state.lead]
            state.prefetch_on = state.lead_score > self.bad_score
            state.scores = [0] * len(self.offsets)
            state.lead = state.lead_score = 0
            state.rounds = 0
        # Issue prefetches with the current best offset.
        out: list[int] = []
        if state.prefetch_on:
            out = [x + state.best_offset * d for d in range(1, self.degree + 1)]
        state.pending.append((index + self.rr_delay, x))
        return out
