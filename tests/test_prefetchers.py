"""Rule-based prefetchers: BO, ISB, stride, next-line, streamer."""

import numpy as np
import pytest

from repro.prefetch import (
    BestOffsetPrefetcher,
    ISBPrefetcher,
    NextLinePrefetcher,
    PrecomputedPrefetcher,
    StreamPrefetcher,
    StridePrefetcher,
)
from repro.prefetch.bo import michaud_offsets
from repro.traces.generators import (
    PointerChasePhase,
    StreamPhase,
    compose_trace,
)
from repro.traces.trace import MemoryTrace


def _stream_trace(n=2000, stride=3):
    return compose_trace([(StreamPhase(0, 10**6, stride_blocks=stride), n)], seed=0)


def test_michaud_offsets_are_235_smooth():
    offs = michaud_offsets(limit=256, negatives=False)
    for o in offs:
        m = o
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert m == 1
    assert 1 in offs and 256 in offs and 7 not in offs
    assert len(offs) == 52  # Michaud's published count for <=256


def test_bo_learns_stream_stride():
    # SCORE_MAX=31 needs ~31 passes over ~104 offsets => ~3.3K accesses of
    # warmup before the first tournament concludes.
    tr = _stream_trace(n=8000, stride=4)
    bo = BestOffsetPrefetcher()
    lists = bo.prefetch_lists(tr)
    ba = tr.block_addrs
    # After convergence the chosen offset must be a (timely) multiple of the
    # stride: the prefetched block is an actual upcoming demand block.
    aligned = total = 0
    for i in range(4500, 6000):
        for b in lists[i]:
            total += 1
            off = b - int(ba[i])
            aligned += off > 0 and off % 4 == 0
    assert total > 1000
    assert aligned / total > 0.9


def test_bo_turns_off_on_random():
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 1 << 40, size=4000) & ~np.int64(63)
    tr = MemoryTrace(np.arange(1, 4001) * 10, np.zeros(4000, dtype=np.int64), addrs)
    # Short tournaments (round_max=10) so the bad-score rule can trigger
    # within this trace (a full Michaud phase is ~100 * |offsets| accesses).
    bo = BestOffsetPrefetcher(round_max=10)
    lists = bo.prefetch_lists(tr)
    # With no learnable offset, BO's bad-score rule should disable prefetching
    # for most of the trace after the first tournament.
    empty_frac = sum(1 for l in lists[2000:] if not l) / 2000
    assert empty_frac > 0.5


def _max_reference_lists(bo, blocks):
    """BO with the winner taken by ``max(scores, key=...)`` on every access.

    Also returns, per concluded tournament, how many offsets shared the top
    score and what that score was, so a fuzz can show it reached ties and
    all-zero rounds.
    """
    scores = dict.fromkeys(bo.offsets, 0)
    test_idx = rounds = 0
    best, on = 1, True
    rr, pending, out, decisions = {}, [], [], []
    for index, x in enumerate(blocks):
        while pending and pending[0][0] <= index:
            _, blk = pending.pop(0)
            rr.pop(blk, None)
            rr[blk] = None
            if len(rr) > bo.rr_size:
                rr.pop(next(iter(rr)))
        off = bo.offsets[test_idx]
        if (x - off) in rr:
            scores[off] += 1
        test_idx += 1
        if test_idx == len(bo.offsets):
            test_idx = 0
            rounds += 1
        winner = max(scores, key=lambda o: scores[o])
        if scores[winner] >= bo.score_max or rounds >= bo.round_max:
            top = scores[winner]
            decisions.append((sum(v == top for v in scores.values()), top))
            best, on = winner, top > bo.bad_score
            scores = dict.fromkeys(bo.offsets, 0)
            rounds = 0
        out.append([x + best * d for d in range(1, bo.degree + 1)] if on else [])
        pending.append((index + bo.rr_delay, x))
    return out, decisions


def _fuzzed_walk(rng, n):
    """Strided runs (several strides, both directions) between random jumps
    and stretches of unrelated blocks, where no offset scores."""
    blocks, x = [], 1 << 20
    while len(blocks) < n:
        if rng.random() < 0.25:
            blocks += [int(b) for b in rng.integers(1 << 30, 1 << 40, size=rng.integers(200, 1200))]
            continue
        stride = int(rng.choice([1, 2, 3, 4, 6, -1, -2, -5]))
        for _ in range(int(rng.integers(20, 400))):
            x += stride
            blocks.append(x)
        x += int(rng.integers(-4096, 4096))
    return blocks[:n]


@pytest.mark.parametrize("seed", range(6))
def test_bo_running_leader_matches_max_reference(seed):
    rng = np.random.default_rng(seed)
    bo = BestOffsetPrefetcher(score_max=int(rng.integers(2, 8)),
                              round_max=int(rng.integers(1, 4)), degree=int(rng.integers(1, 3)))
    blocks = _fuzzed_walk(rng, 6000)
    want, decisions = _max_reference_lists(bo, blocks)
    assert any(ties > 1 and top > 0 for ties, top in decisions), "no tied tournament"
    assert any(top == 0 for _, top in decisions), "no all-zero tournament"
    state = bo.reset_state()
    got = []
    for i, x in enumerate(blocks):
        got.append(bo.step(state, 0, x, i))
        top = max(state.scores)
        assert (state.lead, state.lead_score) == (state.scores.index(top), top)
    assert got == want
    trace = MemoryTrace(np.arange(1, len(blocks) + 1), np.zeros(len(blocks), dtype=np.int64),
                        np.asarray(blocks, dtype=np.int64) << 6)
    assert bo.prefetch_lists(trace) == want


@pytest.mark.parametrize("late_first", [False, True])
def test_bo_tied_tournament_goes_to_the_earlier_offset(late_first):
    """Offsets 2 and 3 (list positions 1 and 2) each score once and nothing
    else scores, so the tournament ties; the earlier offset in the list
    must win whichever of the two scored first."""
    bo = BestOffsetPrefetcher(round_max=2, bad_score=0, rr_delay=0)
    n = len(bo.offsets)
    assert bo.offsets[1:3] == [2, 3]
    # Unrelated blocks: no two are within 256 of each other.
    blocks = [10**9 + 10**4 * i for i in range(2 * n)]
    # Position 1 tests offset 2 and position 2 offset 3. With no RR delay
    # the previous access is already in the RR table, so a block 2 (or 3)
    # above it scores that offset. ``late_first`` makes offset 3 score in
    # the first round and offset 2 in the second.
    score_2, score_3 = (n + 1, 2) if late_first else (1, n + 2)
    blocks[score_2] = blocks[score_2 - 1] + 2
    blocks[score_3] = blocks[score_3 - 1] + 3
    state = bo.reset_state()
    out = [bo.step(state, 0, x, i) for i, x in enumerate(blocks + [5 * 10**9])]
    assert state.best_offset == 2 and state.prefetch_on
    assert out[-1] == [5 * 10**9 + 2]


def test_isb_learns_temporal_stream():
    ph = PointerChasePhase(0, 64, 10_000, pc=0x10, seed=1)
    tr = compose_trace([(ph, 640)], seed=0)
    isb = ISBPrefetcher(degree=1)
    lists = isb.prefetch_lists(tr)
    ba = tr.block_addrs
    correct = sum(
        1 for i in range(64, 639) if lists[i] and lists[i][0] == ba[i + 1]
    )
    assert correct > 400


def test_isb_needs_pc_locality():
    """Same addresses under rotating PCs must not form streams."""
    ph = PointerChasePhase(0, 32, 1000, seed=2)
    tr = compose_trace([(ph, 320)], seed=0)
    # scramble PCs so consecutive pairs never share one
    tr = MemoryTrace(tr.instr_ids, np.arange(320, dtype=np.int64), tr.addrs, tr.name)
    isb = ISBPrefetcher()
    lists = isb.prefetch_lists(tr)
    assert sum(len(l) for l in lists) == 0


def test_stride_prefetcher_confirms_then_fires():
    tr = _stream_trace(n=100, stride=2)
    sp = StridePrefetcher(degree=2)
    lists = sp.prefetch_lists(tr)
    assert lists[0] == [] and lists[1] == []  # needs confirmation
    ba = tr.block_addrs
    assert lists[10] == [int(ba[10]) + 2, int(ba[10]) + 4]


def test_stride_prefetcher_resets_on_stride_change():
    addrs = np.array([0, 2, 4, 6, 100, 107, 114], dtype=np.int64) * 64
    tr = MemoryTrace(np.arange(1, 8) * 10, np.zeros(7, dtype=np.int64), addrs)
    sp = StridePrefetcher()
    lists = sp.prefetch_lists(tr)
    assert lists[4] == []  # stride break: 6->100
    assert lists[6] == [114 + 7, 114 + 14]  # re-confirmed stride 7


def test_next_line():
    tr = _stream_trace(n=10, stride=1)
    nl = NextLinePrefetcher(degree=3)
    lists = nl.prefetch_lists(tr)
    ba = tr.block_addrs
    assert lists[0] == [int(ba[0]) + 1, int(ba[0]) + 2, int(ba[0]) + 3]


def test_precomputed_wrapper_validates_length():
    tr = _stream_trace(n=10)
    pf = PrecomputedPrefetcher([[1]] * 10, name="x", latency_cycles=5)
    assert pf.prefetch_lists(tr) == [[1]] * 10
    with pytest.raises(ValueError):
        PrecomputedPrefetcher([[1]] * 9).prefetch_lists(tr)


def test_describe_reports_table9_fields():
    bo = BestOffsetPrefetcher()
    d = bo.describe()
    assert d["name"] == "BO" and d["latency_cycles"] == 60
    assert ISBPrefetcher().describe()["latency_cycles"] == 30


# ---------------------------------------------------------------- Streamer
def _block_trace(blocks):
    blocks = np.asarray(blocks, dtype=np.int64)
    n = len(blocks)
    return MemoryTrace(np.arange(1, n + 1) * 10, np.zeros(n, dtype=np.int64), blocks << 6)


def _future_hit_rate(trace, lists, horizon):
    """Fraction of predictions that appear in the next `horizon` accesses."""
    blocks = trace.block_addrs
    hits = total = 0
    for i, lst in enumerate(lists):
        future = set(int(b) for b in blocks[i + 1 : i + 1 + horizon])
        for p in lst:
            total += 1
            hits += p in future
    return hits / total if total else 0.0


def test_streamer_follows_ascending_stream():
    tr = _block_trace(range(0, 400))
    lists = StreamPrefetcher(degree=4).prefetch_lists(tr)
    assert _future_hit_rate(tr, lists, horizon=16) > 0.9
    assert sum(map(len, lists)) > 300


def test_streamer_follows_descending_stream():
    tr = _block_trace(range(4000, 3600, -1))
    lists = StreamPrefetcher(degree=4).prefetch_lists(tr)
    assert _future_hit_rate(tr, lists, horizon=16) > 0.85


def test_streamer_needs_confirmation():
    # too short to confirm with confirm=4
    lists = StreamPrefetcher(confirm=4).prefetch_lists(_block_trace([0, 1, 2]))
    assert not any(lists)


def test_streamer_quiet_on_random():
    rng = np.random.default_rng(3)
    lists = StreamPrefetcher().prefetch_lists(_block_trace(rng.integers(0, 1 << 30, size=500)))
    assert sum(map(len, lists)) < 50
