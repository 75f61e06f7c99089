"""Replacement policies: per-policy behaviour and shared invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.replacement import LRUPolicy, PLRUPolicy, make_policy, policy_names


ALL_NAMES = policy_names()


# ------------------------------------------------------------------ factory
def test_make_policy_every_name():
    for name in ALL_NAMES:
        p = make_policy(name, 4, 4)
        assert p.n_sets == 4 and p.n_ways == 4


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown replacement policy"):
        make_policy("belady", 4, 4)


def test_policy_validation():
    with pytest.raises(ValueError):
        LRUPolicy(0, 4)
    with pytest.raises(ValueError):
        PLRUPolicy(4, 0)


# --------------------------------------------------------------------- LRU
def test_lru_evicts_least_recent():
    p = LRUPolicy(1, 4)
    for w in range(4):
        p.on_fill(0, w)
    p.on_hit(0, 0)  # 0 becomes MRU; LRU is now way 1
    assert p.victim(0) == 1


def test_lru_hit_refreshes():
    p = LRUPolicy(1, 2)
    p.on_fill(0, 0)
    p.on_fill(0, 1)
    p.on_hit(0, 0)
    assert p.victim(0) == 1


# -------------------------------------------------------------------- PLRU
def test_plru_victim_avoids_just_touched_way():
    p = PLRUPolicy(1, 4)
    for w in range(4):
        p.on_fill(0, w)
    for w in range(4):
        p.on_hit(0, w)
        assert p.victim(0) != w


def test_plru_cycles_through_all_ways():
    """Touching the victim each time must visit every way (true PLRU)."""
    p = PLRUPolicy(1, 8)
    seen = set()
    for _ in range(8):
        v = p.victim(0)
        seen.add(v)
        p.on_fill(0, v)
    assert seen == set(range(8))


@pytest.mark.parametrize("ways", [3, 5, 6, 12])
def test_plru_non_pow2_ways(ways):
    """The padded tree serves any way count — victims stay real and cycle."""
    p = PLRUPolicy(1, ways)
    seen = set()
    for _ in range(2 * ways):
        v = p.victim(0)
        assert 0 <= v < ways
        seen.add(v)
        p.on_fill(0, v)
    assert seen == set(range(ways))
    for w in range(ways):
        p.on_hit(0, w)
        assert p.victim(0) != w or ways == 1


def test_plru_pow2_matches_unpadded_tree():
    """Power-of-two geometries must keep the classic tree bit-for-bit."""
    p = PLRUPolicy(2, 4)
    assert p._tree_ways == 4 and p._bits.shape == (2, 3)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_on_invalidate_marks_way_evictable(name):
    """After on_invalidate, the freed way must be the next victim."""
    p = make_policy(name, 2, 4)
    for w in range(4):
        p.on_fill(0, w)
        p.on_hit(0, w)
    p.on_invalidate(0, 1)
    assert p.victim(0) == 1


# -------------------------------------------------------- shared invariants
@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    events=st.lists(
        st.tuples(st.sampled_from(["fill", "hit"]), st.integers(0, 3)),
        max_size=60,
    ),
)
def test_property_victim_always_in_range(name, events):
    p = make_policy(name, 2, 4)
    for kind, way in events:
        if kind == "fill":
            p.on_fill(0, way)
        else:
            p.on_hit(0, way)
    assert 0 <= p.victim(0) < 4
    assert 0 <= p.victim(1) < 4  # untouched set must also be servable


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    ways=st.sampled_from([2, 4, 8]),
)
def test_property_reset_restores_initial_victim(name, ways):
    p = make_policy(name, 2, ways)
    before = p.victim(0)
    for w in range(ways):
        p.on_fill(0, w)
        p.on_hit(0, w)
    p.reset()
    assert p.victim(0) == before


def test_lru_policy_matches_dict_lru_reference():
    """LRUPolicy must agree with the ordered-dict LRU used by the fast cache."""
    rng = np.random.default_rng(0)
    ways = 4
    p = LRUPolicy(1, ways)
    ref: dict[int, None] = {}  # way -> None, insertion-ordered = LRU order
    for w in range(ways):
        p.on_fill(0, w)
        ref[w] = None
    for _ in range(200):
        w = int(rng.integers(ways))
        p.on_hit(0, w)
        del ref[w]
        ref[w] = None
        assert p.victim(0) == next(iter(ref))
