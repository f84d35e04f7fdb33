"""Feature cache: one entry per write, and staleness-aware retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specskip.cache import (FeatureCache, retrieve_latest,
                            retrieve_with_offset, update)
from specskip.errors import CacheUnderflow, RejectedInput


def _feat(x):
    return np.array([float(x), 0.0])


def _seeded_cache():
    # Positions 0..3 produced at steps 1, 1, 2, 3.
    cache = FeatureCache()
    update(cache, 2, _feat(1), step=1)
    update(cache, 3, _feat(2), step=2)
    update(cache, 4, _feat(3), step=3)
    return cache


class TestUpdate:
    def test_empty_noop(self):
        cache = FeatureCache()
        update(cache, 0, _feat(0), step=1)
        assert not cache.entries
        update(cache, 2, _feat(1), step=1)
        update(cache, 2, _feat(9), step=4)
        assert len(cache.entries) == 1 and retrieve_latest(cache).step == 1

    def test_round_trip(self):
        cache = FeatureCache()
        update(cache, 3, _feat(2), step=1)
        got = retrieve_latest(cache)
        assert np.array_equal(got.feature, _feat(2))
        assert got.step == 1 and got.written == 3

    @pytest.mark.parametrize("written, step", [(3, 3), (5, 2)])
    def test_step_or_count_going_back_rejected(self, written, step):
        cache = FeatureCache()
        update(cache, 4, _feat(3), step=3)
        with pytest.raises(RejectedInput):
            update(cache, written, _feat(0), step=step)


class TestRetrieveLatest:
    def test_underflow_reports_deficit(self):
        with pytest.raises(CacheUnderflow) as exc:
            retrieve_latest(FeatureCache())
        assert exc.value.deficit == 1


class TestRetrieveWithOffset:
    def test_zero_offset_is_retrieve_latest(self):
        cache = _seeded_cache()
        assert retrieve_with_offset(cache, 1, extra_staleness=0) is retrieve_latest(cache)

    def test_hand_filtering(self):
        cache = FeatureCache()
        update(cache, 1, _feat(0), step=1)
        update(cache, 2, _feat(1), step=2)
        update(cache, 3, _feat(2), step=3)
        got = retrieve_with_offset(cache, 1, extra_staleness=1)
        assert got.feature[0] == 1.0 and got.step == 2

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_count_underflow_reports_deficit(self, count):
        # Offset 1 leaves the writes of steps 1 and 2 (positions 0..2).
        cache = _seeded_cache()
        if count > 3:
            with pytest.raises(CacheUnderflow) as exc:
                retrieve_with_offset(cache, count, extra_staleness=1)
            assert exc.value.deficit == count - 3
        else:
            got = retrieve_with_offset(cache, count, extra_staleness=1)
            assert got.written == 3 and got.feature[0] == 2.0

    def test_offset_beyond_history_underflows(self):
        with pytest.raises(CacheUnderflow):
            retrieve_with_offset(_seeded_cache(), 1, extra_staleness=5)

    def test_empty_cache_underflows(self):
        with pytest.raises(CacheUnderflow) as exc:
            retrieve_with_offset(FeatureCache(), 2, extra_staleness=0)
        assert exc.value.deficit == 2

    def test_zero_count_rejected(self):
        with pytest.raises(RejectedInput):
            retrieve_with_offset(_seeded_cache(), 0, extra_staleness=0)

    def test_negative_offset_rejected(self):
        with pytest.raises(RejectedInput):
            retrieve_with_offset(_seeded_cache(), 1, extra_staleness=-1)


class _PerPositionCache:
    """Reference model: one (feature, step) per position, the highest usable
    position wins, and fewer than `count` usable positions underflow."""

    def __init__(self):
        self.entries: dict[int, tuple[np.ndarray, int]] = {}

    def write(self, positions, step):
        for pos in positions:
            self.entries[pos] = (_feat(pos), step)

    def retrieve(self, count, extra_staleness):
        if not self.entries:
            raise CacheUnderflow(count)
        cutoff = max(step for _, step in self.entries.values()) - extra_staleness
        usable = [pos for pos, (_, step) in self.entries.items() if step <= cutoff]
        if len(usable) < count:
            raise CacheUnderflow(count - len(usable))
        return self.entries[max(usable)][0]


@given(groups=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                       min_size=1, max_size=8),
       count=st.integers(1, 12), extra_staleness=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_matches_per_position_reference(groups, count, extra_staleness):
    # Contiguous write groups with nondecreasing steps, as the engine writes;
    # the cache keeps only each group's newest feature.
    cache, ref = FeatureCache(), _PerPositionCache()
    written, step = 0, 0
    for size, step_gain in groups:
        step += step_gain
        ref.write(range(written, written + size), step)
        written += size
        update(cache, written, _feat(written - 1), step=step)
    try:
        expected = ref.retrieve(count, extra_staleness)
    except CacheUnderflow as exc:
        with pytest.raises(CacheUnderflow) as got:
            retrieve_with_offset(cache, count, extra_staleness)
        assert got.value.deficit == exc.deficit
    else:
        got = retrieve_with_offset(cache, count, extra_staleness).feature
        assert np.array_equal(got, expected)
