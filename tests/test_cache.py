"""Feature cache: provenance-tagged storage and staleness-aware retrieval."""

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
    update(cache, [0, 1], [_feat(0), _feat(1)], step=1, origin="verified")
    update(cache, [2], [_feat(2)], step=2, origin="verified")
    update(cache, [3], [_feat(3)], step=3, origin="verified")
    return cache


class TestUpdate:
    def test_overwrite_keeps_latest_step(self):
        cache = FeatureCache()
        update(cache, [5], [_feat(1)], step=2, origin="verified")
        update(cache, [5], [_feat(2)], step=4, origin="post-verified")
        assert cache.entries[5].step == 4
        assert cache.entries[5].origin == "post-verified"
        assert cache.entries[5].feature[0] == 2.0

    def test_empty_noop(self):
        cache = FeatureCache()
        update(cache, [], [], step=1, origin="verified")
        assert len(cache) == 0

    def test_round_trip(self):
        cache = FeatureCache()
        feats = [_feat(i) for i in range(3)]
        update(cache, [0, 1, 2], feats, step=1, origin="verified")
        assert all(np.array_equal(f, cache.entries[i].feature)
                   for i, f in enumerate(feats))
        assert np.array_equal(retrieve_latest(cache).feature, feats[-1])

    def test_misaligned_rejected(self):
        with pytest.raises(RejectedInput):
            update(FeatureCache(), [0, 1], [_feat(0)], step=1, origin="verified")

    def test_unsorted_positions_rejected(self):
        with pytest.raises(RejectedInput):
            update(FeatureCache(), [1, 0], [_feat(0), _feat(1)], step=1,
                   origin="verified")


class TestRetrieveLatest:
    def test_highest_position_wins(self):
        # Position 3 was written last here, but position wins, not step.
        cache = _seeded_cache()
        update(cache, [1], [_feat(10)], step=4, origin="post-verified")
        got = retrieve_latest(cache)
        assert got.position == 3 and got.step == 3 and got.feature[0] == 3.0

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
        update(cache, [0], [_feat(0)], step=1, origin="verified")
        update(cache, [1], [_feat(1)], step=2, origin="verified")
        update(cache, [2], [_feat(2)], step=3, origin="verified")
        got = retrieve_with_offset(cache, 1, extra_staleness=1)
        assert got.feature[0] == 1.0 and got.step == 2

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_count_underflow_reports_deficit(self, count):
        # Offset 1 leaves the three entries of steps 1 and 2 (positions 0..2).
        cache = _seeded_cache()
        if count > 3:
            with pytest.raises(CacheUnderflow) as exc:
                retrieve_with_offset(cache, count, extra_staleness=1)
            assert exc.value.deficit == count - 3
        else:
            assert retrieve_with_offset(cache, count, extra_staleness=1).position == 2

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

