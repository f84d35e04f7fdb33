"""Feature cache: one feature per write, looked up by step."""

from itertools import accumulate

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
    # The prompt's feature at step 0, then verifies at steps 1, 2 and 4
    # (step 3 was a skip, which writes nothing).
    cache = FeatureCache()
    for step in (0, 1, 2, 4):
        update(cache, _feat(step), step=step)
    return cache


class TestUpdate:
    def test_round_trip(self):
        cache = FeatureCache()
        update(cache, _feat(2), step=1)
        assert np.array_equal(retrieve_latest(cache), _feat(2))
        assert cache.steps == [1]

    @pytest.mark.parametrize("step", [3, 2])
    def test_step_not_increasing_rejected(self, step):
        cache = FeatureCache()
        update(cache, _feat(3), step=3)
        with pytest.raises(RejectedInput, match=f"step {step} does not follow step 3"):
            update(cache, _feat(0), step=step)
        assert cache.steps == [3]


class TestRetrieveLatest:
    def test_newest_write(self):
        assert retrieve_latest(_seeded_cache())[0] == 4.0

    def test_empty_cache_underflows(self):
        with pytest.raises(CacheUnderflow):
            retrieve_latest(FeatureCache())


class TestRetrieveWithOffset:
    def test_zero_offset_is_retrieve_latest(self):
        cache = _seeded_cache()
        assert retrieve_with_offset(cache, extra_staleness=0) is retrieve_latest(cache)

    def test_hand_filtering(self):
        # Cutoffs 4 - 1 = 3 and 4 - 2 = 2 both find step 2's write; 4 - 3
        # finds step 1's and 4 - 4 the prompt's.
        cache = _seeded_cache()
        got = [retrieve_with_offset(cache, s)[0] for s in (1, 2, 3, 4)]
        assert got == [2.0, 2.0, 1.0, 0.0]

    def test_offset_beyond_history_underflows(self):
        with pytest.raises(CacheUnderflow, match="extra staleness 5"):
            retrieve_with_offset(_seeded_cache(), extra_staleness=5)

    def test_empty_cache_underflows(self):
        with pytest.raises(CacheUnderflow):
            retrieve_with_offset(FeatureCache(), extra_staleness=0)

    def test_negative_offset_rejected(self):
        with pytest.raises(RejectedInput):
            retrieve_with_offset(_seeded_cache(), extra_staleness=-1)


@given(gains=st.lists(st.integers(1, 3), min_size=1, max_size=8),
       extra_staleness=st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_matches_linear_scan_reference(gains, extra_staleness):
    # Increasing write steps from 0, as the engine writes: the prefill, then
    # verifies separated by runs of skips.
    cache, steps = FeatureCache(), list(accumulate(gains, initial=0))
    for step in steps:
        update(cache, _feat(step), step=step)
    usable = [s for s in steps if s <= steps[-1] - extra_staleness]
    if not usable:
        with pytest.raises(CacheUnderflow):
            retrieve_with_offset(cache, extra_staleness)
    else:
        assert retrieve_with_offset(cache, extra_staleness)[0] == usable[-1]
