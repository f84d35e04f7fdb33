"""Token-level feature cache with staleness provenance.

Positions get their features in order, each once, at verification steps
that never go back, and the drafter conditions only on the newest one.  So
the cache keeps one entry per write: the feature at the newest position,
the step that produced it and how many positions have features once it is
written.  A lookup returns the newest entry, optionally restricted to older
steps for the staleness experiments.  The cache is unbounded: desk-scale
runs stay in the hundreds of writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheUnderflow, RejectedInput


@dataclass
class CachedFeature:
    feature: np.ndarray
    step: int
    written: int  # positions with features once this entry is written


@dataclass
class FeatureCache:
    entries: list[CachedFeature] = field(default_factory=list)


def update(cache: FeatureCache, written: int, feature, step: int) -> None:
    """Record that the first `written` positions have features, the newest
    being `feature`, produced at `step`.  A write of no new positions
    writes nothing."""
    last_written, last_step = 0, step
    if cache.entries:
        last_written, last_step = cache.entries[-1].written, cache.entries[-1].step
    if written < last_written or step < last_step:
        raise RejectedInput("a cache write cannot go back in step or position count")
    if written > last_written:
        cache.entries.append(CachedFeature(np.asarray(feature, dtype=np.float64),
                                           step, written))


def retrieve_latest(cache: FeatureCache) -> CachedFeature:
    """The newest entry: the feature the drafter conditions on."""
    return retrieve_with_offset(cache, 1, 0)


def retrieve_with_offset(cache: FeatureCache, count: int,
                         extra_staleness: int) -> CachedFeature:
    """The newest entry produced at a step no later than (latest cached
    step - extra_staleness).  Fewer than `count` positions with features
    at that point is an underflow."""
    if extra_staleness < 0:
        raise RejectedInput("extra staleness must be >= 0")
    if count < 1:
        raise RejectedInput("count must be >= 1")
    if not cache.entries:
        raise CacheUnderflow(count)
    cutoff = cache.entries[-1].step - extra_staleness
    usable = next((e for e in reversed(cache.entries) if e.step <= cutoff), None)
    deficit = count - (usable.written if usable else 0)
    if deficit > 0:
        raise CacheUnderflow(deficit)
    return usable
