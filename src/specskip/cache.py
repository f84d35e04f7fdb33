"""Token-level feature cache with staleness provenance.

Every entry records which verification step produced it.  A lookup returns
the one entry at the highest position, the feature the drafter conditions
on, optionally restricted to older steps for the staleness experiments.
The cache is unbounded: desk-scale runs stay in the hundreds of tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheUnderflow, RejectedInput


@dataclass
class CachedFeature:
    position: int
    feature: np.ndarray
    step: int
    origin: str  # "verified" or "post-verified"


@dataclass
class FeatureCache:
    entries: dict[int, CachedFeature] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def update(cache: FeatureCache, positions, features, step: int, origin: str) -> None:
    """Write entries; later writes to a position overwrite (freshest wins)."""
    positions = list(positions)
    features = list(features)
    if len(positions) != len(features):
        raise RejectedInput("positions and features must align")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise RejectedInput("positions must be strictly increasing")
    for pos, feat in zip(positions, features):
        cache.entries[pos] = CachedFeature(position=pos,
                                           feature=np.asarray(feat, dtype=np.float64),
                                           step=step, origin=origin)


def retrieve_latest(cache: FeatureCache) -> CachedFeature:
    """The highest-position entry: the feature the drafter conditions on."""
    return retrieve_with_offset(cache, 1, 0)


def retrieve_with_offset(cache: FeatureCache, count: int,
                         extra_staleness: int) -> CachedFeature:
    """The highest-position entry among those produced at steps no later
    than (latest cached step - extra_staleness).  Fewer than `count` such
    entries is an underflow."""
    if extra_staleness < 0:
        raise RejectedInput("extra staleness must be >= 0")
    if count < 1:
        raise RejectedInput("count must be >= 1")
    if not cache.entries:
        raise CacheUnderflow(count)
    cutoff = max(e.step for e in cache.entries.values()) - extra_staleness
    usable = [e for e in cache.entries.values() if e.step <= cutoff]
    if len(usable) < count:
        raise CacheUnderflow(count - len(usable))
    return max(usable, key=lambda e: e.position)

