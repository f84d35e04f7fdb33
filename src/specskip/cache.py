"""Token-level feature cache with staleness provenance.

The drafter conditions on one feature, so the cache keeps one per write:
the prompt's at prefill (step 0), then each verify's at its iteration.  A
lookup returns the newest feature, or for the staleness experiments the
newest written at least some steps before the newest write.  The cache is
unbounded: desk-scale runs stay in the hundreds of writes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheUnderflow, RejectedInput


@dataclass
class FeatureCache:
    steps: list[int] = field(default_factory=list)             # increasing
    features: list[np.ndarray] = field(default_factory=list)   # one per step


def update(cache: FeatureCache, feature: np.ndarray, step: int) -> None:
    """Record `feature`, written at `step`, which must follow every step
    written before."""
    if cache.steps and step <= cache.steps[-1]:
        raise RejectedInput(f"a cache write at step {step} does not follow "
                            f"step {cache.steps[-1]}")
    cache.steps.append(step)
    cache.features.append(feature)


def retrieve_latest(cache: FeatureCache) -> np.ndarray:
    """The newest feature: the one the drafter conditions on."""
    return retrieve_with_offset(cache, 0)


def retrieve_with_offset(cache: FeatureCache, extra_staleness: int) -> np.ndarray:
    """The feature of the newest write at or before (newest step -
    extra_staleness); with none, the lookup underflows."""
    if extra_staleness < 0:
        raise RejectedInput("extra staleness must be >= 0")
    steps = cache.steps
    found = bisect_right(steps, steps[-1] - extra_staleness) if steps else 0
    if not found:
        raise CacheUnderflow(f"no cached feature at extra staleness {extra_staleness}")
    return cache.features[found - 1]
