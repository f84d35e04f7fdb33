"""Per-iteration skip-versus-verify scheduling.

Two policies besides never-skip: a fixed interval (every i-th step skips)
and a dynamic rule that skips when the candidate paths of the current tree
are mutually similar enough.  All policies share the hard guard that a skip
forces the next step to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

# cosine is unused here, but bench/tracing.py wraps specskip.schedule.cosine
# by name.
from .core import EmbeddingCodebook, cosine  # noqa: F401
from .errors import RejectedInput
from .tree import TokenPath

if TYPE_CHECKING:
    from .engine import EngineConfig

# A bound on the p99 of |stride-1 - stride-2| path similarity per
# default-config tree.  Measured over 10,000 trees (runs 0-9999): mean 0.028,
# p99 0.101, max 0.236; over each 1,000-tree window the p99 lay in
# 0.086-0.107.  See sample_similarity_gaps in the harness module and the repo
# README.
STRIDE2_SIMILARITY_TOLERANCE = 0.2


class PathSimilarity(NamedTuple):
    value: float
    degenerate: bool  # fewer than two retained paths; value is the sentinel 1.0


@dataclass
class SkipPolicy:
    """One run's scheduling state over the config whose policy, interval,
    threshold, alpha and stride it reads (``EngineConfig.validate`` checks
    them)."""

    config: EngineConfig
    verified_since_skip: int = 0  # 0 on the first step and after a skip
    last_similarity: float | None = None


def decay_weights(alpha: float, length: int) -> np.ndarray:
    """Exponentially decayed position weights, normalized to sum to 1."""
    if alpha <= 0.0:
        raise RejectedInput("alpha must be positive")
    if length < 1:
        raise RejectedInput("need at least one position")
    raw = alpha ** np.arange(length, dtype=np.float64)
    return raw / raw.sum()


def path_similarity(paths: list[TokenPath], codebook: EmbeddingCodebook,
                    alpha: float, stride: int = 1) -> PathSimilarity:
    """Decay-weighted mean pairwise cosine of token embeddings per depth.

    The stride down-samples the path list (every stride-th path from the
    first); depth runs to the shortest retained path.  A lone retained path
    is trivially self-consistent: sentinel 1.0, flagged degenerate.

    With the n retained paths' unit embeddings u_1..u_n at one level, the
    mean over the n(n-1)/2 pairs of u_i . u_j is computed in closed form as
    (||sum_i u_i||^2 - n) / (n(n-1)), since ||sum u_i||^2 = n + 2 sum_{i<j}
    u_i . u_j.  It agrees with the pair loop to rounding (about 1e-15).
    """
    if stride < 1:
        raise RejectedInput("stride must be >= 1")
    retained = paths[::stride]
    n = len(retained)
    if n < 2:
        return PathSimilarity(1.0, True)
    depth = min(len(p) for p in retained)
    weights = decay_weights(alpha, depth)
    tokens = np.array([p.tokens[:depth] for p in retained])      # (n, depth)
    total = codebook.unit(tokens).sum(axis=0)                    # (depth, dim)
    means = (np.einsum("ld,ld->l", total, total) - n) / (n * (n - 1))
    return PathSimilarity(float(np.clip(weights @ means, -1.0, 1.0)), False)


def decide(policy: SkipPolicy, paths: list[TokenPath],
           codebook: EmbeddingCodebook) -> bool:
    """True means skip verification this step.  Mutates policy state; a skip
    always forces the next call to verify, for every policy kind."""
    cfg = policy.config
    policy.last_similarity = None
    if cfg.policy == "never" or not policy.verified_since_skip:
        # First step and every step after a skip must verify.
        skip = False
    elif cfg.policy == "uniform":
        skip = policy.verified_since_skip == cfg.interval - 1
    else:  # dynamic
        sim = path_similarity(paths, codebook, cfg.alpha, cfg.stride)
        policy.last_similarity = sim.value
        skip = sim.value >= cfg.threshold

    policy.verified_since_skip = 0 if skip else policy.verified_since_skip + 1
    return skip
