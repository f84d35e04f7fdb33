"""Verification-free token-path selection and dynamic truncation."""

from __future__ import annotations

import math

import numpy as np

from .errors import RejectedInput
from .tree import TokenPath


def select_path(paths: list[TokenPath], strategy: str,
                rng: np.random.Generator) -> TokenPath:
    """Pick one candidate path: a uniform draw (strategy "uniform"), or the
    confidence argmax (ties broken lexicographically on tokens)."""
    if not paths:
        raise RejectedInput("no candidate paths to select from")
    if strategy == "uniform":
        return paths[int(rng.integers(len(paths)))]
    return min(paths, key=lambda p: (-p.confidence, p.tokens))


def truncate_path(selected: TokenPath, all_paths: list[TokenPath]) -> TokenPath:
    """Clip the selected path to min(its length, floor of the mean path
    length), never below one token; per-step probs are clipped in lockstep."""
    mean_len = sum(len(p) for p in all_paths) / len(all_paths)
    keep = min(len(selected), math.floor(mean_len))
    keep = max(keep, 1)
    if keep == len(selected):
        return selected
    return TokenPath(selected.tokens[:keep], selected.probs[:keep])
