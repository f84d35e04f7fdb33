"""Verification-free token-path selection and dynamic truncation."""

from __future__ import annotations

import math

import numpy as np

from .errors import RejectedInput
from .tree import TreePaths


def select_path(paths: TreePaths, strategy: str,
                rng: np.random.Generator) -> list[int]:
    """Pick one candidate path's tokens: a uniform draw (strategy
    "uniform"), or the confidence argmax (ties broken lexicographically on
    tokens)."""
    if not len(paths):
        raise RejectedInput("no candidate paths to select from")
    if strategy == "uniform":
        return paths[int(rng.integers(len(paths)))]
    return paths[int(paths.order()[0])]


def truncate_path(selected: list[int], all_paths: TreePaths) -> list[int]:
    """Clip the selected tokens to min(their length, floor of the mean path
    length), never below one token."""
    if not len(all_paths):
        raise RejectedInput("no candidate paths to average over")
    mean_len = int(np.add.reduce(all_paths.lengths)) / len(all_paths)
    keep = min(len(selected), math.floor(mean_len))
    keep = max(keep, 1)
    if keep == len(selected):
        return selected
    return selected[:keep]
