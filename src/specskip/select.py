"""Verification-free token-path selection and dynamic truncation."""

from __future__ import annotations

import math

import numpy as np

from .errors import RejectedInput
from .tree import TreePaths, TreeShape


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


def select_leaf(shape: TreeShape, truncate: bool,
                rng: np.random.Generator) -> np.ndarray:
    """The nodes a uniform selection keeps from a tree of ``shape``: the
    root path of a uniformly drawn leaf, in the shape's leaf order, cut to
    ``kept_length`` when ``truncate``.  A uniform draw over a tree's
    enumerated paths picks each leaf with the same chance, whatever their
    order, so these nodes' tokens (``tree.draw_path``) have the
    distribution of ``select_path``'s uniform pick, truncated."""
    index, lengths = shape.leaf_paths()
    leaf = int(rng.integers(len(lengths)))
    keep = int(lengths[leaf])
    if truncate:
        keep = kept_length(keep, lengths)
    return index[leaf, :keep]


def kept_length(length: int, lengths: np.ndarray) -> int:
    """How many of a selected path's ``length`` tokens truncation keeps:
    min(length, floor of the mean of every candidate's ``lengths``), never
    below one token."""
    if not len(lengths):
        raise RejectedInput("no candidate paths to average over")
    mean_len = int(np.add.reduce(lengths)) / len(lengths)
    return max(1, min(length, math.floor(mean_len)))


def truncate_path(selected: list[int], all_paths: TreePaths) -> list[int]:
    """Clip the selected tokens to their ``kept_length`` among
    ``all_paths``."""
    keep = kept_length(len(selected), all_paths.lengths)
    if keep == len(selected):
        return selected
    return selected[:keep]
