"""Candidate paths put together by hand, for the selection, scheduling and
acceptance tests."""

import math

import numpy as np

from specskip.tree import TreePaths


def as_paths(token_lists, probs=None) -> TreePaths:
    """One row per token list, in the given order; ``probs[i]`` are path
    i's draft probs (0.5 per token by default) and its confidence is their
    ``math.prod``."""
    token_lists = [list(tokens) for tokens in token_lists]
    if probs is None:
        probs = [[0.5] * len(tokens) for tokens in token_lists]
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.intp)
    tokens = np.full((len(token_lists), max(lengths, default=0)), -1, dtype=np.intp)
    for row, path in zip(tokens, token_lists):
        row[:len(path)] = path
    return TreePaths(tokens, np.array([math.prod(p) for p in probs]), lengths)
