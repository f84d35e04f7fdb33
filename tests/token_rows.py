"""Candidate paths and draft trees put together by hand, for the tree,
selection, scheduling, acceptance and verification tests."""

import math

import numpy as np

from specskip.tree import DraftTree, TreePaths, tree_shape


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


def hand_tree(parents, tokens, probs, root_dist, dists=None) -> DraftTree:
    """A tree whose node i has parent parents[i], token tokens[i], prob
    probs[i] and child distribution dists[i], with the sentinel's token -1
    and prob 1.0 after the last node.  ``dists`` defaults to None on every
    node, for a tree whose child distributions nothing reads."""
    return DraftTree(np.array([*tokens, -1], dtype=np.intp), np.array([*probs, 1.0]),
                     list(dists or [None] * len(parents)), root_dist,
                     tree_shape(tuple(parents)))
