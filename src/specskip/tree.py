"""Candidate token tree: budgeted construction, path enumeration, and
linearization for single-pass verification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unused here, but bench/tracing.py wraps specskip.tree.sample_index by name.
from .core import sample_index  # noqa: F401
from .errors import RejectedInput
from .models import DraftModel


@dataclass
class DraftNode:
    token: int
    parent: int            # index into DraftTree.nodes, -1 for the root
    prob: float             # drafter probability of this token at its parent
    depth: int
    # Set only on the nodes that get children: the dist they are drawn from.
    dist: np.ndarray = field(repr=False, default=None)


@dataclass
class DraftTree:
    nodes: list[DraftNode]
    root_dist: np.ndarray

    def children_of(self) -> list[list[int]]:
        """Child index lists, position 0 holding the root's children."""
        kids: list[list[int]] = [[] for _ in range(len(self.nodes) + 1)]
        for i, node in enumerate(self.nodes):
            kids[node.parent + 1].append(i)
        return kids


@dataclass
class TokenPath:
    tokens: list[int]
    probs: list[float]

    def __post_init__(self):
        if len(self.tokens) != len(self.probs) or not self.tokens:
            raise RejectedInput("path needs aligned, nonempty tokens and probs")

    @property
    def confidence(self) -> float:
        return math.prod(self.probs)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class LinearizedTree:
    """Pending (previously skip-accepted) tokens followed by tree nodes in
    insertion order.  A position sees the committed context and the
    positions on its parent chain, which is the tree-attention mask."""

    tokens: list[int]
    parents: list[int]   # flat index of each position's parent (always earlier), -1 for the context
    pending_len: int
    tree: DraftTree


def build_tree(draft: DraftModel, feature, tokens, k_b: int, D: int,
               budget: int, rng: np.random.Generator) -> DraftTree:
    """Breadth-synchronous expansion to at most `budget` nodes; no drawn
    node is ever cut.

    The drafter conditions the root on one (d,) feature, the one at the
    last context token, and that token.  The root gets m = min(k_b, V)
    child slots.

    After each level's draws, ``_child_counts`` fixes every new node's
    child count (0 to m) from the new nodes' rank reaches alone: a node's
    rank reach is the product of 2**-r over the race ranks r on its root
    path (the root's is 1), so it reads no draft probability.  Only the
    nodes with a positive count get a drafter feature and a child
    distribution (``DraftNode.dist``), from one batched ``extend_feature``
    and one batched ``next_dist`` call, and only their rows are raced (see
    ``_sample_level``): a node's children are the first count picks of its
    row, drawn sequentially without replacement from its draft
    distribution, and kept in sampling order.  A child count fixed before
    the node's own draws keeps the verifier's sequential residual scheme
    exact (SpecInfer's multi-step speculative sampling, Miao et al. 2024),
    so strict decoding reproduces the target distribution for every tree
    this builds.  A node draws no token of zero mass, so a node whose
    distribution has fewer positive entries than its count leaves its
    unused slots empty.
    """
    if k_b < 2 or D < 1 or budget < k_b:
        raise RejectedInput("need k_b >= 2, D >= 1, budget >= k_b")
    window = draft.window
    if len(tokens) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")
    feats = np.asarray(feature, dtype=np.float64)[None]
    root_dist = draft.next_dist(feats, [int(tokens[-1])])[0]
    m = min(k_b, len(root_dist))

    nodes: list[DraftNode] = []
    # The frontier, the nodes that get children: their indices (-1 for the
    # root), child counts, rank reaches, draft dists (n, V), drafter
    # features (n, d) and tails (the last `window` tokens of context + root
    # path).
    parents, counts, reach, dists = [-1], [m], [1.0], root_dist[None]
    tails = [tuple(map(int, tokens[len(tokens) - window:]))]
    for depth in range(1, D + 1):
        picks, stops = _sample_level(dists, k_b, rng)
        probs = dists[np.arange(len(dists))[:, None], picks].tolist()
        start = len(nodes)
        born, new_reach = [], []   # each new node's frontier row and rank reach
        for row, (toks, ps, stop) in enumerate(zip(picks.tolist(), probs, stops.tolist())):
            c = min(counts[row], stop)
            for rank, (tok, p) in enumerate(zip(toks[:c], ps[:c])):
                nodes.append(DraftNode(token=tok, parent=parents[row], prob=p, depth=depth))
                born.append(row)
                new_reach.append(reach[row] * 0.5 ** rank)
        if depth == D or len(nodes) == budget:
            break
        counts = _child_counts(new_reach, m, budget - len(nodes))
        grow = [i for i, c in enumerate(counts) if c]
        new = [nodes[start + i] for i in grow]
        rows = [born[i] for i in grow]
        toks = np.array([node.token for node in new])
        feats = draft.extend_feature(feats.take(rows, axis=0),
                                     np.array([tails[r][0] for r in rows]), toks)
        dists = draft.next_dist(feats, toks)
        for node, dist in zip(new, dists):
            node.dist = dist
        tails = [tails[r][1:] + (node.token,) for r, node in zip(rows, new)]
        parents = [start + i for i in grow]
        counts = [counts[i] for i in grow]
        reach = [new_reach[i] for i in grow]
    return DraftTree(nodes=nodes, root_dist=root_dist)


def _child_counts(reach: list[float], m: int, room: int) -> list[int]:
    """Each node's child count, from its rank reach alone, fixed before its
    draws: slot (i, j), j < m = min(k_b, V), is worth reach[i] * 2**-j, the
    chance that the walk reaches node i and accepts its j-th child when
    each try succeeds with probability 1/2 (only the order matters).  The
    `room` most valuable slots are kept (ties: earlier row, then smaller
    j).  A row's worth falls with j, so its kept slots are its first
    counts[i]."""
    n = len(reach)
    if room >= n * m:
        return [m] * n   # every slot is kept; no ranking needed
    worth = (np.array(reach)[:, None] * 0.5 ** np.arange(m)).ravel()
    kept = np.argsort(-worth, kind="stable")[:room]
    return np.bincount(kept // m, minlength=n).tolist()


def _sample_level(dists: np.ndarray, k_b: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw children without replacement for each row of a level's (n, V)
    distributions, in sampling order, by one exponential race per row.

    Token t of row i gets the key E[i, t] / dists[i, t], with E from one
    ``rng.standard_exponential((n, V))`` call, so row i's exponentials are
    those one call per node, node after node, would draw.  A row's tokens in
    increasing key order are an exact sequential draw without replacement
    from that row (Efraimidis & Spirakis 2006; Gumbel-top-k, Kool et al.
    2019), so its children are its m = min(k_b, V) smallest keys, in key
    order: row i of the (n, m) picks.  A zero-mass token's key is inf, so a
    row with fewer than m positive entries stops at its support: only the
    first stops[i] picks of row i are children.
    """
    n, V = dists.shape
    m = min(k_b, V)
    keys = rng.standard_exponential((n, V))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        keys /= dists
    rows = np.arange(n)[:, None]
    part = np.argpartition(keys, m - 1, axis=1)[:, :m]
    top = keys[rows, part]
    return part[rows, top.argsort(axis=1)], np.isfinite(top).sum(axis=1)


def enumerate_paths(tree: DraftTree) -> list[TokenPath]:
    """One root-to-leaf path per leaf, by descending confidence, ties
    broken lexicographically on token ids."""
    if not tree.nodes:
        raise RejectedInput("empty tree")
    has_child = [False] * len(tree.nodes)
    for node in tree.nodes:
        if node.parent != -1:
            has_child[node.parent] = True
    paths = []
    for i, node in enumerate(tree.nodes):
        if has_child[i]:
            continue
        toks, probs = [], []
        j = i
        while j != -1:
            toks.append(tree.nodes[j].token)
            probs.append(tree.nodes[j].prob)
            j = tree.nodes[j].parent
        paths.append(TokenPath(toks[::-1], probs[::-1]))
    paths.sort(key=lambda p: (-p.confidence, p.tokens))
    return paths


def linearize(tree: DraftTree, pending) -> LinearizedTree:
    """Flatten pending tokens (as a linear chain) followed by tree nodes; a
    root child's parent is the last pending token, if any."""
    tokens = [int(t) for t in pending]
    n_pending = len(tokens)
    parents = list(range(-1, n_pending - 1))
    for node in tree.nodes:
        tokens.append(node.token)
        parents.append(n_pending - 1 if node.parent == -1 else n_pending + node.parent)
    return LinearizedTree(tokens=tokens, parents=parents,
                          pending_len=n_pending, tree=tree)

