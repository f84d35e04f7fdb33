"""Candidate token tree: confidence-ranked construction, path enumeration,
and linearization for single-pass verification."""

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
    confidence: float       # product of probs along the root path
    depth: int
    # Set only on nodes that were expanded: drafter dist for children.
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
        # The left-to-right product, as each node's stored confidence is made.
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
               budget: int, rng: np.random.Generator | None = None) -> DraftTree:
    """Breadth-synchronous expansion with global confidence pruning.

    The drafter conditions the root on one (d,) feature, the one at the
    last context token, and that token.

    Each round expands every frontier node by k_b candidate tokens, then the
    whole node set is cut back to the budget-many highest cumulative
    confidences (ties: smaller token id, then earlier insertion), keeping
    ancestor closure.

    Without an rng, each node expands by its top-k_b tokens.  With an rng,
    children are drawn sequentially without replacement from the node's
    draft distribution; paired with the verifier's sequential residual
    bookkeeping this is the arrangement that preserves the target
    distribution end to end, so the decoding engine always drafts this way.
    Either way a node draws no token of zero mass, so it has fewer than k_b
    children when its distribution has fewer positive entries.  Stored
    per-child probs are always taken from the node's original distribution,
    and children are kept in sampling order.

    The tree grows one level at a time: a level's draws are one exponential
    race over its stacked distributions (see ``_sample_level``), and the
    nodes that survive pruning into the next frontier get their drafter
    features and child distributions from one batched ``extend_feature``
    and one batched ``next_dist`` call.  Pruned and last-level nodes have
    neither.  Tokens, probs and rng consumption are those of expanding node
    by node.
    """
    if k_b < 2 or D < 1 or budget < k_b:
        raise RejectedInput("need k_b >= 2, D >= 1, budget >= k_b")
    window = draft.window
    if len(tokens) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")
    feats = np.asarray(feature, dtype=np.float64)[None]
    root_dist = draft.next_dist(feats, [int(tokens[-1])])[0]

    # Candidates: (-confidence, token, slot, parent slot, prob, depth, parent
    # row).  A node's slot is its insertion number, so tuple order is the
    # pruning rank; its parent row indexes the parent's level arrays.
    # DraftNodes are made for the survivors at the end.
    entries: list[tuple] = []
    slot = 0
    # The frontier level: its entries (the root's stand-in has confidence 1
    # and slot -1), draft dists (n, V), drafter features (n, d) and tails
    # (the last `window` tokens of context + root path).  Expanded nodes
    # keep their dist rows: slot -> dist.
    level = [(-1.0, None, -1)]
    dists = root_dist[None]
    tails = [tuple(map(int, tokens[len(tokens) - window:]))]
    expanded: dict[int, np.ndarray] = {}

    for depth in range(1, D + 1):
        if rng is None:
            # Each row's top k_b; its zero-mass tokens sort last.
            picks = np.argsort(-dists, axis=1, kind="stable")[:, :k_b]
            stops = np.count_nonzero(dists, axis=1)
        else:
            picks, stops = _sample_level(dists, k_b, rng)
        probs = dists[np.arange(len(dists))[:, None], picks].tolist()
        for row, (e, toks, ps, stop) in enumerate(zip(level, picks.tolist(), probs,
                                                      stops.tolist())):
            conf, parent = -e[0], e[2]
            for tok, p in zip(toks[:stop], ps[:stop]):
                entries.append((-(conf * p), tok, slot, parent, p, depth, row))
                slot += 1

        if len(entries) > budget:
            entries = _retain(entries, budget)

        level = [e for e in entries if e[5] == depth]
        if depth == D or not level:
            break
        new = np.array([e[1] for e in level])
        rows = np.array([e[6] for e in level])
        feats = draft.extend_feature(feats.take(rows, axis=0),
                                     np.array([tails[e[6]][0] for e in level]), new)
        dists = draft.next_dist(feats, new)
        tails = [tails[e[6]][1:] + (e[1],) for e in level]
        expanded.update(zip([e[2] for e in level], dists))

    if not entries:
        raise RejectedInput("tree construction produced no nodes")
    # Renumber slots into dense insertion-order indices.
    slot_to_idx = {e[2]: i for i, e in enumerate(entries)}
    nodes = []
    for neg_conf, tok, s, parent, p, d, _ in entries:
        nodes.append(DraftNode(token=tok, prob=p,
                               parent=-1 if parent == -1 else slot_to_idx[parent],
                               confidence=-neg_conf, depth=d, dist=expanded.get(s)))
    return DraftTree(nodes=nodes, root_dist=root_dist)


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


def _retain(entries: list[tuple], budget: int) -> list[tuple]:
    """Cut candidates back to the budget-many highest confidences (ties:
    smaller token id, then earlier insertion), keeping ancestor closure, in
    insertion order."""
    ranked = sorted(range(len(entries)), key=entries.__getitem__)
    rank = {i: r for r, i in enumerate(ranked)}
    keep = set(ranked[:budget])
    slot_to_idx = {e[2]: i for i, e in enumerate(entries)}
    # Ancestor closure: a kept node's parent must be kept. Parents have
    # confidence >= child and shallower depth, so repair is a rare
    # tie-breaking correction.
    changed = True
    while changed:
        changed = False
        for i in list(keep):
            parent = entries[i][3]
            if parent != -1 and slot_to_idx[parent] not in keep:
                worst = max(keep - {slot_to_idx[parent]}, key=rank.__getitem__)
                keep.discard(worst)
                keep.add(slot_to_idx[parent])
                changed = True
    return [entries[i] for i in sorted(keep)]


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

