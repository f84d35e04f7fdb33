"""Candidate token tree: confidence-ranked construction, path enumeration,
and linearization for single-pass verification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unused here, but bench/tracing.py wraps specskip.tree.sample_index by name.
from .core import sample_index  # noqa: F401
from .errors import RejectedInput
from .models import DraftModel, draft_forward

CONF_ATOL = 1e-12


@dataclass
class DraftNode:
    token: int
    parent: int            # index into DraftTree.nodes, -1 for the root
    prob: float             # drafter probability of this token at its parent
    confidence: float       # product of probs along the root path
    depth: int
    # Set only on nodes that were expanded: drafter dist for children and
    # the drafter pseudo-feature.
    dist: np.ndarray = field(repr=False, default=None)
    feature: np.ndarray = field(repr=False, default=None)


@dataclass
class DraftTree:
    nodes: list[DraftNode]
    root_dist: np.ndarray
    budget: int
    branching: int
    max_depth: int

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
    insertion order, with exact root-path visibility per position."""

    tokens: list[int]
    ancestors: list[frozenset]   # flat indices on each position's root path, self excluded
    pending_len: int
    tree: DraftTree


def build_tree(draft: DraftModel, features, tokens, k_b: int, D: int,
               budget: int, rng: np.random.Generator | None = None) -> DraftTree:
    """Breadth-synchronous expansion with global confidence pruning.

    Each round expands every frontier node by k_b candidate tokens, then the
    whole node set is cut back to the budget-many highest cumulative
    confidences (ties: smaller token id, then earlier insertion), keeping
    ancestor closure.

    Without an rng, each node expands by its top-k_b tokens.  With an rng,
    children are drawn sequentially without replacement from the node's
    draft distribution; paired with the verifier's sequential residual
    bookkeeping this is the arrangement that preserves the target
    distribution end to end, so the decoding engine always drafts this way.
    Stored per-child probs are always taken from the node's original
    distribution.

    The tree grows one level at a time: a level's draws run as row-wise
    operations over its stacked distributions (see ``_sample_level``), and
    the nodes that survive pruning into the next frontier get their
    drafter features and child distributions from one batched
    ``extend_feature`` and one batched ``next_dist`` call.  Pruned and
    last-level nodes have neither.  Tokens, probs and rng consumption are
    those of expanding node by node.
    """
    if k_b < 2 or D < 1 or budget < k_b:
        raise RejectedInput("need k_b >= 2, D >= 1, budget >= k_b")
    window = draft.window
    if len(tokens) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")

    if not 1 <= len(features) <= len(tokens):
        raise RejectedInput("features must cover a nonempty suffix of the context")
    root_dist = draft_forward(draft, features, tokens[len(tokens) - len(features):])

    # Candidates: (-confidence, token, slot, parent slot, prob, depth, parent
    # row).  A node's slot is its insertion number, so tuple order is the
    # pruning rank; its parent row indexes the parent's level arrays.
    # DraftNodes are made for the survivors at the end.
    entries: list[tuple] = []
    slot = 0
    # The frontier level: its entries (the root's stand-in has confidence 1
    # and slot -1), draft dists (n, V), drafter features (n, d) and tails
    # (the last `window` tokens of context + root path).  Expanded nodes
    # keep their rows: slot -> (dist, feature).
    level = [(-1.0, None, -1)]
    dists = root_dist[None]
    feats = np.asarray(features[-1], dtype=np.float64)[None]
    tails = [tuple(map(int, tokens[len(tokens) - window:]))]
    expanded: dict[int, tuple] = {}

    for depth in range(1, D + 1):
        if rng is None:
            picks = np.argsort(-dists, axis=1, kind="stable")[:, :k_b].tolist()
        else:
            picks = _sample_level(dists, k_b, rng)
        for row, (e, dist) in enumerate(zip(level, dists)):
            conf, parent = -e[0], e[2]
            for tok in picks[row]:
                p = float(dist[tok])
                if p <= 0.0:
                    continue
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
        expanded.update(zip([e[2] for e in level], zip(dists, feats)))

    if not entries:
        raise RejectedInput("tree construction produced no nodes")
    # Renumber slots into dense insertion-order indices.
    slot_to_idx = {e[2]: i for i, e in enumerate(entries)}
    nodes = []
    for neg_conf, tok, s, parent, p, d, _ in entries:
        dist, feature = expanded.get(s, (None, None))
        nodes.append(DraftNode(token=tok, prob=p,
                               parent=-1 if parent == -1 else slot_to_idx[parent],
                               confidence=-neg_conf, depth=d, dist=dist, feature=feature))
    return DraftTree(nodes=nodes, root_dist=root_dist, budget=budget,
                     branching=k_b, max_depth=D)


def _sample_level(dists: np.ndarray, k_b: int, rng: np.random.Generator) -> list[list[int]]:
    """Draw children without replacement for each row of a level's (n, V)
    distributions, node after node, as ``_sample_row`` does for one row.

    When every entry is positive, each row takes exactly m = min(k_b, V)
    draws, so the level takes its uniforms from one ``rng.random((n, m))``
    call, row i's after rows 0..i-1, as per-node calls would.  Each of m
    rounds then normalises every row, takes its cumulative sums and picks
    the number of entries with ``cum <= u * cum[-1]`` (which is
    ``searchsorted(u * cum[-1], side="right")``), then zeroes the pick.  The
    row-wise sum, divide and cumsum round exactly as the same calls on one
    row do, so the picks are those of the per-node loop.

    Levels with a zero entry draw per node, since their rows may stop
    drawing short of k_b.
    """
    n, V = dists.shape
    if np.count_nonzero(dists) < dists.size:
        return [_sample_row(dist, k_b, rng) for dist in dists]
    m = min(k_b, V)
    u = rng.random((n, m))
    avail = dists.copy()
    flat = avail.reshape(-1)
    starts = np.arange(0, n * V, V)
    picks = []
    for r in range(m):
        cum = np.add.accumulate(avail / np.add.reduce(avail, axis=1, keepdims=True), axis=1)
        toks = np.add.reduce(cum <= u[:, r:r + 1] * cum[:, -1:], axis=1)
        flat[starts + toks] = 0.0
        picks.append(toks)
    return np.array(picks).T.tolist()


def _sample_row(dist: np.ndarray, k_b: int, rng: np.random.Generator) -> list[int]:
    """Draw up to k_b tokens without replacement from one distribution.

    The uniforms come from one ``rng.random(m)`` call, m = min(k_b, nonzero
    entries).  This consumes the stream exactly as one ``rng.random()`` per
    draw would: every draw lands on an entry of positive remaining mass and
    zeroes it, so the draws stop only after k_b draws or once no positive
    mass is left, which is after m draws either way.
    """
    picks = []
    avail = dist.copy()
    for u in rng.random(min(k_b, int(np.count_nonzero(dist)))):
        cum = (avail / avail.sum()).cumsum()
        tok = int(cum.searchsorted(u * cum[-1], side="right"))
        picks.append(tok)
        avail[tok] = 0.0
    return picks


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
    """Flatten pending tokens (as a linear chain) followed by tree nodes."""
    pending = [int(t) for t in pending]
    n_pending = len(pending)
    tokens = list(pending)
    ancestors: list[frozenset] = [frozenset(range(i)) for i in range(n_pending)]
    pending_anc = frozenset(range(n_pending))
    for i, node in enumerate(tree.nodes):
        anc = set(pending_anc)
        j = node.parent
        while j != -1:
            anc.add(n_pending + j)
            j = tree.nodes[j].parent
        tokens.append(node.token)
        ancestors.append(frozenset(anc))
    return LinearizedTree(tokens=tokens, ancestors=ancestors,
                          pending_len=n_pending, tree=tree)


def serialize_tree(tree: DraftTree) -> str:
    """Line-oriented text form: one node per line, 'index parent token prob'."""
    lines = [f"{i} {n.parent} {n.token} {n.prob:.12g}" for i, n in enumerate(tree.nodes)]
    return "\n".join(lines) + "\n"
