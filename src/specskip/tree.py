"""Candidate token tree: confidence-ranked construction, path enumeration,
and linearization for single-pass verification."""

from __future__ import annotations

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
        return float(np.prod(self.probs))

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

    A sampled node takes all its uniforms from one ``rng.random(n)`` call,
    n = min(k_b, nonzero entries of its distribution).  This consumes the
    stream exactly as one ``rng.random()`` per draw would: every draw lands
    on an entry of positive remaining mass and zeroes it, so the draws stop
    only after k_b draws or once no positive mass is left, which is after n
    draws either way.

    Only nodes that survive pruning into the frontier get a drafter feature
    and a child distribution (one ``next_dist`` call each); pruned and
    last-level nodes have neither.
    """
    if k_b < 2 or D < 1 or budget < k_b:
        raise RejectedInput("need k_b >= 2, D >= 1, budget >= k_b")
    context = [int(t) for t in tokens]
    window = draft.window
    if len(context) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")

    if not 1 <= len(features) <= len(context):
        raise RejectedInput("features must cover a nonempty suffix of the context")
    root_dist = draft_forward(draft, features, context[len(context) - len(features):])
    root_feature = np.asarray(features[-1], dtype=np.float64)

    # Candidates: (-confidence, token, slot, parent slot, prob, depth).  A
    # node's slot is its insertion number, so tuple order is the pruning
    # rank.  DraftNodes are made for the survivors at the end.
    entries: list[tuple] = []
    slot = 0
    # Expanded nodes by slot (-1 is the root): (dist, confidence, feature,
    # tail), where tail holds the last `window` tokens of context + root path.
    expanded = {-1: (root_dist, 1.0, root_feature, tuple(context[-window:]))}
    frontier = [-1]

    for depth in range(1, D + 1):
        if not frontier:
            break
        for parent in frontier:
            dist, conf, _, _ = expanded[parent]
            if rng is None:
                order = [int(t) for t in np.lexsort((np.arange(dist.size), -dist))[:k_b]]
            else:
                order = []
                avail = dist.copy()
                for u in rng.random(min(k_b, int(np.count_nonzero(dist)))):
                    cum = (avail / avail.sum()).cumsum()
                    tok = int(cum.searchsorted(u * cum[-1], side="right"))
                    order.append(tok)
                    avail[tok] = 0.0
            for tok in order:
                p = float(dist[tok])
                if p <= 0.0:
                    continue
                entries.append((-(conf * p), tok, slot, parent, p, depth))
                slot += 1

        if len(entries) > budget:
            entries = _retain(entries, budget)

        if depth == D:
            break
        frontier = []
        for neg_conf, tok, s, parent, _, d in entries:
            if d == depth:
                _, _, feature, tail = expanded[parent]
                feature = draft.extend_feature(feature, tail[0], tok)
                expanded[s] = (draft.next_dist(feature, tok), -neg_conf, feature,
                               tail[1:] + (tok,))
                frontier.append(s)

    if not entries:
        raise RejectedInput("tree construction produced no nodes")
    # Renumber slots into dense insertion-order indices.
    slot_to_idx = {e[2]: i for i, e in enumerate(entries)}
    nodes = []
    for neg_conf, tok, s, parent, p, d in entries:
        dist, _, feature, _ = expanded.get(s, (None, None, None, None))
        nodes.append(DraftNode(token=tok, prob=p,
                               parent=-1 if parent == -1 else slot_to_idx[parent],
                               confidence=-neg_conf, depth=d, dist=dist, feature=feature))
    return DraftTree(nodes=nodes, root_dist=root_dist, budget=budget,
                     branching=k_b, max_depth=D)


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
