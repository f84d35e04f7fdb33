"""Candidate token tree: budgeted construction, path enumeration, and
linearization for single-pass verification.

A tree's shape, its parent pointers, is fixed before its draws: it depends
only on (min(k_b, V), D, budget, drafter window) and on which rows stop
short at their support.  So each shape is worked out once and memoized with
every index read from it: children, root-path windows and the leaf-path
index.  A tree is arrays over its shape from build to verify (its tokens,
probs and child distributions), and its paths are rows gathered through the
leaf-path index, so building, enumerating, linearizing and verifying a tree
does only its own draws and gathers.  A skip that reads nothing of a tree
but the path it emits draws that path alone (``draw_path``), one drafter
row per node.  Skip-accepted tokens are not part of any shape: the verify
pass reads them as context."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# Unused here, but bench/tracing.py wraps specskip.tree.sample_index by name.
from .core import sample_index  # noqa: F401
from .errors import RejectedInput

if TYPE_CHECKING:
    from .models import DraftModel


@dataclass
class DraftNode:
    """One node, to put a tree together by hand (``DraftTree.from_nodes``)
    or to read one (``DraftTree.nodes``)."""

    token: int
    parent: int            # index into DraftTree.nodes, -1 for the root
    prob: float             # drafter probability of this token at its parent
    # Set only on the nodes that get children: the dist they are drawn from.
    dist: np.ndarray = field(repr=False, default=None)


def _root_windows(parents: tuple[int, ...], w: int) -> list[tuple[int, ...]]:
    """Each node's window: the last w tokens of its prefix, the context
    followed by its root path, as indices into the context's last w tokens
    followed by the nodes (node j at w + j).  Node j's window is its
    parent's slid by one, starting from the context tail."""
    windows: list[tuple[int, ...]] = []
    for j, p in enumerate(parents):
        prev = tuple(range(w)) if p == -1 else windows[p]
        windows.append(prev[1:] + (w + j,))
    return windows


class TreeShape:
    """What a tree's parent pointers fix.  One instance per distinct parents
    tuple (see ``tree_shape``) is shared by every tree of that shape, so it
    hands out tuples and read-only arrays only."""

    __slots__ = ("parents", "children", "expanding", "ranks", "_windows", "_paths", "_chains")

    def __init__(self, parents: tuple[int, ...],
                 children: tuple[tuple[int, ...], ...], expanding: tuple[int, ...]):
        self.parents = parents          # -1 for the root
        self.children = children        # position 0 holds the root's children
        self.expanding = expanding      # the nodes with children, in index order
        # Each node's place among its parent's children: in a built tree,
        # the race rank it was drawn at.
        rank = {i: r for kids in children for r, i in enumerate(kids)}
        self.ranks = tuple(rank[i] for i in range(len(parents)))
        self._windows: dict[int, np.ndarray] = {}
        self._paths: tuple[np.ndarray, np.ndarray] | None = None
        self._chains: dict[int, np.ndarray] = {}

    def windows(self, w: int) -> np.ndarray:
        """The windows of the verify pass as a read-only (1 + n, w) gather
        index into the context's last w tokens followed by the nodes: row 0
        is the context's tail, and row 1 + j node j's window (see
        ``_root_windows``)."""
        index = self._windows.get(w)
        if index is None:
            index = self._windows[w] = np.array(
                [tuple(range(w)), *_root_windows(self.parents, w)], dtype=np.intp)
            index.flags.writeable = False
        return index

    def chain(self, slot: int) -> np.ndarray:
        """The first-child chain from a slot (0 the root, 1 + j node j), as
        a read-only index of slots: the slot, then 1 + its first child, and
        so on down to a leaf.  These are the verify pass's columns that a
        walk from the slot reads while it accepts rank-0 children."""
        index = self._chains.get(slot)
        if index is None:
            slots = [slot]
            while kids := self.children[slots[-1]]:
                slots.append(1 + kids[0])
            index = self._chains[slot] = np.array(slots, dtype=np.intp)
            index.flags.writeable = False
        return index

    def leaf_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """One row per leaf, in index order: the nodes on its root path from
        the root child down, padded past the path with the sentinel node
        n = len(parents), as a read-only (leaves, depth) index; and each
        path's length."""
        if self._paths is None:
            rows = []
            for i, kids in enumerate(self.children[1:]):
                if not kids:
                    path = [i]
                    while self.parents[path[-1]] != -1:
                        path.append(self.parents[path[-1]])
                    rows.append(path[::-1])
            index = np.full((len(rows), max(map(len, rows), default=0)),
                            len(self.parents), dtype=np.intp)
            for row, path in zip(index, rows):
                row[:len(path)] = path
            lengths = np.array(list(map(len, rows)), dtype=np.intp)
            index.flags.writeable = lengths.flags.writeable = False
            self._paths = (index, lengths)
        return self._paths


# Shapes by parents tuple, and build templates by (m, D, budget, window).
# Both stay small: a key holds no token or probability, so a config has one
# template and, unless rows stop short at their support, one shape.
_SHAPES: dict[tuple[int, ...], TreeShape] = {}
_TEMPLATES: dict[tuple[int, int, int, int], "_Level"] = {}

# The most nodes a tree may hold after the budget's clamp: about three times
# the 1,364 of the full default tree (k_b = 4, D = 5).  A verify pass's
# readout holds V * (1 + nodes) floats, at most about 134 MB.
MAX_NODES = 4096
# The largest model sizes a config takes: its models' (V, feat_dim) arrays
# hold at most 32 MB each.  V <= 4096 is the range core's dense
# distributions are meant for.
MAX_VOCAB = 4096
MAX_FEAT_DIM = 1024
MAX_WINDOW = 1024
# The most floats a verify pass's window gather may hold, (feat_dim,
# 1 + nodes, window): about 134 MB, the readout's bound.  Each factor's own
# limit allows a product 256 times that.
MAX_GATHER = 2**24


def tree_shape(parents: tuple[int, ...]) -> TreeShape:
    """The shape of a parents tuple, from the memo; a node whose parent is
    not in [-1, its index) is rejected."""
    shape = _SHAPES.get(parents)
    if shape is None:
        kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
        for i, p in enumerate(parents):
            if not -1 <= p < i:
                raise RejectedInput(f"node {i} has parent {p}, not in [-1, {i})")
            kids[p + 1].append(i)
        shape = _SHAPES[parents] = TreeShape(
            parents, tuple(map(tuple, kids)),
            tuple(i for i in range(len(parents)) if kids[i + 1]))
    return shape


@dataclass(eq=False)
class DraftTree:
    """A tree as arrays over its shape.  ``tokens`` and ``probs`` hold one
    entry per node and then the sentinel's, token -1 and prob 1.0, which
    pad the rows gathered through ``shape.leaf_paths``; ``dists[i]`` is the
    distribution node i's children are drawn from, None on a node without
    children."""

    tokens: np.ndarray
    probs: np.ndarray
    dists: list[np.ndarray | None]
    root_dist: np.ndarray
    shape: TreeShape = field(repr=False)

    @classmethod
    def from_nodes(cls, nodes: list[DraftNode], root_dist: np.ndarray) -> "DraftTree":
        """A tree put together by hand, its shape looked up from its nodes'
        parents."""
        shape = tree_shape(tuple(node.parent for node in nodes))
        return cls(np.array([*(node.token for node in nodes), -1], dtype=np.intp),
                   np.array([*(node.prob for node in nodes), 1.0]),
                   [node.dist for node in nodes], root_dist, shape)

    @property
    def nodes(self) -> "_Nodes":
        return _Nodes(self)


class _Nodes(Sequence):
    """A tree's nodes as a sequence of ``DraftNode``s, each made when read."""

    __slots__ = ("_tree",)

    def __init__(self, tree: DraftTree):
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree.dists)

    def __getitem__(self, i: int) -> DraftNode:
        tree = self._tree
        i = range(len(tree.dists))[i]   # IndexError past either end
        return DraftNode(int(tree.tokens[i]), tree.shape.parents[i],
                         float(tree.probs[i]), tree.dists[i])


@dataclass(eq=False)
class TreePaths:
    """A tree's root-to-leaf paths as rows: ``tokens`` (paths, depth),
    padded with -1 past each path's ``lengths``, and each path's
    ``confidence``, the product of its draft probs.  ``len()`` is the
    number of paths and ``paths[i]`` path i's tokens, as a list."""

    tokens: np.ndarray
    confidence: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> list[int]:
        return self.tokens[i, :self.lengths[i]].tolist()

    def order(self) -> np.ndarray:
        """Row indices by descending confidence, ties broken
        lexicographically on tokens (the -1 padding puts a path before its
        extensions), and equal rows in row order."""
        return np.lexsort((*self.tokens.T[::-1], -self.confidence))


@dataclass
class LinearizedTree:
    """A verify block: the tree's node tokens in insertion order.  Node j
    sees the context and the nodes on its parent chain
    (``tree.shape.parents``), which is the tree-attention mask."""

    tokens: list[int]
    tree: DraftTree


class _Level:
    """One level of a build template, before its race: the frontier (the
    nodes that get children, -1 for the root), their child counts and rank
    reaches, and the parents of the nodes placed so far.  ``steps`` holds
    what follows each race outcome seen, keyed by ``None`` when no row stops
    short of its count and by the clipped counts otherwise."""

    __slots__ = ("key", "depth", "parents", "frontier", "counts", "most", "reach", "steps")

    def __init__(self, key, depth, parents, frontier, counts, reach):
        self.key = key               # (m, D, clamped budget, window)
        self.depth = depth           # of the nodes this level draws
        self.parents = parents
        self.frontier = frontier
        self.counts = counts
        self.most = max(counts)
        self.reach = reach
        self.steps: dict[tuple[int, ...] | None, _Step] = {}

    def step(self, stops: np.ndarray | None) -> "_Step":
        """What follows a race whose rows stop at ``stops`` picks, or, for
        None, one where no row stops short."""
        key = None
        if stops is not None and np.minimum.reduce(stops) < self.most:
            clipped = tuple(map(min, self.counts, stops.tolist()))
            if clipped != self.counts:
                key = clipped
        step = self.steps.get(key)
        if step is None:
            step = self.steps[key] = _Step(self, key or self.counts)
        return step


class _Step:
    """A level's nodes, for one race outcome: node lo + k is pick ranks[k]
    of frontier row rows[k].  Either the tree ends here (``shape``) or the
    nodes at ``grow`` (positions in the level) get children at level
    ``next``: each extends the feature of its row's node (``grow_rows``),
    the token at ``leave`` leaving the drafter's window: the first of its
    parent's window (see ``_root_windows``), an index into the context's
    last `window` tokens followed by the node tokens."""

    __slots__ = ("rows", "ranks", "lo", "hi", "shape", "grow", "grow_rows", "leave", "next")

    def __init__(self, level: _Level, counts: tuple[int, ...]):
        m, D, budget, window = level.key
        rows = [r for r, c in enumerate(counts) for _ in range(c)]
        ranks = [k for c in counts for k in range(c)]
        self.rows = np.array(rows, dtype=np.intp)
        self.ranks = np.array(ranks, dtype=np.intp)
        self.lo = len(level.parents)
        self.hi = self.lo + len(rows)
        parents = level.parents + tuple(level.frontier[r] for r in rows)
        self.shape = self.grow = self.grow_rows = self.leave = self.next = None
        if level.depth == D or self.hi == budget:
            self.shape = tree_shape(parents)
            return
        reach = [level.reach[r] * 0.5 ** k for r, k in zip(rows, ranks)]
        counts = _child_counts(reach, m, budget - self.hi)
        grow = [i for i, c in enumerate(counts) if c]
        windows = _root_windows(level.parents, window)
        leave = [0 if p == -1 else windows[p][0]
                 for p in (parents[self.lo + i] for i in grow)]
        self.grow = np.array(grow, dtype=np.intp)
        self.grow_rows = self.rows[self.grow]
        self.leave = np.array(leave, dtype=np.intp)
        self.next = _Level(level.key, level.depth + 1, parents,
                           tuple(self.lo + i for i in grow),
                           tuple(counts[i] for i in grow), tuple(reach[i] for i in grow))


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

    Counts, parents and every index the build reads come from a template
    memoized per (m, D, budget, window) and per race outcome (see
    ``_Level``), so a level costs one race, one gather of its picks and the
    drafter calls.  The template holds the budget clamped to the full
    tree's node count (``clamped_budget``, which rejects a count above
    ``MAX_NODES``), which sizes the build's arrays.  The tree keeps the
    build's token and prob arrays, with the sentinel's entries after the
    last node.  Floating-point errors are ignored once for the whole build,
    for the races' divisions by zero mass (see ``_sample_level``).
    """
    level = _template(draft, k_b, D, budget)
    window = draft.window
    if len(tokens) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")
    budget = level.key[2]
    feats = np.asarray(feature, dtype=np.float64)[None]
    root_dist = draft.next_dist(feats, [int(tokens[-1])])[0]
    # The context's last `window` tokens, then the node tokens and the
    # sentinel's.
    seq = np.empty(window + budget + 1, dtype=np.intp)
    seq[:window] = tokens[len(tokens) - window:]
    probs = np.empty(budget + 1)
    dists, grown = root_dist[None], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            picks, stops = _sample_level(dists, k_b, rng)
            step = level.step(stops)
            toks = picks[step.rows, step.ranks]
            seq[window + step.lo:window + step.hi] = toks
            probs[step.lo:step.hi] = dists[step.rows, toks]
            if step.next is None:
                break
            toks = toks[step.grow]
            feats = draft.extend_feature(feats[step.grow_rows], seq[step.leave], toks)
            dists = draft.next_dist(feats, toks)
            grown.append(dists)
            level = step.next
    shape, n = step.shape, step.hi
    seq[window + n] = -1
    probs[n] = 1.0
    dist = [None] * n
    for i, row in zip(shape.expanding, itertools.chain.from_iterable(grown)):
        dist[i] = row
    return DraftTree(seq[window:window + n + 1], probs[:n + 1], dist, root_dist, shape)


def _template(draft: DraftModel, k_b: int, D: int, budget: int) -> _Level:
    """The first level of the build template for (min(k_b, V), D, budget,
    drafter window), from the memo."""
    if k_b < 2 or D < 1 or budget < k_b:
        raise RejectedInput("need k_b >= 2, D >= 1, budget >= k_b")
    m = min(k_b, draft.codebook.size)
    key = (m, D, budget, draft.window)
    level = _TEMPLATES.get(key)
    if level is None:
        level = _TEMPLATES[key] = _Level((m, D, clamped_budget(m, D, budget), draft.window),
                                         1, (), (-1,), (m,), (1.0,))
    return level


def full_shape(draft: DraftModel, k_b: int, D: int, budget: int) -> TreeShape:
    """The shape ``build_tree`` gives a tree when no row stops short at
    its support: the shape of every tree of a drafter whose rows all have
    full support (``DraftModel.full_support``)."""
    level = _template(draft, k_b, D, budget)
    while (step := level.step(None)).next is not None:
        level = step.next
    return step.shape


def draw_path(draft: DraftModel, feature, tokens, k_b: int, shape: TreeShape,
              nodes: np.ndarray, rng: np.random.Generator) -> list[int]:
    """The tokens of a root path ``nodes`` of ``shape`` (from the root
    child down), drawn as ``build_tree`` draws them in a tree of that
    shape, without the rest of the tree.

    Node i is pick ``shape.ranks[i]`` of the race on its parent's row, and
    a row depends only on the tokens above it.  So each node costs one
    drafter row, the root's and then each path node's but the last's, and
    one ``_sample_level`` race on it, with features extended as the build
    extends them; the path's tokens have the distribution they have in a
    built tree.  That holds only while the tree's shape does not depend on
    the draws off the path, so a drafter without full support is
    rejected.
    """
    if not draft.full_support:
        raise RejectedInput("a path is drawn alone only from a drafter with full support")
    window = draft.window
    if len(tokens) < window:
        raise RejectedInput(f"context shorter than drafter window {window}")
    # The context's last `window` tokens, then the path's.  Node j's window
    # is seq[j + 1:j + 1 + window], its parent's slid by one.
    seq = np.empty(window + len(nodes), dtype=np.intp)
    seq[:window] = tokens[len(tokens) - window:]
    feats = np.asarray(feature, dtype=np.float64)[None]
    dists = draft.next_dist(feats, [int(tokens[-1])])
    for j, node in enumerate(nodes.tolist()):
        if j:
            last = seq[window + j - 1:window + j]
            feats = draft.extend_feature(feats, seq[j - 1:j], last)
            dists = draft.next_dist(feats, last)
        picks, _ = _sample_level(dists, k_b, rng)
        seq[window + j] = picks[0, shape.ranks[node]]
    return seq[window:].tolist()


def clamped_budget(m: int, D: int, budget: int) -> int:
    """The budget, clamped to the m + m**2 + ... + m**D nodes of the full
    tree, which no larger budget changes; the sum stops once it reaches
    the budget, so a huge D costs no more terms than the budget holds.  A
    clamped count above ``MAX_NODES`` is rejected: no such tree is built."""
    total, level = 0, 1
    for _ in range(D):
        level *= m
        total += level
        if total >= budget:
            total = budget
            break
    if total > MAX_NODES:
        raise RejectedInput(f"a tree of {total} nodes (k_b={m}, D={D}, budget={budget}) "
                            f"exceeds the {MAX_NODES}-node limit")
    return total


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
    first stops[i] picks of row i are children.  The caller ignores
    floating-point errors (``np.errstate``), so E / 0 is inf without a
    warning.
    """
    n, V = dists.shape
    m = min(k_b, V)
    keys = rng.standard_exponential((n, V))
    keys /= dists
    rows = np.arange(n)[:, None]
    part = keys.argpartition(m - 1, axis=1)[:, :m]
    top = keys[rows, part]
    return part[rows, top.argsort(axis=1)], np.add.reduce(np.isfinite(top), axis=1)


def enumerate_paths(tree: DraftTree) -> TreePaths:
    """One root-to-leaf path per leaf, by descending confidence, ties
    broken lexicographically on token ids (``TreePaths.order``).

    Tokens and probs are gathered through the shape's leaf-path index, so
    a row is padded with the sentinel's token -1 and prob 1.0.  Confidences
    are multiplied column by column from the root child down, the order
    ``math.prod`` takes over a path's probs; the padding multiplies by 1.0,
    which is exact."""
    if not tree.dists:
        raise RejectedInput("empty tree")
    index, lengths = tree.shape.leaf_paths()
    tokens = tree.tokens[index]
    probs = tree.probs[index.T]
    confidence = probs[0]
    for column in probs[1:]:
        confidence = confidence * column
    order = TreePaths(tokens, confidence, lengths).order()
    return TreePaths(tokens[order], confidence[order], lengths[order])


def linearize(tree: DraftTree) -> LinearizedTree:
    """The verify block of a tree: its node tokens in insertion order,
    whose parents are the tree's own."""
    return LinearizedTree(tokens=tree.tokens[:-1].tolist(), tree=tree)
