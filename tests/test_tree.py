"""Candidate-tree construction, enumeration, and linearization."""

import hashlib
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from specskip import tree as tree_mod
from specskip.core import EmbeddingCodebook, param_stream, rng_stream
from specskip.engine import EngineConfig, vvs_generate
from specskip.errors import RejectedInput
from specskip.models import make_model_pair
from specskip.schedule import path_similarity
from specskip.select import select_leaf, select_path, truncate_path
from specskip.tree import (MAX_NODES, _child_counts, _sample_level, build_tree,
                           clamped_budget, enumerate_paths, linearize)

from token_rows import hand_tree

CFG = EngineConfig()


class TableDrafter:
    """Drafter stub with a fixed next-token table keyed by the last token,
    behind the batch interface of DraftModel.  Its tables may have zero
    entries, so it claims no full support and builds count their stops."""

    full_support = False

    def __init__(self, table, window=1):
        self.table = {t: np.asarray(d, dtype=np.float64) for t, d in table.items()}
        self.window = window
        self.codebook = SimpleNamespace(size=len(next(iter(self.table.values()))))

    def next_dist(self, features, last_tokens):
        return np.array([self.table[int(t)] for t in last_tokens])

    def extend_feature(self, features, leaving_tokens, new_tokens):
        return features


def _feat():
    return np.zeros(2)


def _golden_trees(cfg, runs=200):
    """Sampled trees of the golden test, each with its rng after the build.
    Prompts and draws come from ``param_stream``, whose seeding is fixed
    with the models', so the digest pins the build loop's bits only."""
    target, draft = make_model_pair(cfg)
    for run in range(runs):
        prompt = [int(t) for t in param_stream(run, "golden-prompt").integers(
            0, cfg.vocab_size, cfg.window)]
        feat = target.feature_at(prompt, cfg.window - 1)
        rng = param_stream(run, "golden-draw")
        tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                          cfg.budget, rng=rng)
        yield draft, tree, rng


# Default config: k_b=4, D=5, budget=24, so the budget sets the counts:
# levels of 4, 16 and 4 nodes, and a drafter row for the root, each level-1
# node and the three level-2 nodes with children: 8 rows per tree.
GOLDEN = [
    (CFG, "a12e08162f11efa00be09616e1bf1bc8f6981887311c4ee0376100a781007707", 1600),
    (EngineConfig(vocab_size=1024, feat_dim=16),
     "3469ce86a2f18888dfa58ff4b7c28a115565b0e8c07a9868b8c7d265d78bb8e4", 1600),
]


def _golden_digest(cfg):
    """The sha256 of the golden trees' nodes, each followed by the next draw
    of its rng, and the drafter that built them."""
    h = hashlib.sha256()
    for draft, tree, rng in _golden_trees(cfg):
        h.update(repr(_node_tuples(tree)).encode())
        h.update(f"{rng.random()!r}\n".encode())
    return h.hexdigest(), draft


def _depths(tree):
    """Each node's depth, from the parent pointers (a root child's is 1)."""
    depths = []
    for parent in tree.shape.parents:
        depths.append(1 if parent == -1 else depths[parent] + 1)
    return depths


def _node_tuples(tree):
    """Each node's (token, parent, depth, prob.hex()): probs bit for bit."""
    return [(int(tree.tokens[i]), tree.shape.parents[i], depth, float(tree.probs[i]).hex())
            for i, depth in enumerate(_depths(tree))]


def _race(dists, k_b, rng):
    """``_sample_level`` counting stops, under the floating-point error state
    build_tree enters around the races of a drafter without full support."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _sample_level(dists, k_b, rng, count=True)


def _children(dists, k_b, rng):
    """Each row's children: its picks up to its stop."""
    picks, stops = _race(dists, k_b, rng)
    return [toks[:c] for toks, c in zip(picks.tolist(), stops.tolist())]


def _reference_race(dists, k_b, rng):
    """Per-node oracle: one standard_exponential(V) call per row, node after
    node; the row's m = min(k_b, V) smallest finite keys E / p, by key."""
    picks = []
    for dist in dists:
        with np.errstate(divide="ignore"):
            keys = rng.standard_exponential(len(dist)) / dist
        order = np.argsort(keys, kind="stable")[:min(k_b, len(dist))]
        picks.append([int(t) for t in order if np.isfinite(keys[t])])
    return picks


def _reference_build(draft, feature, tokens, k_b, D, budget, rng):
    """Per-node oracle for build_tree: the level loop that recomputes the
    shape in every tree, placing each node as it is drawn, with counts from
    ``_child_counts`` on the rank reaches and each growing node's drafter
    window carried as a tuple of tokens.  Each node's parent, token, prob
    and dist are kept in parallel lists."""
    window = draft.window
    feats = np.asarray(feature, dtype=np.float64)[None]
    root_dist = draft.next_dist(feats, [int(tokens[-1])])[0]
    m = min(k_b, len(root_dist))
    node_parents, node_tokens, node_probs, node_dists = [], [], [], []
    parents, counts, reach, dists = [-1], [m], [1.0], root_dist[None]
    tails = [tuple(map(int, tokens[len(tokens) - window:]))]
    for depth in range(1, D + 1):
        picks, stops = _race(dists, k_b, rng)
        probs = dists[np.arange(len(dists))[:, None], picks].tolist()
        start = len(node_tokens)
        born, new_reach = [], []
        for row, (toks, ps, stop) in enumerate(zip(picks.tolist(), probs, stops.tolist())):
            c = min(counts[row], stop)
            for rank, (tok, p) in enumerate(zip(toks[:c], ps[:c])):
                node_parents.append(parents[row])
                node_tokens.append(tok)
                node_probs.append(p)
                node_dists.append(None)
                born.append(row)
                new_reach.append(reach[row] * 0.5 ** rank)
        if depth == D or len(node_tokens) == budget:
            break
        counts = _child_counts(new_reach, m, budget - len(node_tokens))
        grow = [i for i, c in enumerate(counts) if c]
        new = [start + i for i in grow]
        rows = [born[i] for i in grow]
        toks = np.array([node_tokens[j] for j in new])
        feats = draft.extend_feature(feats.take(rows, axis=0),
                                     np.array([tails[r][0] for r in rows]), toks)
        dists = draft.next_dist(feats, toks)
        for j, dist in zip(new, dists):
            node_dists[j] = dist
        tails = [tails[r][1:] + (node_tokens[j],) for r, j in zip(rows, new)]
        parents = new
        counts = [counts[i] for i in grow]
        reach = [new_reach[i] for i in grow]
    return hand_tree(node_parents, node_tokens, node_probs, root_dist, node_dists)


def _node_bytes(tree):
    """Each node's token, parent, prob and dist, bit for bit."""
    return [(int(tree.tokens[i]), tree.shape.parents[i], float(tree.probs[i]).hex(),
             None if dist is None else dist.tobytes()) for i, dist in enumerate(tree.dists)]


def _assert_builds_match(draft, feat, prompt, k_b, D, budget, rng_key):
    """build_tree and _reference_build give the same nodes and root dist,
    and leave their streams in the same state."""
    got_rng, ref_rng = rng_stream(*rng_key), rng_stream(*rng_key)
    got = build_tree(draft, feat, prompt, k_b, D, budget, rng=got_rng)
    ref = _reference_build(draft, feat, prompt, k_b, D, budget, ref_rng)
    assert _node_bytes(got) == _node_bytes(ref)
    assert got.root_dist.tobytes() == ref.root_dist.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    return got


def _softmax_level(seed, n, vocab):
    src = rng_stream(seed, "level")
    logits = 3.0 * src.standard_normal((n, vocab))
    dists = np.exp(logits - logits.max(axis=1, keepdims=True))
    return dists / dists.sum(axis=1, keepdims=True)


class TestSampleLevel:
    @pytest.mark.parametrize("vocab", [16, 64, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 24])
    def test_full_support_matches_per_node_loop(self, vocab, n):
        """A level's picks are those of racing node by node, and it takes
        exactly standard_exponential((n, V)) from the stream; the uncounted
        race gives the same picks and no stops."""
        dists = _softmax_level(vocab * 100 + n, n, vocab)
        got_rng, ref_rng, uncounted_rng = (rng_stream(n, "u") for _ in range(3))
        got = _children(dists, 4, got_rng)
        assert got == _reference_race(dists, 4, ref_rng)
        picks, stops = _sample_level(dists, 4, uncounted_rng)
        assert picks.tolist() == got and stops is None
        bulk = rng_stream(n, "u")
        bulk.standard_exponential((n, vocab))
        assert got_rng.random() == ref_rng.random() == uncounted_rng.random() == bulk.random()

    def test_fewer_entries_than_k_b_matches_per_node_loop(self):
        # V = 4 < k_b = 5: every row is a permutation of the vocabulary.
        src = rng_stream(4, "level")
        dists = src.random((4, 4)) + 0.1
        dists /= dists.sum(axis=1, keepdims=True)
        got_rng, ref_rng = rng_stream(4, "u"), rng_stream(4, "u")
        got = _children(dists, 5, got_rng)
        assert got == _reference_race(dists, 5, ref_rng)
        assert all(sorted(p) == [0, 1, 2, 3] for p in got)
        assert got_rng.random() == ref_rng.random()

    def test_mixed_support_matches_per_node_loop(self):
        # Rows with 1 and 3 positive entries (fewer than k_b = 4) between
        # full rows: the short rows stop at their support, and the level
        # still takes one exponential per entry.
        dists = np.array([
            [0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0],
            [0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        ])
        got_rng, ref_rng = rng_stream(1, "mixed"), rng_stream(1, "mixed")
        got = _children(dists, 4, got_rng)
        assert got == _reference_race(dists, 4, ref_rng)
        assert [len(p) for p in got] == [4, 1, 3, 4]
        assert got_rng.random() == ref_rng.random()

    def test_ordered_picks_follow_sequential_draws_without_replacement(self):
        """Ordered-pick frequencies of one V=5 row, raced k_b=3 deep on 240k
        rows of a fixed stream, against the closed form p(a) p(b) / (1 -
        p(a)) p(c) / (1 - p(a) - p(b)).  60 cells, 59 dof; 108.16 is the
        chi-square quantile at p = 1e-4 (scipy.stats.chi2.ppf(1 - 1e-4, 59))."""
        p = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
        rows = 240_000
        picks = _children(np.tile(p, (rows, 1)), 3, rng_stream(0, "race"))
        counts = {}
        for toks in picks:
            counts[tuple(toks)] = counts.get(tuple(toks), 0) + 1
        cells = list(itertools.permutations(range(5), 3))
        assert set(counts) <= set(cells)
        chi2 = 0.0
        for a, b, c in cells:
            expected = rows * p[a] * p[b] / (1 - p[a]) * p[c] / (1 - p[a] - p[b])
            chi2 += (counts.get((a, b, c), 0) - expected) ** 2 / expected
        assert chi2 < 108.16

    @pytest.mark.parametrize("vocab", [8, 64, 1024])
    @pytest.mark.parametrize("zero_frac", [0.5, 0.97])
    def test_zero_mass_never_picked(self, vocab, zero_frac):
        """Each row yields exactly min(k_b, positive entries) distinct
        picks, none of zero mass."""
        dists = _softmax_level(vocab, 24, vocab)
        src = rng_stream(vocab, "zeros")
        dists[src.random(dists.shape) < zero_frac] = 0.0
        dists[np.arange(24), src.integers(0, vocab, 24)] += 0.5
        dists /= dists.sum(axis=1, keepdims=True)
        picks = _children(dists, 4, rng_stream(vocab, "u"))
        for dist, toks in zip(dists, picks):
            assert len(toks) == len(set(toks)) == min(4, np.count_nonzero(dist))
            assert all(dist[t] > 0.0 for t in toks)

    def test_one_entry_row_yields_that_entry(self):
        assert _children(np.ones((1, 1)), 4, rng_stream(0, "u")) == [[0]]
        assert _children(np.eye(6)[[2, 5]], 3, rng_stream(0, "u")) == [[2], [5]]


class TestBuildTree:
    def test_point_mass_chain(self):
        # Token 0 always proposes token 1, which always proposes token 2, ...
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=3, budget=8,
                          rng=rng_stream(0, "chain"))
        assert tree.tokens[:-1].tolist() == [1, 2, 3]
        assert tree.shape.parents == (-1, 0, 1)
        assert all(p == 1.0 for p in tree.probs[:-1].tolist())

    def test_sampled_point_mass_chain_draws_once_per_node(self):
        # One positive entry per distribution: each node's race yields one
        # child, short of k_b, from one exponential per vocabulary entry.
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        rng = rng_stream(0, "support")
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=3, budget=8, rng=rng)
        assert tree.tokens[:-1].tolist() == [1, 2, 3]
        ref = rng_stream(0, "support")
        ref.standard_exponential((3, 6))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("budget, counts", [
        (2, [0, 0]), (3, [1, 0]), (4, [2, 0]), (5, [2, 1]), (6, [2, 2])])
    def test_counts_follow_expected_confidence_not_the_draws(self, budget, counts):
        # The root's two positive tokens are always drawn, 1 (0.7) and 2
        # (0.3), in either order.  The first-drawn has rank reach 1 and the
        # second 1/2, so their slots are worth (1, 1/2) and (1/2, 1/4), and
        # the budget's room after the root level fixes the child count of
        # each race rank, whichever token holds it and whatever any stream
        # draws.  (The counts follow the rank, not any draft probability.)
        table = {0: [0.0, 0.7, 0.3, 0.0, 0.0, 0.0],
                 1: [0.0, 0.0, 0.0, 0.5, 0.3, 0.2],
                 2: [0.0, 0.0, 0.0, 0.2, 0.2, 0.6]}
        firsts, drawn = set(), set()
        for run in range(16):
            tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=2,
                              budget=budget, rng=rng_stream(run, "counts"))
            kids, toks = tree.shape.children, tree.tokens.tolist()
            assert sorted(t for t, p in zip(toks, tree.shape.parents) if p == -1) == [1, 2]
            assert [len(kids[i + 1]) for i in kids[0]] == counts
            firsts.add(toks[kids[0][0]])
            drawn.add(tuple(toks[j] for j in kids[kids[0][0] + 1]))
        assert firsts == {1, 2}
        assert len(drawn) > 1 or counts[0] == 0

    def test_count_rule_ties_and_zero_mass(self):
        # Slot (i, j) is worth reach[i] * 2**-j.  Equal worth goes to the
        # earlier row, then the smaller j; a row of zero reach ranks last,
        # and all slots are kept when they all fit.
        assert _child_counts([0.5, 0.5], 2, 1) == [1, 0]
        assert _child_counts([0.5, 0.5], 2, 3) == [2, 1]
        assert _child_counts([0.5, 0.25], 3, 5) == [3, 2]
        assert _child_counts([0.0, 1.0], 2, 2) == [0, 2]
        assert _child_counts([0.0, 1.0], 2, 4) == [2, 2]
        # (0, 0) and (1, 1) are both worth 0.5: the earlier row wins.
        assert _child_counts([0.5, 1.0], 2, 2) == [1, 1]
        assert _child_counts([0.5, 1.0], 2, 3) == [1, 2]
        # A second child at half the worth loses to a sibling's first.
        assert _child_counts([0.6, 0.4], 2, 2) == [1, 1]
        assert _child_counts([0.6, 0.2], 3, 3) == [2, 1]

    @pytest.mark.parametrize("cfg, budget", [
        (CFG, 24), (CFG, 9), (EngineConfig(vocab_size=1024, feat_dim=16), 24)])
    def test_children_are_the_first_count_picks_of_their_race_row(self, cfg, budget):
        """Replayed level by level on a copy of the stream: each level's
        counts come from its nodes' rank reaches alone (the product of
        2**-r over the race ranks r on the root path), only rows of nodes
        with a positive count are raced, and each node's children are the
        first min(count, stop) picks of its row, in race order."""
        target, draft = make_model_pair(cfg)
        k_b, D = cfg.branching, cfg.depth
        m = min(k_b, cfg.vocab_size)
        for run in range(10):
            prompt = [int(t) for t in rng_stream(run, "p").integers(0, cfg.vocab_size,
                                                                    cfg.window)]
            feat = target.feature_at(prompt, cfg.window - 1)
            rng = rng_stream(run, "d")
            tree = build_tree(draft, feat, prompt, k_b, D, budget, rng=rng)
            ref = rng_stream(run, "d")
            kids = tree.shape.children
            level, placed, reach = [-1], 0, {-1: 1.0}
            for _ in range(D):
                if placed == budget or not level:
                    break
                counts = _child_counts([reach[i] for i in level], m, budget - placed)
                grow = [i for i, c in zip(level, counts) if c]
                dists = np.array([tree.root_dist if i == -1 else tree.dists[i]
                                  for i in grow])
                picks, stops = _race(dists, k_b, ref)
                expected = {i: toks[:min(c, stop)] for i, c, toks, stop in
                            zip(grow, [c for c in counts if c], picks.tolist(), stops)}
                for i in level:
                    assert [int(tree.tokens[j]) for j in kids[i + 1]] == expected.get(i, [])
                    for rank, j in enumerate(kids[i + 1]):
                        reach[j] = reach[i] * 0.5 ** rank
                level = [j for i in level for j in kids[i + 1]]
                placed += len(level)
            assert placed == len(tree.dists) <= budget
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)],
                             ids=["v64", "v1024"])
    def test_drafter_rows_only_for_nodes_with_children(self, cfg):
        """Over sampled default trees, a node has a dist exactly when it has
        children, and the build takes one drafter row for the root and one
        per node with children."""
        target, draft = make_model_pair(cfg)
        for run in range(50):
            prompt = [int(t) for t in rng_stream(run, "rows-prompt").integers(
                0, cfg.vocab_size, cfg.window)]
            feat = target.feature_at(prompt, cfg.window - 1)
            before = draft.forward_calls
            tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                              cfg.budget, rng=rng_stream(run, "rows-draw"))
            kids = tree.shape.children
            for i, dist in enumerate(tree.dists):
                assert (dist is not None) == bool(kids[i + 1])
            parents = sum(1 for group in kids[1:] if group)
            assert draft.forward_calls - before == 1 + parents

    def test_bad_shape_rejected(self):
        target, draft = make_model_pair(CFG)
        feat = target.feature_at([1, 2, 3, 4], 3)
        rng = rng_stream(0, "bad")
        with pytest.raises(RejectedInput):
            build_tree(draft, feat, [1, 2, 3, 4], k_b=1, D=2, budget=4, rng=rng)
        with pytest.raises(RejectedInput):
            build_tree(draft, feat, [1, 2, 3, 4], k_b=3, D=2, budget=2, rng=rng)

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(branching=3, depth=3, window=2)],
                             ids=["default", "k_b3-D3"])
    def test_budget_above_the_full_tree(self, cfg):
        """A budget above the full tree's m + ... + m**D nodes builds that
        full tree bit for bit, with the same draws; 10**12 nodes' worth of
        arrays would not fit in memory."""
        full = sum(cfg.branching ** d for d in range(1, cfg.depth + 1))
        target, draft = make_model_pair(cfg)
        for run in range(3):
            prompt = [int(t) for t in rng_stream(run, "p").integers(0, cfg.vocab_size, 6)]
            feat = target.feature_at(prompt, 5)
            built = []
            for budget in (full, full + 1, 10 ** 12):
                rng = rng_stream(run, "huge-budget")
                tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth, budget, rng=rng)
                built.append((_node_bytes(tree), rng.bit_generator.state))
            assert built[0] == built[1] == built[2]
            assert len(built[0][0]) == full

    def test_clamped_budget(self):
        assert clamped_budget(4, 5, 10 ** 12) == clamped_budget(4, 5, 1365) == 1364
        assert clamped_budget(4, 5, 1364) == 1364
        assert clamped_budget(4, 5, 24) == 24
        # The sum stops at the budget, so a huge depth is not summed out.
        assert clamped_budget(2, 10 ** 12, 30) == 30
        assert clamped_budget(2, 40, MAX_NODES) == MAX_NODES

    def test_tree_above_the_node_limit_rejected(self):
        """A budget whose clamped count exceeds MAX_NODES is rejected before
        any draw or drafter call, the same way every time (no template is
        memoized)."""
        target, draft = make_model_pair(CFG)
        prompt = [3, 1, 4, 1]
        feat = target.feature_at(prompt, 3)
        for budget in (MAX_NODES + 1, 10 ** 12):
            for _ in range(2):
                rng = rng_stream(0, "huge")
                state = rng.bit_generator.state
                with pytest.raises(RejectedInput, match="node limit"):
                    build_tree(draft, feat, prompt, 2, 40, budget, rng=rng)
                assert rng.bit_generator.state == state
                assert draft.forward_calls == 0

    def test_budget_and_structure_fuzz(self):
        """Sampled trees: node count <= budget, parents precede children,
        stored probs come from the parent dist."""
        target, draft = make_model_pair(CFG)
        for run in range(25):
            rng = rng_stream(run, "fuzz")
            prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, CFG.window)]
            feat = target.feature_at(prompt, CFG.window - 1)
            tree = build_tree(draft, feat, prompt, CFG.branching, CFG.depth,
                              CFG.budget, rng=rng_stream(run, "draw"))
            assert 1 <= len(tree.dists) <= CFG.budget
            for i, parent in enumerate(tree.shape.parents):
                assert parent < i
                dist = tree.root_dist if parent == -1 else tree.dists[parent]
                assert float(tree.probs[i]) == dist[int(tree.tokens[i])]
            assert max(_depths(tree)) <= CFG.depth

    def test_sampled_children_distinct_and_deterministic(self):
        target, draft = make_model_pair(CFG)
        prompt = [1, 2, 3, 4]
        feat = target.feature_at(prompt, 3)
        t1 = build_tree(draft, feat, prompt, 4, 3, 24, rng=rng_stream(0, "s"))
        t2 = build_tree(draft, feat, prompt, 4, 3, 24, rng=rng_stream(0, "s"))
        assert _node_tuples(t1) == _node_tuples(t2)
        kids = t1.shape.children
        for group in kids:
            toks = [int(t1.tokens[i]) for i in group]
            assert len(toks) == len(set(toks))

    @pytest.mark.parametrize("cfg, digest, forward_calls", GOLDEN, ids=["v64", "v1024"])
    def test_sampled_trees_golden(self, cfg, digest, forward_calls):
        """200 sampled trees, each followed by the next draw of its rng,
        hash to recorded bytes with a recorded number of drafter calls:
        tree shape, probs (bit for bit) and rng consumption are pinned
        across rewrites of the build loop."""
        got, draft = _golden_digest(cfg)
        assert got == digest
        assert draft.forward_calls == forward_calls

    @pytest.mark.parametrize("cfg, digest, forward_calls", GOLDEN, ids=["v64", "v1024"])
    def test_builds_raise_no_floating_point_error(self, cfg, digest, forward_calls):
        """The golden trees build to the same bytes with every floating-point
        error raising: a full-support drafter's races divide by no zero
        mass.  A sparse table's builds still succeed in that state, because
        their races ignore the errors themselves."""
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got, draft = _golden_digest(cfg)
            assert draft.full_support
            assert got == digest and draft.forward_calls == forward_calls
            drafter = TableDrafter(_sparse_table(0, 7, [1, 2, 3, 7]))
            for run in range(20):
                build_tree(drafter, _feat(), [run % 7], 3, 4, 9, rng_stream(run, "stop-draw"))

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)],
                             ids=["v64", "v1024"])
    def test_level_three_hangs_under_the_likeliest_rank_paths(self, cfg):
        """In the golden trees, levels hold 4, 16 and 4 nodes, and the four
        level-3 nodes hang under the level-2 nodes of rank paths (0, 0)
        twice, (0, 1) and (1, 0): the slots of rank reach 1 and 1/2."""
        for _, tree, _ in _golden_trees(cfg):
            kids = tree.shape.children
            rank_path = {-1: ()}
            for i in range(-1, len(tree.dists)):
                for rank, j in enumerate(kids[i + 1]):
                    rank_path[j] = rank_path[i] + (rank,)
            depths = _depths(tree)
            assert [depths.count(d) for d in (1, 2, 3)] == [4, 16, 4]
            assert sorted(rank_path[p] for p, depth in zip(tree.shape.parents, depths)
                          if depth == 3) == [(0, 0), (0, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)])
    def test_path_confidence_equals_leaf_confidence(self, cfg):
        """A path's confidence is its leaf's confidence, the product of the
        probs on the leaf's root path from the root down, and the numpy
        product of its probs, exactly."""
        for _, tree, _ in _golden_trees(cfg):
            conf_of_path, probs_of_path = {}, {}
            for i in range(len(tree.dists)):
                toks, probs, j = [], [], i
                while j != -1:
                    toks.append(int(tree.tokens[j]))
                    probs.append(float(tree.probs[j]))
                    j = tree.shape.parents[j]
                conf = 1.0
                for p in probs[::-1]:
                    conf *= p
                conf_of_path[tuple(toks[::-1])] = conf
                probs_of_path[tuple(toks[::-1])] = probs[::-1]
            paths = enumerate_paths(tree)
            for i, confidence in enumerate(paths.confidence.tolist()):
                assert confidence == conf_of_path[tuple(paths[i])]
                assert confidence == float(np.prod(probs_of_path[tuple(paths[i])]))

    def test_short_context_rejected(self):
        target, draft = make_model_pair(CFG)
        with pytest.raises(RejectedInput):
            build_tree(draft, np.zeros(CFG.feat_dim), [1], 2, 2, 4, rng_stream(0, "short"))


def _sparse_table(seed, vocab, supports):
    """A TableDrafter table whose row for each token has a seeded number of
    positive entries, drawn from ``supports``, at seeded tokens."""
    src = rng_stream(seed, "sparse-table")
    table = {}
    for t in range(vocab):
        dist = np.zeros(vocab)
        k = int(src.choice(supports))
        dist[src.choice(vocab, k, replace=False)] = src.random(k) + 0.05
        table[t] = dist / dist.sum()
    return table


def _template_steps(level):
    """How many race outcomes a build template holds, over all its levels."""
    return sum(1 + (0 if step.next is None else _template_steps(step.next))
               for step in level.steps.values())


class TestBuildMatchesReference:
    """build_tree, which reads every count, parent and index from a memoized
    template, against the per-node loop it replaced: nodes, probs and dists
    bit for bit, and the same rng consumption."""

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)],
                             ids=["v64", "v1024"])
    def test_golden_trees(self, cfg):
        target, draft = make_model_pair(cfg)
        for run in range(200):
            prompt = [int(t) for t in rng_stream(run, "golden-prompt").integers(
                0, cfg.vocab_size, cfg.window)]
            feat = target.feature_at(prompt, cfg.window - 1)
            _assert_builds_match(draft, feat, prompt, cfg.branching, cfg.depth,
                                 cfg.budget, (run, "golden-draw"))

    @pytest.mark.parametrize("cfg, deepest", [
        # The sd-tiny-pairs benchmark config: window 1, full 2 / 4 trees.
        (EngineConfig(vocab_size=16, feat_dim=4, epsilon=0.3, window=1,
                      concentration=0.0, logit_scale=20.0, temperature=0.5,
                      branching=2, depth=2, budget=6, seed=7), 2),
        (EngineConfig(branching=3, budget=5), 2),
        (EngineConfig(branching=3, budget=7), 2),
        (EngineConfig(window=1), 3),
        # Trees deeper than the drafter window: a leaving token is read
        # through an ancestor `window` levels up.
        (EngineConfig(window=2, branching=2, depth=5, budget=24), 4),
        (EngineConfig(window=3, branching=2, depth=6, budget=40, vocab_size=1024,
                      feat_dim=16), 5),
    ], ids=["sd-tiny-pairs", "k3-b5", "k3-b7", "w1", "w2-deep", "w3-v1024-deep"])
    def test_configs(self, cfg, deepest):
        target, draft = make_model_pair(cfg)
        for run in range(60):
            # Contexts of window to window + 2 tokens.
            prompt = [int(t) for t in rng_stream(run, "ref-prompt").integers(
                0, cfg.vocab_size, cfg.window + run % 3)]
            feat = target.feature_at(prompt, len(prompt) - 1)
            tree = _assert_builds_match(draft, feat, prompt, cfg.branching, cfg.depth,
                                        cfg.budget, (run, "ref-draw"))
            assert max(_depths(tree)) == deepest

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_stopping_at_their_support(self, seed):
        """Rows with fewer positive entries than their count, the root's
        included, take the template's other keys and still match."""
        table = _sparse_table(seed, 7, [1, 2, 3, 7])
        drafter = TableDrafter(table)
        shapes = set()
        for run in range(40):
            for k_b, D, budget in [(3, 4, 9), (3, 3, 5), (2, 5, 12)]:
                tree = _assert_builds_match(drafter, _feat(), [run % 7], k_b, D, budget,
                                            (run, "stop-draw"))
                shapes.add(tree.shape.parents)
        assert len(shapes) > 3

    def test_root_stopping_short(self):
        # The root has two positive entries for three slots, and token 2's
        # row has one.
        table = {0: [0.0, 0.6, 0.4, 0.0], 1: [0.25] * 4,
                 2: [0.0, 0.0, 0.0, 1.0], 3: [0.1, 0.2, 0.3, 0.4]}
        for run in range(20):
            tree = _assert_builds_match(TableDrafter(table), _feat(), [0], 3, 3, 8,
                                        (run, "root-stop"))
            assert len(tree.shape.children[0]) == 2


def _template_shapes(level):
    """The tree shapes a build template ends in, over all its race outcomes."""
    return {shape for step in level.steps.values()
            for shape in ([step.shape] if step.next is None else _template_shapes(step.next))}


class TestMemoBounds:
    """The shape and template memos, and each shape's window memo, are keyed
    by shape alone, so a config fills them once; a key that took in tokens
    or probs would grow them with every tree."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self, monkeypatch):
        monkeypatch.setattr(tree_mod, "_SHAPES", {})
        monkeypatch.setattr(tree_mod, "_TEMPLATES", {})

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)],
                             ids=["v64", "v1024"])
    def test_golden_trees_fill_one_shape(self, cfg):
        indexes = set()
        for _, tree, _ in _golden_trees(cfg):
            enumerate_paths(tree)
            indexes.add(id(tree.shape.leaf_paths()[0]))
        assert list(tree_mod._TEMPLATES) == [(4, 5, 24, 4)]
        assert len(tree_mod._SHAPES) == 1
        # One leaf-path index, made once for the shape.
        assert len(indexes) == 1
        # One race outcome per level of the 4 / 16 / 4 tree.
        assert _template_steps(tree_mod._TEMPLATES[4, 5, 24, 4]) == 3

    def test_dynamic_run_with_skips(self):
        # Pending tokens are context, so verifies behind them look up the
        # tree's own shape: no other shape is memoized, after dynamic and
        # uniform runs with skips.
        for cfg in (EngineConfig(policy="dynamic"), EngineConfig(policy="uniform", interval=2)):
            skips = sum(vvs_generate(replace(cfg, run=run)).skip_count for run in range(6))
            assert skips > 0
        assert list(tree_mod._TEMPLATES) == [(4, 5, 24, 4)]
        assert _template_steps(tree_mod._TEMPLATES[4, 5, 24, 4]) == 3
        (shape,) = _template_shapes(tree_mod._TEMPLATES[4, 5, 24, 4])
        # Only the draft tree's shape, with the one window index its
        # verifies read; its leaf-path index is made when paths are read.
        assert list(tree_mod._SHAPES.values()) == [shape]
        assert list(shape._windows) == [4]
        assert shape._paths is not None


def _rank_probs(p, rank):
    """Each token's chance of being pick `rank` of sequential draws without
    replacement from p, summed over the ordered picks before it."""
    out = np.zeros(len(p))
    for picks in itertools.permutations(range(len(p)), rank + 1):
        chance, left = 1.0, 1.0
        for t in picks:
            chance *= p[t] / left
            left -= p[t]
        out[picks[-1]] += chance
    return out


def _exact_skip(draft, feat, prompt, shape):
    """The exact distribution of a uniform, truncated skip's tokens over a
    tree of `shape`: the mean over its leaves of the product, down the
    leaf's kept prefix, of the chance that each node's token is the pick at
    the node's place among its siblings, on the row its ancestors'
    tokens condition.  Keyed by token tuple."""
    index, lengths = shape.leaf_paths()
    keep = max(1, math.floor(sum(lengths.tolist()) / len(lengths)))
    exact = {}
    for leaf in range(len(lengths)):
        nodes = index[leaf, :min(keep, lengths[leaf])].tolist()
        ranks = [shape.children[shape.parents[i] + 1].index(i) for i in nodes]
        # (tokens so far, their chance, the feature after them)
        prefixes = [((), 1.0, np.asarray(feat)[None])]
        for j, rank in enumerate(ranks):
            grown = []
            for toks, chance, f in prefixes:
                window = [*prompt, *toks][-draft.window - 1:]
                if toks:
                    f = draft.extend_feature(f, window[:1], window[-1:])
                row = _rank_probs(draft.next_dist(f, window[-1:])[0], rank)
                grown += [((*toks, t), chance * row[t], f) for t in range(len(row))]
            prefixes = grown
        for toks, chance, _ in prefixes:
            exact[toks] = exact.get(toks, 0.0) + chance / len(lengths)
    return exact


def _chi2_bound(dof, z=3.719):
    """The chi-square quantile at p = 1e-4 (z = 3.719), by Wilson and
    Hilferty's cube-root normal approximation."""
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def _chi2(counts, exact, n):
    """Pearson's statistic of `n` draws against the exact chances, cells
    expecting fewer than 5 draws pooled into one, and its degrees of
    freedom."""
    assert set(counts) <= set(exact)
    cells = [(counts.get(k, 0), n * p) for k, p in exact.items()]
    pooled = [c for c in cells if c[1] < 5]
    cells = [c for c in cells if c[1] >= 5]
    if pooled:
        cells.append((sum(c for c, _ in pooled), sum(e for _, e in pooled)))
    return sum((c - e) ** 2 / e for c, e in cells), len(cells) - 1


class TestDrawPath:
    """A uniform, truncated skip's tokens drawn alone (``select_leaf`` then
    ``draw_path``) and picked from the whole built tree (``build_tree``,
    ``enumerate_paths``, ``select_path``, ``truncate_path``) against their
    exact distribution, on tiny drafters with full support: a V = 6 tree of
    2 / 4 nodes, all four leaves kept whole (36 outcomes), and a V = 8 tree
    of 3 / 1 nodes whose mean leaf length 4/3 keeps one token of each leaf
    (ranks 0, 1 and 2 of the root's race)."""

    CONFIGS = {"keep2": (EngineConfig(vocab_size=6, feat_dim=4, branching=2, depth=3,
                                      budget=6, pool_k=4), 2),
               "keep1": (EngineConfig(vocab_size=8, feat_dim=4, branching=3, depth=2,
                                      budget=4, pool_k=4), 1)}

    def _setup(self, name):
        cfg, keep = self.CONFIGS[name]
        target, draft = make_model_pair(cfg)
        prompt = [1, 3, 0, 2]
        feat = target.feature_at(prompt, len(prompt) - 1)
        shape = tree_mod.full_shape(draft, cfg.branching, cfg.depth, cfg.budget)
        assert draft.full_support
        return cfg, keep, draft, prompt, feat, shape

    @pytest.mark.parametrize("name", CONFIGS)
    def test_drawn_and_selected_skips_match_the_exact_distribution(self, name):
        cfg, keep, draft, prompt, feat, shape = self._setup(name)
        exact = _exact_skip(draft, feat, prompt, shape)
        assert math.isclose(sum(exact.values()), 1.0)
        assert {len(k) for k in exact} == {keep}
        n = 20_000
        drawn, built = {}, {}
        draw_rng, select_rng = rng_stream(1, "draw"), rng_stream(1, "select")
        for _ in range(n):
            nodes = select_leaf(shape, True, select_rng)
            toks = tuple(tree_mod.draw_path(draft, feat, prompt, cfg.branching, shape,
                                            nodes, draw_rng))
            drawn[toks] = drawn.get(toks, 0) + 1
        build_rng, pick_rng = rng_stream(2, "build"), rng_stream(2, "select")
        for _ in range(n):
            tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth, cfg.budget,
                              build_rng)
            assert tree.shape is shape
            paths = enumerate_paths(tree)
            toks = tuple(truncate_path(select_path(paths, "uniform", pick_rng), paths))
            built[toks] = built.get(toks, 0) + 1
        for counts in (drawn, built):
            chi2, dof = _chi2(counts, exact, n)
            assert dof > 4 and chi2 < _chi2_bound(dof), (chi2, dof)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_draw_makes_one_drafter_row_per_kept_token(self, name, monkeypatch):
        cfg, keep, draft, prompt, feat, shape = self._setup(name)
        rows = []
        next_dist = draft.next_dist
        monkeypatch.setattr(draft, "next_dist",
                            lambda f, last: rows.append(len(f)) or next_dist(f, last))
        rng, select_rng = rng_stream(3, "draw"), rng_stream(3, "select")
        for _ in range(50):
            rows.clear()
            nodes = select_leaf(shape, True, select_rng)
            assert len(tree_mod.draw_path(draft, feat, prompt, cfg.branching, shape,
                                          nodes, rng)) == len(nodes) == keep
            assert rows == [1] * keep

    def test_drafter_without_full_support_is_rejected(self):
        cfg = EngineConfig(vocab_size=6, feat_dim=4, logit_scale=400.0, pool_k=4)
        target, draft = make_model_pair(cfg)
        assert not draft.full_support
        shape = tree_mod.full_shape(draft, cfg.branching, cfg.depth, cfg.budget)
        with pytest.raises(RejectedInput, match="full support"):
            tree_mod.draw_path(draft, np.zeros(4), [0] * 4, cfg.branching, shape,
                               shape.leaf_paths()[0][0, :1], rng_stream(0, "d"))


def _hand_tree():
    # 5 nodes: 0 and 1 are root children; 2,3 children of 0; 4 child of 1.
    return hand_tree([-1, -1, 0, 0, 1], [5, 9, 2, 7, 1], [0.6, 0.4, 0.5, 0.2, 0.9],
                     np.full(10, 0.1))


def test_hand_built_tree_takes_its_shape_from_its_parents():
    tree = _hand_tree()
    assert tree.shape is tree_mod.tree_shape((-1, -1, 0, 0, 1))
    assert tree.shape.children == ((0, 1), (2, 3), (4,), (), (), ())
    assert tree.shape.expanding == (0, 1)
    # Windows of 3 over the context's last 3 tokens (0 to 2), then the
    # nodes (3 to 7): row 0 is the context's tail, and a node's row is its
    # parent's slid by one.
    index = tree.shape.windows(3)
    assert index.tolist() == [[0, 1, 2], [1, 2, 3], [1, 2, 4], [2, 3, 5], [2, 3, 6],
                              [2, 4, 7]]
    assert not index.flags.writeable
    assert tree.shape.windows(3) is index
    assert tree.shape.windows(2).tolist() == [[0, 1], [1, 2], [1, 3], [2, 4], [2, 5], [3, 6]]
    for _ in range(2):
        with pytest.raises(RejectedInput):
            tree_mod.tree_shape((0,))


def test_nodes_are_read_from_the_arrays():
    # A tree holds no node objects: ``nodes`` is the range of node indices.
    tree = _hand_tree()
    assert tree.nodes == range(5)
    assert tree.tokens.tolist() == [5, 9, 2, 7, 1, -1]
    assert tree.probs.tolist() == [0.6, 0.4, 0.5, 0.2, 0.9, 1.0]
    assert tree.shape.parents == (-1, -1, 0, 0, 1)
    assert tree.dists == [None] * 5


class TestEnumeratePaths:
    def test_single_chain_single_path(self):
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 3, 8, rng_stream(0, "p"))
        paths = enumerate_paths(tree)
        assert len(paths) == 1 and paths[0] == [1, 2, 3]

    def test_perfect_binary_depth2_has_4_paths(self):
        table = {0: [0.0, 0.5, 0.5, 0.0, 0.0],
                 1: [0.0, 0.0, 0.0, 0.5, 0.5],
                 2: [0.0, 0.0, 0.0, 0.5, 0.5],
                 3: [0.2] * 5, 4: [0.2] * 5}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 2, 6, rng_stream(0, "p"))
        assert len(enumerate_paths(tree)) == 4

    def test_hand_traversal(self):
        paths = enumerate_paths(_hand_tree())
        assert list(paths) == [[9, 1], [5, 2], [5, 7]]
        assert [round(c, 12) for c in paths.confidence.tolist()] == [0.36, 0.3, 0.12]

    def test_confidence_is_prob_product(self):
        paths = enumerate_paths(hand_tree([-1, 0, 1], [1, 2, 3], [0.5, 0.5, 0.4],
                                          np.full(4, 0.25)))
        assert abs(paths.confidence[0] - 0.1) < 1e-15

    def test_empty_tree_rejected(self):
        with pytest.raises(RejectedInput):
            enumerate_paths(hand_tree([], [], [], np.full(4, 0.25)))


def _reference_paths(tree):
    """Per-leaf oracle for enumerate_paths: the walk up the parent pointers
    from each leaf and the sort by (-confidence, tokens) it replaced, as
    (tokens, probs, confidence) with the confidence from ``math.prod``."""
    node_tokens, node_probs = tree.tokens.tolist(), tree.probs.tolist()
    node_parents = tree.shape.parents
    parents = set(node_parents)
    paths = []
    for i in range(len(node_parents)):
        if i in parents:
            continue
        toks, probs = [], []
        j = i
        while j != -1:
            toks.append(node_tokens[j])
            probs.append(node_probs[j])
            j = node_parents[j]
        paths.append((toks[::-1], probs[::-1], math.prod(probs[::-1])))
    paths.sort(key=lambda p: (-p[2], p[0]))
    return paths


def _reference_similarity(paths, codebook, alpha, stride):
    """path_similarity over _reference_paths, as it read token lists."""
    retained = paths[::stride]
    n = len(retained)
    if n < 2:
        return 1.0, True
    depth = min(len(toks) for toks, _, _ in retained)
    raw = alpha ** np.arange(depth, dtype=np.float64)
    tokens = np.array([toks[:depth] for toks, _, _ in retained])
    total = codebook.unit(tokens).sum(axis=0)
    means = (np.einsum("ld,ld->l", total, total) - n) / (n * (n - 1))
    return float(np.clip(raw / raw.sum() @ means, -1.0, 1.0)), False


def _assert_paths_match(tree, codebook, alpha=0.8):
    """enumerate_paths against _reference_paths: order, tokens, lengths and
    confidences bit for bit, -1 padding, and the stride-1 and stride-2
    similarities bit for bit."""
    got, ref = enumerate_paths(tree), _reference_paths(tree)
    assert list(got) == [toks for toks, _, _ in ref]
    assert got.lengths.tolist() == [len(toks) for toks, _, _ in ref]
    assert [c.hex() for c in got.confidence.tolist()] == [c.hex() for _, _, c in ref]
    for row, length in zip(got.tokens.tolist(), got.lengths.tolist()):
        assert set(row[length:]) <= {-1}
    for stride in (1, 2):
        sim = path_similarity(got, codebook, alpha, stride)
        value, degenerate = _reference_similarity(ref, codebook, alpha, stride)
        assert (sim.value.hex(), sim.degenerate) == (value.hex(), degenerate)
    return got


class TestEnumerateMatchesReference:
    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)],
                             ids=["v64", "v1024"])
    def test_golden_trees(self, cfg):
        for draft, tree, _ in _golden_trees(cfg):
            _assert_paths_match(tree, draft.codebook, cfg.alpha)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_stopping_short(self, seed):
        """Tiny-V trees whose rows stop at their support: ragged paths,
        padded rows, and one-path trees."""
        codebook = EmbeddingCodebook(rng_stream(seed, "cb").standard_normal((7, 3)))
        drafter = TableDrafter(_sparse_table(seed, 7, [1, 2, 3, 7]))
        ragged = 0
        for run in range(40):
            for k_b, D, budget in [(3, 4, 9), (3, 3, 5), (2, 5, 12)]:
                tree = build_tree(drafter, _feat(), [run % 7], k_b, D, budget,
                                  rng_stream(run, "stop-draw"))
                paths = _assert_paths_match(tree, codebook)
                ragged += len(set(paths.lengths.tolist())) > 1
        assert ragged > 10

    def test_tied_confidences(self):
        # Four paths of confidence 0.25 exactly, two of them one token
        # shorter: the order is by tokens alone.
        tree = hand_tree([-1, -1, -1, 0, 0, 2], [6, 3, 8, 2, 1, 4],
                         [0.5, 0.25, 0.25, 0.5, 0.5, 1.0], np.full(10, 0.1))
        codebook = EmbeddingCodebook(rng_stream(0, "tied-cb").standard_normal((10, 3)))
        paths = _assert_paths_match(tree, codebook)
        assert list(paths) == [[3], [6, 1], [6, 2], [8, 4]]
        assert paths.confidence.tolist() == [0.25] * 4


def _ancestor_sets(parents):
    """Each node's ancestors, walked through ``parents``."""
    sets = []
    for j, parent in enumerate(parents):
        assert -1 <= parent < j
        sets.append(frozenset() if parent == -1 else sets[parent] | {parent})
    return sets


def _old_ancestor_sets(tree, n_pending):
    """The ancestor sets linearize built before parent pointers, over the
    pending tokens (a chain) followed by the nodes."""
    sets = [frozenset(range(i)) for i in range(n_pending)]
    for parent in tree.shape.parents:
        anc = set(range(n_pending))
        j = parent
        while j != -1:
            anc.add(n_pending + j)
            j = tree.shape.parents[j]
        sets.append(frozenset(anc))
    return sets


class TestLinearize:
    def test_chain_prefix_ancestors(self):
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 3, 8, rng_stream(0, "l"))
        linear = linearize(tree)
        assert linear.tree is tree
        assert linear.tokens == [1, 2, 3] and type(linear.tokens[0]) is int
        assert tree.shape.parents == (-1, 0, 1)
        assert _ancestor_sets(tree.shape.parents) == [frozenset(), frozenset({0}),
                                                      frozenset({0, 1})]

    def test_ancestors_transitively_closed(self):
        """Parents come before their children, and the path walked through
        them is the ancestor set linearize used to build, less the pending
        tokens every node used to see."""
        target, draft = make_model_pair(CFG)
        for run in range(10):
            prompt = [int(t) for t in rng_stream(run, "p").integers(0, 64, 4)]
            feat = target.feature_at(prompt, 3)
            tree = build_tree(draft, feat, prompt, 4, 4, 16,
                              rng=rng_stream(run, "d"))
            sets = _ancestor_sets(tree.shape.parents)
            for pending in ([], [1], [1, 2]):
                n = len(pending)
                old = _old_ancestor_sets(tree, n)
                assert old[:n] == [frozenset(range(i)) for i in range(n)]
                assert sets == [frozenset(a - n for a in anc if a >= n) for anc in old[n:]]
                assert all(anc >= set(range(n)) for anc in old[n:])
            for j, anc in enumerate(sets):
                for a in anc:
                    assert a < j
                    assert sets[a] <= anc
