"""Candidate-tree construction, enumeration, and linearization."""

import hashlib

import numpy as np
import pytest

from specskip.core import rng_stream
from specskip.engine import EngineConfig
from specskip.errors import RejectedInput
from specskip.models import make_model_pair
from specskip.tree import (DraftNode, DraftTree, TokenPath, _sample_level,
                           build_tree, enumerate_paths, linearize,
                           serialize_tree)

CFG = EngineConfig()


class TableDrafter:
    """Drafter stub with a fixed next-token table keyed by the last token,
    behind the batch interface of DraftModel."""

    def __init__(self, table, window=1):
        self.table = {t: np.asarray(d, dtype=np.float64) for t, d in table.items()}
        self.window = window

    def next_dist(self, features, last_tokens):
        return np.array([self.table[int(t)] for t in last_tokens])

    def extend_feature(self, features, leaving_tokens, new_tokens):
        return features


def _feat():
    return [np.zeros(2)]


def _golden_trees(cfg, runs=200):
    """Sampled trees of the golden test, each with its rng after the build."""
    target, draft = make_model_pair(cfg)
    for run in range(runs):
        prompt = [int(t) for t in rng_stream(run, "golden-prompt").integers(
            0, cfg.vocab_size, cfg.window)]
        feats = [target.feature_at(prompt, cfg.window - 1)]
        rng = rng_stream(run, "golden-draw")
        tree = build_tree(draft, feats, prompt, cfg.branching, cfg.depth,
                          cfg.budget, rng=rng)
        yield draft, tree, rng


def _reference_draws(dists, k_b, rng):
    """Per-node oracle: one rng.random() per draw, node after node, until
    k_b draws or no positive mass is left."""
    picks = []
    for dist in dists:
        avail = dist.copy()
        order = []
        while len(order) < k_b and avail.sum() > 0.0:
            u = rng.random()
            cum = (avail / avail.sum()).cumsum()
            tok = int(cum.searchsorted(u * cum[-1], side="right"))
            order.append(tok)
            avail[tok] = 0.0
        picks.append(order)
    return picks


class TestSampleLevel:
    @pytest.mark.parametrize("vocab", [16, 64, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 24])
    def test_full_support_matches_per_node_loop(self, vocab, n):
        src = rng_stream(vocab * 100 + n, "level")
        logits = 3.0 * src.standard_normal((n, vocab))
        dists = np.exp(logits - logits.max(axis=1, keepdims=True))
        dists /= dists.sum(axis=1, keepdims=True)
        got_rng, ref_rng = rng_stream(n, "u"), rng_stream(n, "u")
        assert _sample_level(dists, 4, got_rng) == _reference_draws(dists, 4, ref_rng)
        assert got_rng.random() == ref_rng.random()

    def test_fewer_entries_than_k_b_matches_per_node_loop(self):
        # V = 4 < k_b = 5: every full row stops after its 4 entries, so the
        # level takes 4 uniforms per row, not k_b.
        src = rng_stream(4, "level")
        dists = src.random((4, 4)) + 0.1
        dists /= dists.sum(axis=1, keepdims=True)
        got_rng, ref_rng = rng_stream(4, "u"), rng_stream(4, "u")
        got = _sample_level(dists, 5, got_rng)
        assert got == _reference_draws(dists, 5, ref_rng)
        assert all(sorted(p) == [0, 1, 2, 3] for p in got)
        assert got_rng.random() == ref_rng.random()

    def test_mixed_support_matches_per_node_loop(self):
        # Rows with 1 and 3 positive entries (fewer than k_b = 4) between
        # full rows: the short rows stop early and the stream stays aligned.
        dists = np.array([
            [0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.2, 0.1],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0],
            [0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        ])
        got_rng, ref_rng = rng_stream(1, "mixed"), rng_stream(1, "mixed")
        got = _sample_level(dists, 4, got_rng)
        assert got == _reference_draws(dists, 4, ref_rng)
        assert [len(p) for p in got] == [4, 1, 3, 4]
        assert got_rng.random() == ref_rng.random()


class TestBuildTree:
    def test_point_mass_chain(self):
        # Token 0 always proposes token 1, which always proposes token 2, ...
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=3, budget=8)
        assert [n.token for n in tree.nodes] == [1, 2, 3]
        assert [n.parent for n in tree.nodes] == [-1, 0, 1]
        assert all(n.confidence == 1.0 for n in tree.nodes)

    def test_sampled_point_mass_chain_draws_once_per_node(self):
        # One positive entry per distribution: sampling stops after one
        # uniform per expanded node, short of k_b.
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        rng = rng_stream(0, "support")
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=3, budget=8, rng=rng)
        assert [n.token for n in tree.nodes] == [1, 2, 3]
        ref = rng_stream(0, "support")
        ref.random(3)
        assert rng.random() == ref.random()

    def test_top2_of_root(self):
        table = {0: [0.1, 0.0, 0.5, 0.15, 0.25]}
        for t in range(1, 5):
            table[t] = [0.2] * 5
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=1, budget=2)
        assert sorted(n.token for n in tree.nodes) == [2, 4]

    def test_budget3_matches_exhaustive_ranking(self):
        # Root (after token 0): A=1 (0.6), B=2 (0.4); A -> C=3 (0.9);
        # B -> E=4/F=5 (0.5 each). Exhaustive product ranking of every
        # generated node: A(0.6) > AC(0.54) > B(0.4) > BE=BF(0.2) > AD(0.06).
        table = {
            0: [0.0, 0.6, 0.4, 0.0, 0.0, 0.0],
            1: [0.0, 0.0, 0.0, 0.9, 0.1, 0.0],
            2: [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
        }
        for t in (3, 4, 5):
            table[t] = [1 / 6.0] * 6
        tree = build_tree(TableDrafter(table), _feat(), [0], k_b=2, D=2, budget=3)
        kept = {(n.token, round(n.confidence, 12)) for n in tree.nodes}
        assert kept == {(1, 0.6), (3, 0.54), (2, 0.4)}

    def test_bad_shape_rejected(self):
        target, draft = make_model_pair(CFG)
        feats = [target.feature_at([1, 2, 3, 4], 3)]
        with pytest.raises(RejectedInput):
            build_tree(draft, feats, [1, 2, 3, 4], k_b=1, D=2, budget=4)
        with pytest.raises(RejectedInput):
            build_tree(draft, feats, [1, 2, 3, 4], k_b=3, D=2, budget=2)

    def test_budget_and_structure_fuzz(self):
        """Sampled trees: node count <= budget, parents precede children,
        confidences multiply, stored probs come from the parent dist."""
        target, draft = make_model_pair(CFG)
        for run in range(25):
            rng = rng_stream(run, "fuzz")
            prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, CFG.window)]
            feats = [target.feature_at(prompt, CFG.window - 1)]
            tree = build_tree(draft, feats, prompt, CFG.branching, CFG.depth,
                              CFG.budget, rng=rng_stream(run, "draw"))
            assert 1 <= len(tree.nodes) <= CFG.budget
            for i, node in enumerate(tree.nodes):
                assert node.parent < i
                parent_conf = 1.0 if node.parent == -1 else tree.nodes[node.parent].confidence
                assert abs(node.confidence - parent_conf * node.prob) < 1e-12
                assert 1 <= node.depth <= CFG.depth
                if node.parent != -1:
                    assert node.depth == tree.nodes[node.parent].depth + 1

    def test_sampled_children_distinct_and_deterministic(self):
        target, draft = make_model_pair(CFG)
        prompt = [1, 2, 3, 4]
        feats = [target.feature_at(prompt, 3)]
        t1 = build_tree(draft, feats, prompt, 4, 3, 24, rng=rng_stream(0, "s"))
        t2 = build_tree(draft, feats, prompt, 4, 3, 24, rng=rng_stream(0, "s"))
        assert serialize_tree(t1) == serialize_tree(t2)
        kids = t1.children_of()
        for group in kids:
            toks = [t1.nodes[i].token for i in group]
            assert len(toks) == len(set(toks))

    @pytest.mark.parametrize("cfg, digest, forward_calls", [
        # Default config: k_b=4, D=5, budget=24, so pruning is active.
        (CFG, "b90d245f6f1e9e100d5add7fef1bb86f89d0a2d0645a53829a8b2938ca44b29f", 5715),
        (EngineConfig(vocab_size=1024, feat_dim=16),
         "3f1b973c0961b670548f1b5a30811335c69a59dce4b07b017d76bfa3906591f7", 5117),
    ])
    def test_sampled_trees_golden(self, cfg, digest, forward_calls):
        """200 sampled trees, each followed by the next draw of its rng,
        hash to recorded bytes with a recorded number of drafter calls:
        tree shape, probs and rng consumption are pinned across rewrites of
        the build loop."""
        h = hashlib.sha256()
        for draft, tree, rng in _golden_trees(cfg):
            h.update(serialize_tree(tree).encode())
            h.update(f"{rng.random()!r}\n".encode())
        assert h.hexdigest() == digest
        assert draft.forward_calls == forward_calls

    @pytest.mark.parametrize("cfg", [CFG, EngineConfig(vocab_size=1024, feat_dim=16)])
    def test_path_confidence_equals_leaf_confidence(self, cfg):
        """A path's confidence is its leaf's stored confidence and the
        numpy product of its probs, exactly."""
        for _, tree, _ in _golden_trees(cfg):
            conf_of_path = {}
            for i, node in enumerate(tree.nodes):
                toks, j = [], i
                while j != -1:
                    toks.append(tree.nodes[j].token)
                    j = tree.nodes[j].parent
                conf_of_path[tuple(toks[::-1])] = node.confidence
            for path in enumerate_paths(tree):
                assert path.confidence == conf_of_path[tuple(path.tokens)]
                assert path.confidence == float(np.prod(path.probs))

    def test_short_context_rejected(self):
        target, draft = make_model_pair(CFG)
        with pytest.raises(RejectedInput):
            build_tree(draft, [np.zeros(CFG.feat_dim)], [1], 2, 2, 4)


def _hand_tree():
    # 5 nodes: 0 and 1 are root children; 2,3 children of 0; 4 child of 1.
    nodes = [
        DraftNode(token=5, parent=-1, prob=0.6, confidence=0.6, depth=1),
        DraftNode(token=9, parent=-1, prob=0.4, confidence=0.4, depth=1),
        DraftNode(token=2, parent=0, prob=0.5, confidence=0.3, depth=2),
        DraftNode(token=7, parent=0, prob=0.2, confidence=0.12, depth=2),
        DraftNode(token=1, parent=1, prob=0.9, confidence=0.36, depth=2),
    ]
    root = np.full(10, 0.1)
    return DraftTree(nodes=nodes, root_dist=root, budget=5, branching=2, max_depth=2)


class TestEnumeratePaths:
    def test_single_chain_single_path(self):
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 3, 8)
        paths = enumerate_paths(tree)
        assert len(paths) == 1 and paths[0].tokens == [1, 2, 3]

    def test_perfect_binary_depth2_has_4_paths(self):
        table = {0: [0.0, 0.5, 0.5, 0.0, 0.0],
                 1: [0.0, 0.0, 0.0, 0.5, 0.5],
                 2: [0.0, 0.0, 0.0, 0.5, 0.5],
                 3: [0.2] * 5, 4: [0.2] * 5}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 2, 6)
        assert len(enumerate_paths(tree)) == 4

    def test_hand_traversal(self):
        paths = enumerate_paths(_hand_tree())
        assert [p.tokens for p in paths] == [[9, 1], [5, 2], [5, 7]]
        assert [round(p.confidence, 12) for p in paths] == [0.36, 0.3, 0.12]

    def test_confidence_is_prob_product(self):
        path = TokenPath([1, 2, 3], [0.5, 0.5, 0.4])
        assert abs(path.confidence - 0.1) < 1e-15


class TestLinearize:
    def test_chain_prefix_ancestors(self):
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 3, 8)
        linear = linearize(tree, [])
        assert linear.pending_len == 0
        assert linear.ancestors == [frozenset(), frozenset({0}), frozenset({0, 1})]

    def test_pending_prepended(self):
        table = {t: np.eye(6)[min(t + 1, 5)] for t in range(6)}
        tree = build_tree(TableDrafter(table), _feat(), [0], 2, 3, 8)
        linear = linearize(tree, [8, 9])
        assert len(linear.tokens) == 5
        assert linear.tokens[:2] == [8, 9]
        assert linear.ancestors[-1] == frozenset({0, 1, 2, 3})

    def test_ancestors_transitively_closed(self):
        target, draft = make_model_pair(CFG)
        for run in range(10):
            prompt = [int(t) for t in rng_stream(run, "p").integers(0, 64, 4)]
            feats = [target.feature_at(prompt, 3)]
            tree = build_tree(draft, feats, prompt, 4, 4, 16,
                              rng=rng_stream(run, "d"))
            linear = linearize(tree, [1, 2])
            for j, anc in enumerate(linear.ancestors):
                for a in anc:
                    assert a < j
                    assert linear.ancestors[a] <= anc


class TestSerializeTree:
    def test_line_format(self):
        text = serialize_tree(_hand_tree())
        lines = text.strip().split("\n")
        assert lines[0] == "0 -1 5 0.6"
        assert lines[4] == "4 1 1 0.9"
        assert len(lines) == 5
