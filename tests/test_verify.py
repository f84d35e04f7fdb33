"""Acceptance rules and single-pass tree verification."""

import numpy as np
import pytest

from specskip import verify
from specskip.core import EmbeddingCodebook, rng_stream
from specskip.engine import EngineConfig
from specskip.errors import DegenerateProposal
from specskip.models import make_model_pair
from specskip.tree import DraftNode, DraftTree, build_tree, linearize
from specskip.verify import (RelaxConfig, pooled_mass, relaxed_accept,
                             strict_accept, verify_tree)

from sd_oracle import tree_distribution, two_token_tv

FOUR_TOKEN_CB = EmbeddingCodebook(
    np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]]))


class TestStrictAccept:
    def test_equal_mass_always_accepts(self):
        rng = rng_stream(0, "a")
        q = np.array([0.3, 0.7])
        assert all(strict_accept(q, q, 1, rng) for _ in range(200))

    def test_zero_target_mass_always_rejects(self):
        rng = rng_stream(0, "b")
        q = np.array([0.0, 1.0])
        p = np.array([0.5, 0.5])
        assert not any(strict_accept(q, p, 0, rng) for _ in range(200))

    def test_monte_carlo_rate(self):
        rng = rng_stream(1, "mc")
        q = np.array([0.3, 0.7])
        p = np.array([0.6, 0.4])
        rate = np.mean([strict_accept(q, p, 0, rng) for _ in range(10000)])
        assert abs(rate - 0.5) <= 0.02

    def test_zero_proposal_mass_degenerate(self):
        with pytest.raises(DegenerateProposal):
            strict_accept(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 0,
                          rng_stream(0, "c"))


class TestRelaxedAccept:
    def test_delta_zero_is_strict_bitwise(self):
        cfg = RelaxConfig(delta=0.0, pool_k=4)
        rng = rng_stream(3, "q")
        for trial in range(500):
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            t = int(rng.integers(4))
            a = strict_accept(q, p, t, rng_stream(trial, "shared"))
            b = relaxed_accept(q, p, t, FOUR_TOKEN_CB, cfg,
                               rng_stream(trial, "shared"))
            assert a == b

    def test_full_pooling_always_accepts(self):
        cfg = RelaxConfig(delta=1.0, pool_k=4)
        rng = rng_stream(4, "full")
        q = np.array([0.1, 0.2, 0.3, 0.4])
        p = np.array([0.7, 0.1, 0.1, 0.1])
        assert pooled_mass(q, 0, FOUR_TOKEN_CB, cfg) == pytest.approx(1.0)
        assert all(relaxed_accept(q, p, 0, FOUR_TOKEN_CB, cfg, rng)
                   for _ in range(200))

    def test_hand_prefix_sum_and_rate(self):
        # Neighbors of token 0 are [0, 1]; q pools 0.2 + 0.15 = 0.35 and
        # stops because adding the next neighbor would exceed delta.
        cfg = RelaxConfig(delta=0.4, pool_k=4)
        q = np.array([0.2, 0.15, 0.5, 0.15])
        p = np.array([0.5, 0.3, 0.1, 0.1])
        assert pooled_mass(q, 0, FOUR_TOKEN_CB, cfg) == pytest.approx(0.35)
        rng = rng_stream(5, "rate")
        rate = np.mean([relaxed_accept(q, p, 0, FOUR_TOKEN_CB, cfg, rng)
                        for _ in range(10000)])
        assert abs(rate - 0.7) <= 0.02

    def test_proposed_token_always_pooled(self):
        # q(t) alone exceeds delta, yet t's own mass is never dropped.
        cfg = RelaxConfig(delta=0.1, pool_k=4)
        q = np.array([0.6, 0.2, 0.1, 0.1])
        assert pooled_mass(q, 0, FOUR_TOKEN_CB, cfg) == pytest.approx(0.6)


def _full_tree_outcome(cfg, run):
    target, draft = make_model_pair(cfg)
    prompt = [int(t) for t in rng_stream(run, "p").integers(0, cfg.vocab_size,
                                                            cfg.window)]
    feat = target.feature_at(prompt, cfg.window - 1)
    tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                      cfg.budget, rng=rng_stream(run, "d"))
    outcome = verify_tree(linearize(tree, []), target, prompt,
                          cfg.verify_mode(), rng_stream(run, "a"),
                          rng_stream(run, "r"))
    return tree, outcome


class TestVerifyTree:
    def test_perfect_drafter_accepts_full_depth(self):
        # A full tree (2 + 4 + 8 nodes), so the greedy walk can always reach
        # max depth.
        cfg = EngineConfig(epsilon=0.0, accept_mode="strict", branching=2,
                           depth=3, budget=14)
        for run in range(10):
            _, outcome = _full_tree_outcome(cfg, run)
            assert outcome.accept_length == 3
            assert outcome.terminal_origin == "bonus"

    def test_forced_rejection_resamples(self):
        # Extreme logit scale drives the softmax tail to exact zero.
        cfg = EngineConfig(vocab_size=8, feat_dim=3, logit_scale=2000.0)
        target, _ = make_model_pair(cfg)
        context = [1, 2, 3, 4]
        q_root = target.score_prefix(context).dist
        dead = int(np.argmin(q_root))
        assert q_root[dead] == 0.0
        node = DraftNode(token=dead, parent=-1, prob=1.0, confidence=1.0, depth=1)
        tree = DraftTree([node], root_dist=np.eye(8)[dead])
        outcome = verify_tree(linearize(tree, []), target, context, "strict",
                              rng_stream(0, "a"))
        assert outcome.accept_length == 0
        assert outcome.terminal_origin == "resampled"

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("context", [[5, 2, 8, 1, 7], [6]])
    def test_root_distribution_scored_only_when_read(self, monkeypatch, window, context):
        """Without pending tokens the walk starts from score_prefix of the
        context, bit for bit (an empty tree's bonus terminal is drawn from
        it); with pending tokens the context is not scored on its own."""
        target, _ = make_model_pair(EngineConfig(window=window))
        drawn_from, scored = [], []
        monkeypatch.setattr(verify, "sample_index",
                            lambda dist, rng: drawn_from.append(dist.copy()) or 0)
        score_prefix = target.score_prefix
        monkeypatch.setattr(target, "score_prefix",
                            lambda toks: scored.append(list(toks)) or score_prefix(toks))
        empty = DraftTree([], root_dist=np.full(target.vocab_size, 1 / target.vocab_size))
        outcome = verify_tree(linearize(empty, []), target, context, "strict",
                              rng_stream(0, "a"))
        assert outcome.terminal_origin == "bonus" and scored == [context[-window:]]
        assert np.array_equal(drawn_from[0], score_prefix(context).dist)
        verify_tree(linearize(empty, [3, 9]), target, context, "strict", rng_stream(0, "a"))
        assert len(scored) == 1

    def test_pending_ratified_with_features(self):
        cfg = EngineConfig()
        target, draft = make_model_pair(cfg)
        prompt = [3, 1, 4, 1]
        feat = target.feature_at(prompt, 3)
        tree = build_tree(draft, feat, prompt, 2, 2, 6, rng=rng_stream(0, "d"))
        pending = [5, 9]
        outcome = verify_tree(linearize(tree, pending), target, prompt,
                              cfg.verify_mode(), rng_stream(0, "a"))
        # Only the new tree tokens come back, and the feature is the target's
        # own at the terminal, with the ratified pending tokens before it.
        assert outcome.accept_length == len(outcome.accepted)
        full = prompt + pending + outcome.accepted + [outcome.terminal]
        assert np.array_equal(outcome.feature, target.feature_at(full, len(full) - 1))

    def test_single_forward_pass(self):
        cfg = EngineConfig()
        target, draft = make_model_pair(cfg)
        prompt = [3, 1, 4, 1]
        feat = target.feature_at(prompt, 3)
        tree = build_tree(draft, feat, prompt, 4, 3, 16, rng=rng_stream(1, "d"))
        before = target.forward_passes
        verify_tree(linearize(tree, []), target, prompt, "strict", rng_stream(1, "a"))
        assert target.forward_passes == before + 1


class TestBranchProbabilityOracle:
    def test_two_level_tree_matches_exhaustive_enumeration(self):
        cfg = EngineConfig(vocab_size=6, feat_dim=3, window=2, logit_scale=2.0)
        target, _ = make_model_pair(cfg)
        context = [2, 5]
        # Hand 2-level tree: root children 1, 4; node 1 has children 0, 3.
        d_root = np.array([0.1, 0.4, 0.1, 0.1, 0.25, 0.05])
        d_n1 = np.array([0.3, 0.05, 0.15, 0.3, 0.1, 0.1])
        nodes = [
            DraftNode(token=1, parent=-1, prob=0.4, confidence=0.4, depth=1,
                      dist=d_n1),
            DraftNode(token=4, parent=-1, prob=0.25, confidence=0.25, depth=1),
            DraftNode(token=0, parent=0, prob=0.3, confidence=0.12, depth=2),
            DraftNode(token=3, parent=0, prob=0.3, confidence=0.12, depth=2),
        ]
        tree = DraftTree(nodes, root_dist=d_root)
        oracle = tree_distribution(target, context, tree)
        assert abs(sum(oracle.values()) - 1.0) < 1e-9

        counts = {}
        n = 50_000
        linear = linearize(tree, [])
        for run in range(n):
            outcome = verify_tree(linear, target, context, "strict",
                                  rng_stream(run, "mc-a"), rng_stream(run, "mc-r"))
            key = (*outcome.accepted, outcome.terminal)
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - oracle.get(k, 0.0))
                       for k in set(counts) | set(oracle))
        assert tv <= 0.01


class TestExactIteration:
    @pytest.mark.parametrize("budget", [3, 4, 6])
    def test_two_tokens_match_the_target_exactly(self, budget):
        """Every draw of a whole strict SD iteration enumerated, each child
        count from the engine's rule: the first two emitted tokens follow
        the target's two-token distribution exactly, whether or not the
        budget (6 is the full k_b = 2, D = 2 tree) limits the tree."""
        cfg = EngineConfig(vocab_size=5, window=1, epsilon=0.5, seed=3, branching=2,
                           depth=2, budget=budget, accept_mode="strict")
        target, draft = make_model_pair(cfg)
        for context in ([0], [3]):
            assert two_token_tv(target, draft, context, cfg.branching, budget) <= 1e-12
