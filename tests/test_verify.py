"""Acceptance rules and single-pass tree verification."""

import numpy as np
import pytest

from specskip import verify
from specskip.core import EmbeddingCodebook, rng_stream
from specskip.engine import EngineConfig
from specskip.errors import DegenerateProposal, RejectedInput
from specskip.models import make_model_pair
from specskip.tree import build_tree, linearize
from specskip.verify import accept, pooled_mass, verify_tree

from sd_oracle import tree_distribution, two_token_tv
from token_rows import hand_tree

FOUR_TOKEN_CB = EmbeddingCodebook(
    np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]]))
STRICT = EngineConfig(accept_mode="strict")


class TestStrictAccept:
    """``accept`` on the target mass q(t) itself."""

    def test_equal_mass_always_accepts(self):
        rng = rng_stream(0, "a")
        q = np.array([0.3, 0.7])
        assert all(accept(q[1], q, 1, rng) for _ in range(200))

    def test_zero_target_mass_always_rejects(self):
        rng = rng_stream(0, "b")
        q = np.array([0.0, 1.0])
        p = np.array([0.5, 0.5])
        assert not any(accept(q[0], p, 0, rng) for _ in range(200))

    def test_monte_carlo_rate(self):
        rng = rng_stream(1, "mc")
        q = np.array([0.3, 0.7])
        p = np.array([0.6, 0.4])
        rate = np.mean([accept(q[0], p, 0, rng) for _ in range(10000)])
        assert abs(rate - 0.5) <= 0.02

    def test_zero_proposal_mass_degenerate(self):
        with pytest.raises(DegenerateProposal):
            accept(0.5, np.array([0.0, 1.0]), 0, rng_stream(0, "c"))


class TestRelaxedAccept:
    """``accept`` on ``pooled_mass``."""

    def test_delta_zero_is_strict_bitwise(self):
        rng = rng_stream(3, "q")
        for trial in range(500):
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            t = int(rng.integers(4))
            pooled = pooled_mass(q, t, FOUR_TOKEN_CB, 0.0, 4)
            assert pooled == q[t]
            a = accept(q[t], p, t, rng_stream(trial, "shared"))
            b = accept(pooled, p, t, rng_stream(trial, "shared"))
            assert a == b

    def test_full_pooling_always_accepts(self):
        rng = rng_stream(4, "full")
        q = np.array([0.1, 0.2, 0.3, 0.4])
        p = np.array([0.7, 0.1, 0.1, 0.1])
        pooled = pooled_mass(q, 0, FOUR_TOKEN_CB, 1.0, 4)
        assert pooled == pytest.approx(1.0)
        assert all(accept(pooled, p, 0, rng) for _ in range(200))

    def test_hand_prefix_sum_and_rate(self):
        # Neighbors of token 0 are [0, 1]; q pools 0.2 + 0.15 = 0.35 and
        # stops because adding the next neighbor would exceed delta.
        q = np.array([0.2, 0.15, 0.5, 0.15])
        p = np.array([0.5, 0.3, 0.1, 0.1])
        pooled = pooled_mass(q, 0, FOUR_TOKEN_CB, 0.4, 4)
        assert pooled == pytest.approx(0.35)
        rng = rng_stream(5, "rate")
        rate = np.mean([accept(pooled, p, 0, rng) for _ in range(10000)])
        assert abs(rate - 0.7) <= 0.02

    def test_proposed_token_always_pooled(self):
        # q(t) alone exceeds delta, yet t's own mass is never dropped.
        q = np.array([0.6, 0.2, 0.1, 0.1])
        assert pooled_mass(q, 0, FOUR_TOKEN_CB, 0.1, 4) == pytest.approx(0.6)

    def test_pooled_sum_matches_neighbour_loop_bitwise(self):
        """The pool is summed neighbour by neighbour, in ranking order, as
        Python floats: the value and type of a per-neighbour loop."""
        rng = rng_stream(6, "pool")
        codebook = EmbeddingCodebook(rng.standard_normal((64, 8)))
        for _ in range(300):
            q = rng.dirichlet(np.full(64, rng.choice([0.05, 0.5, 5.0])))
            t, k = int(rng.integers(64)), int(rng.integers(1, 33))
            delta = float(rng.choice([0.0, 0.05, 0.2, 1.0, rng.random()]))
            total = float(q[t])
            for nb in verify.nearest_neighbors(codebook, t, k)[1:]:
                if total + q[nb] > delta:
                    break
                total += float(q[nb])
            got = pooled_mass(q, t, codebook, delta, k)
            assert type(got) is float and got.hex() == total.hex()


def _full_tree_outcome(cfg, run):
    target, draft = make_model_pair(cfg)
    prompt = [int(t) for t in rng_stream(run, "p").integers(0, cfg.vocab_size,
                                                            cfg.window)]
    feat = target.feature_at(prompt, cfg.window - 1)
    tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                      cfg.budget, rng=rng_stream(run, "d"))
    outcome = verify_tree(linearize(tree), target, prompt, cfg, rng_stream(run, "a"),
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
        tree = hand_tree([-1], [dead], [1.0], np.eye(8)[dead])
        outcome = verify_tree(linearize(tree), target, context, STRICT,
                              rng_stream(0, "a"), rng_stream(0, "r"))
        assert outcome.accept_length == 0
        assert outcome.terminal_origin == "resampled"

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("context", [[5, 2, 8, 1, 7], [6, 0, 3, 2]])
    def test_root_distribution_scored_only_when_read(self, monkeypatch, window, context):
        """The walk's root is column 0 of the masked pass, with
        skip-accepted tokens ending the context or without (an empty tree's
        bonus terminal is drawn from it), within 1e-12 of score_prefix of
        that context; score_prefix itself is never called, and a context
        shorter than the window is rejected."""
        target, _ = make_model_pair(EngineConfig(window=window))
        drawn_from, scored, passes = [], [], []
        monkeypatch.setattr(verify, "sample_index",
                            lambda dist, rng: drawn_from.append(dist.copy()) or 0)
        score_prefix = target.score_prefix
        monkeypatch.setattr(target, "score_prefix", lambda toks: scored.append(list(toks)))
        masked = verify.target_forward_masked
        monkeypatch.setattr(verify, "target_forward_masked",
                            lambda *args: passes.append(masked(*args)) or passes[-1])
        empty = hand_tree([], [], [], np.full(target.vocab_size, 1 / target.vocab_size))
        for pending in ([], [3, 9]):
            outcome = verify_tree(linearize(empty), target, context + pending, STRICT,
                                  rng_stream(0, "a"), rng_stream(0, "r"))
            assert outcome.terminal_origin == "bonus"
            root = verify.normalize_columns(target, passes[-1], [0])[0]
            assert np.array_equal(drawn_from[-1], root)
            assert np.allclose(drawn_from[-1], score_prefix(context + pending).dist,
                               rtol=0, atol=1e-12)
        assert scored == [] and len(passes) == 2
        with pytest.raises(RejectedInput):
            verify_tree(linearize(empty), target, context[:window - 1], STRICT,
                        rng_stream(0, "a"), rng_stream(0, "r"))

    def test_first_children_normalize_one_chain(self, monkeypatch):
        """A walk that accepts only rank-0 children normalizes one block,
        the root's first-child chain: at most D + 1 columns."""
        cfg = EngineConfig(epsilon=0.0, accept_mode="strict", branching=2,
                           depth=3, budget=14)
        normalize = verify.normalize_columns
        blocks = []
        monkeypatch.setattr(verify, "normalize_columns",
                            lambda model, readout, cols: blocks.append(cols.tolist())
                            or normalize(model, readout, cols))
        for run in range(10):
            blocks.clear()
            tree, outcome = _full_tree_outcome(cfg, run)
            chain = tree.shape.chain(0).tolist()
            assert outcome.accepted == [int(tree.tokens[c - 1]) for c in chain[1:]]
            assert blocks == [chain] and len(chain) <= cfg.depth + 1

    def test_later_child_normalizes_its_own_chain(self, monkeypatch):
        """A child accepted at rank 1 starts a new block, its own chain (a
        leaf here, so one column), whose bits are those of the same column
        in a block of every column."""
        cfg = EngineConfig(vocab_size=8, feat_dim=3, logit_scale=2000.0)
        target, _ = make_model_pair(cfg)
        context = [1, 2, 3, 4]
        q_root = target.score_prefix(context).dist
        dead, best = int(np.argmin(q_root)), int(np.argmax(q_root))
        assert q_root[dead] == 0.0
        root_dist = np.zeros(8)
        root_dist[[dead, best]] = 0.5
        tree = hand_tree([-1, -1], [dead, best], [0.5, 0.5], root_dist)
        blocks, drawn_from, readouts = [], [], []
        normalize = verify.normalize_columns
        monkeypatch.setattr(verify, "normalize_columns",
                            lambda model, readout, cols: blocks.append(cols.tolist())
                            or readouts.append(readout) or normalize(model, readout, cols))
        monkeypatch.setattr(verify, "sample_index",
                            lambda dist, rng: drawn_from.append(dist.copy()) or 0)
        outcome = verify_tree(linearize(tree), target, context, STRICT,
                              rng_stream(0, "a"), rng_stream(0, "r"))
        assert outcome.accepted == [best] and outcome.terminal_origin == "bonus"
        assert blocks == [[0, 1], [2]]
        full = normalize(target, readouts[0], [0, 1, 2])
        assert drawn_from[0].tobytes() == full[2].tobytes()

    def test_pending_ratified_with_features(self):
        cfg = EngineConfig()
        target, draft = make_model_pair(cfg)
        prompt = [3, 1, 4, 1]
        feat = target.feature_at(prompt, 3)
        tree = build_tree(draft, feat, prompt, 2, 2, 6, rng=rng_stream(0, "d"))
        pending = [5, 9]
        outcome = verify_tree(linearize(tree), target, prompt + pending, cfg,
                              rng_stream(0, "a"), rng_stream(0, "r"))
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
        verify_tree(linearize(tree), target, prompt, STRICT, rng_stream(1, "a"),
                    rng_stream(1, "r"))
        assert target.forward_passes == before + 1


class TestPendingIsContext:
    @pytest.mark.parametrize("cfg", [
        EngineConfig(), STRICT, EngineConfig(vocab_size=1024, feat_dim=16),
        EngineConfig(vocab_size=1024, feat_dim=16, accept_mode="strict"),
    ], ids=["v64", "v64-strict", "v1024", "v1024-strict"])
    @pytest.mark.parametrize("n_pending", [0, 1, 2, 3])
    def test_pending_tokens_verify_as_context(self, monkeypatch, cfg, n_pending):
        """Skip-accepted (pending) tokens are plain context: a tree verified
        after the whole sequence, which ends in them, and after only its
        last ``window`` tokens gives the same outcome bit for bit: accepted
        tokens, terminal, origin and feature, the terminal drawn from the
        same distribution, and both rng streams left in the same state
        (strict acceptance rejects every root child often enough to draw
        some terminals from the root's distribution)."""
        drawn_from = []
        sample_index = verify.sample_index
        monkeypatch.setattr(verify, "sample_index",
                            lambda dist, rng: drawn_from.append(dist.tobytes())
                            or sample_index(dist, rng))
        target, draft = make_model_pair(cfg)
        for run in range(100):
            rng = rng_stream(run, "pending-context")
            seq = [int(t) for t in rng.integers(0, cfg.vocab_size, 2 * cfg.window + n_pending)]
            tree = build_tree(draft, target.feature_at(seq, len(seq) - 1), seq,
                              cfg.branching, cfg.depth, cfg.budget, rng=rng)
            results = []
            for context in (seq, seq[-cfg.window:]):
                streams = rng_stream(run, "a"), rng_stream(run, "r")
                o = verify_tree(linearize(tree), target, context, cfg, *streams)
                results.append((o.accepted, o.terminal, o.terminal_origin,
                                o.feature.tobytes(), drawn_from[-1],
                                [s.bit_generator.state for s in streams]))
            assert results[0] == results[1]


class TestBranchProbabilityOracle:
    def test_two_level_tree_matches_exhaustive_enumeration(self):
        cfg = EngineConfig(vocab_size=6, feat_dim=3, window=2, logit_scale=2.0,
                           accept_mode="strict")
        target, _ = make_model_pair(cfg)
        context = [2, 5]
        # Hand 2-level tree: root children 1, 4; node 1 has children 0, 3.
        d_root = np.array([0.1, 0.4, 0.1, 0.1, 0.25, 0.05])
        d_n1 = np.array([0.3, 0.05, 0.15, 0.3, 0.1, 0.1])
        tree = hand_tree([-1, -1, 0, 0], [1, 4, 0, 3], [0.4, 0.25, 0.3, 0.3], d_root,
                         [d_n1, None, None, None])
        oracle = tree_distribution(target, context, tree)
        assert abs(sum(oracle.values()) - 1.0) < 1e-9

        counts = {}
        n = 50_000
        linear = linearize(tree)
        for run in range(n):
            outcome = verify_tree(linear, target, context, STRICT,
                                  rng_stream(run, "mc-a"), rng_stream(run, "mc-r"))
            key = (*outcome.accepted, outcome.terminal)
            counts[key] = counts.get(key, 0) + 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - oracle.get(k, 0.0))
                       for k in set(counts) | set(oracle))
        assert tv <= 0.01


class TestExactIteration:
    @pytest.mark.parametrize("k_b, budget", [(2, 3), (2, 4), (2, 6), (3, 5), (3, 7)],
                             ids=["3", "4", "6", "k_b3-5", "k_b3-7"])
    def test_two_tokens_match_the_target_exactly(self, k_b, budget):
        """Every draw of a whole strict SD iteration enumerated, each child
        count from the engine's rule: the first two emitted tokens follow
        the target's two-token distribution exactly, whether or not the
        budget (6 is the full k_b = 2, D = 2 tree) limits the tree.  At
        k_b = 3, budgets 5 and 7 give the root children, by race rank, 2, 0,
        0 and 3, 1, 0 children."""
        cfg = EngineConfig(vocab_size=5, window=1, epsilon=0.5, seed=3, branching=k_b,
                           depth=2, budget=budget, accept_mode="strict")
        target, draft = make_model_pair(cfg)
        for context in ([0], [3]):
            assert two_token_tv(target, draft, context, cfg.branching, budget) <= 1e-12
