"""Skip scheduling: decay weights, path similarity, and decide()."""

import numpy as np
import pytest

from specskip.core import EmbeddingCodebook, cosine, rng_stream
from specskip.engine import EngineConfig
from specskip.errors import RejectedInput
from specskip.harness import sample_similarity_gaps
from specskip.models import make_model_pair
from specskip.schedule import (STRIDE2_SIMILARITY_TOLERANCE, SkipPolicy,
                               decay_weights, decide, path_similarity)
from specskip.tree import TokenPath, build_tree, enumerate_paths

POSITIVE_CB = EmbeddingCodebook(
    np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]))


def _paths(*token_lists):
    return [TokenPath(list(toks), [0.5] * len(toks)) for toks in token_lists]


class TestDecayWeights:
    def test_uniform_limit(self):
        assert np.allclose(decay_weights(1.0, 3), [1 / 3] * 3)

    def test_hand_value(self):
        assert np.allclose(decay_weights(0.5, 2), [2 / 3, 1 / 3])

    def test_single_position(self):
        assert np.allclose(decay_weights(0.8, 1), [1.0])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(RejectedInput):
            decay_weights(0.0, 3)

    def test_sum_and_monotonicity(self):
        rng = rng_stream(0, "w")
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 0.999))
            length = int(rng.integers(1, 12))
            w = decay_weights(alpha, length)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(np.diff(w) < 0) or length == 1


class TestPathSimilarity:
    def test_identical_paths_give_one(self):
        # Two leaves sharing every token is impossible in a real tree, so
        # feed duplicates directly.
        paths = _paths([0, 1], [0, 1])
        sim = path_similarity(paths, POSITIVE_CB, alpha=0.8)
        assert sim.value == pytest.approx(1.0) and not sim.degenerate

    def test_orthogonal_single_depth(self):
        cb = EmbeddingCodebook(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sim = path_similarity(_paths([0], [1]), cb, alpha=0.8)
        assert sim.value == pytest.approx(0.0)

    def test_hand_weighted_mean(self):
        paths = _paths([0, 1], [1, 2], [2, 0])
        vecs = POSITIVE_CB.vectors
        level = [np.mean([cosine(vecs[a], vecs[b]) for a, b in
                          [(toks[0], other[0])
                           for i, toks in enumerate([[0, 1], [1, 2], [2, 0]])
                           for other in [[0, 1], [1, 2], [2, 0]][i + 1:]]])
                 for toks in [[0]]][0]
        depth1 = np.mean([cosine(vecs[1], vecs[2]), cosine(vecs[1], vecs[0]),
                          cosine(vecs[2], vecs[0])])
        expect = (2 / 3) * level + (1 / 3) * depth1
        sim = path_similarity(paths, POSITIVE_CB, alpha=0.5)
        assert sim.value == pytest.approx(expect, abs=1e-12)

    def test_stride_downsamples_paths(self):
        paths = _paths([0], [1], [2], [3])
        full = path_similarity(paths, POSITIVE_CB, alpha=0.8, stride=1)
        strided = path_similarity(paths, POSITIVE_CB, alpha=0.8, stride=2)
        oracle = cosine(POSITIVE_CB.vectors[0], POSITIVE_CB.vectors[2])
        assert strided.value == pytest.approx(oracle)
        assert full.value != strided.value

    def test_closed_form_matches_pair_loop(self):
        def pair_loop(paths, codebook, alpha, stride):
            retained = paths[::stride]
            depth = min(len(p) for p in retained)
            weights = decay_weights(alpha, depth)
            value = 0.0
            for level in range(depth):
                sims = [cosine(codebook.vectors[a.tokens[level]],
                               codebook.vectors[b.tokens[level]])
                        for i, a in enumerate(retained) for b in retained[i + 1:]]
                value += weights[level] * (sum(sims) / len(sims))
            return float(np.clip(value, -1.0, 1.0))

        cfg = EngineConfig()
        target, draft = make_model_pair(cfg)
        cases = [_paths([0, 1, 2], [0, 1, 3], [0, 2, 2], [3, 3, 3], [0, 1])]
        for run in range(40):
            prompt = [int(t) for t in
                      rng_stream(run, "p").integers(0, cfg.vocab_size, cfg.window)]
            feat = target.feature_at(prompt, cfg.window - 1)
            tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                              cfg.budget, rng=rng_stream(run, "d"))
            cases.append(enumerate_paths(tree))
        checked = 0
        for paths in cases:
            for stride in (1, 2):
                if len(paths[::stride]) < 2:
                    continue
                sim = path_similarity(paths, target.codebook, cfg.alpha, stride)
                assert abs(sim.value - pair_loop(paths, target.codebook, cfg.alpha,
                                                 stride)) <= 1e-12
                checked += 1
        assert checked > 40

    def test_lone_retained_path_degenerate(self):
        sim = path_similarity(_paths([0], [1]), POSITIVE_CB, alpha=0.8, stride=2)
        assert sim.degenerate and sim.value == 1.0

    def test_ragged_paths_use_shortest_depth(self):
        paths = _paths([0, 1, 2], [1])
        sim = path_similarity(paths, POSITIVE_CB, alpha=0.5)
        assert sim.value == pytest.approx(
            cosine(POSITIVE_CB.vectors[0], POSITIVE_CB.vectors[1]))


class TestDecide:
    def test_never_policy(self):
        policy = SkipPolicy(kind="never")
        assert not any(decide(policy, _paths([0], [1]), POSITIVE_CB)
                       for _ in range(19))

    def test_uniform_i2_alternates(self):
        policy = SkipPolicy(kind="uniform", interval=2)
        pattern = [decide(policy, _paths([0], [1]), POSITIVE_CB)
                   for _ in range(8)]
        assert pattern == [False, True] * 4

    def test_uniform_counts_over_120(self):
        for interval in (2, 3, 4):
            policy = SkipPolicy(kind="uniform", interval=interval)
            skips = sum(decide(policy, _paths([0], [1]), POSITIVE_CB)
                        for _ in range(120))
            assert skips == 120 // interval

    def test_dynamic_floor_threshold_alternates(self):
        policy = SkipPolicy(kind="dynamic", threshold=0.0)
        pattern = [decide(policy, _paths([0], [1]), POSITIVE_CB)
                   for _ in range(8)]
        assert pattern == [False, True] * 4

    def test_dynamic_unreachable_threshold_never_skips(self):
        policy = SkipPolicy(kind="dynamic", threshold=1.0 + 1e-9)
        assert not any(decide(policy, _paths([0], [1]), POSITIVE_CB)
                       for _ in range(19))

    def test_similarity_logged_on_dynamic_checks(self):
        policy = SkipPolicy(kind="dynamic", threshold=0.9)
        decide(policy, _paths([0], [1]), POSITIVE_CB)
        assert policy.last_similarity is None  # first step: guard, no check
        decide(policy, _paths([0], [1]), POSITIVE_CB)
        assert policy.last_similarity is not None

    def test_guard_invariance_fuzz(self):
        rng = rng_stream(3, "fuzz")
        for trial in range(300):
            kind = ["uniform", "dynamic"][trial % 2]
            policy = SkipPolicy(kind=kind, interval=int(rng.integers(2, 6)),
                                threshold=float(rng.uniform(-1, 1)))
            prev = False
            for _ in range(29):
                toks = rng.integers(0, 4, size=(3, 2))
                skip = decide(policy, _paths(*toks.tolist()), POSITIVE_CB)
                assert not (skip and prev)
                prev = skip
            assert not decide(SkipPolicy(kind=kind), _paths([0], [1]),
                              POSITIVE_CB)  # fresh policy verifies first

    def test_unknown_kind_rejected(self):
        with pytest.raises(RejectedInput):
            SkipPolicy(kind="sometimes")


class TestStrideFidelity:
    def test_gap_within_frozen_tolerance_and_decisions_agree(self):
        # Bounds on the mean and p99, not on a sample max, which moves with
        # the window of runs and with any change to the draft draws.
        cfg = EngineConfig()
        gaps = sample_similarity_gaps(cfg, trees=1000)
        assert len(gaps) > 900
        assert gaps.mean() <= 0.04
        assert np.quantile(gaps, 0.99) <= STRIDE2_SIMILARITY_TOLERANCE

        target, draft = make_model_pair(cfg)
        agree = total = 0
        for run in range(300):
            prompt = [int(t) for t in
                      rng_stream(cfg.seed, f"run{run}/prompt").integers(
                          0, cfg.vocab_size, cfg.window)]
            feat = target.feature_at(prompt, cfg.window - 1)
            tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                              cfg.budget,
                              rng=rng_stream(cfg.seed, f"run{run}/draft"))
            paths = enumerate_paths(tree)
            s1 = path_similarity(paths, target.codebook, cfg.alpha, 1)
            s2 = path_similarity(paths, target.codebook, cfg.alpha, 2)
            if s1.degenerate or s2.degenerate:
                continue
            total += 1
            agree += (s1.value >= cfg.threshold) == (s2.value >= cfg.threshold)
        assert total > 200
        assert agree / total >= 0.9
