"""Synthetic target/draft model pair."""

import numpy as np
import pytest

from specskip.core import cosine, rng_stream
from specskip.engine import EngineConfig
from specskip.errors import RejectedInput
from specskip.models import (draft_forward, make_model_pair, target_forward,
                             target_forward_masked)

CFG = EngineConfig()


@pytest.fixture(scope="module")
def pair():
    return make_model_pair(CFG)


class TestTargetModel:
    def test_feature_is_window_mean(self, pair):
        target, _ = pair
        tokens = [3, 1, 4, 1, 5, 9]
        i = 5
        expect = np.mean([target.mixing @ target.codebook.vectors[t]
                          for t in tokens[i - CFG.window + 1: i + 1]], axis=0)
        assert np.allclose(target.feature_at(tokens, i), expect)

    def test_feature_short_prefix(self, pair):
        target, _ = pair
        tokens = [7, 2]
        expect = np.mean([target.mixing @ target.codebook.vectors[t]
                          for t in tokens], axis=0)
        assert np.allclose(target.feature_at(tokens, 1), expect)

    def test_forward_pure(self, pair):
        target, _ = pair
        outs = target_forward(target, [3, 1, 4], [2, 2])
        assert np.array_equal(outs[0].dist, outs[1].dist)
        assert np.array_equal(outs[0].feature, outs[1].feature)

    def test_forward_counter(self, pair):
        target, _ = pair
        before = target.forward_passes
        target_forward(target, [3, 1, 4], [0, 1, 2])
        assert target.forward_passes == before + 1

    def test_forward_rerun_bit_identical(self):
        a = make_model_pair(CFG)[0]
        b = make_model_pair(CFG)[0]
        out_a = target_forward(a, [3, 1, 4], [2])[0]
        out_b = target_forward(b, [3, 1, 4], [2])[0]
        assert np.array_equal(out_a.dist, out_b.dist)

    def test_high_temperature_uniform(self):
        target = make_model_pair(EngineConfig(temperature=1e6))[0]
        dist = target.score_prefix([1, 2, 3]).dist
        tv = 0.5 * np.abs(dist - 1.0 / dist.size).sum()
        assert tv < 1e-3

    def test_empty_context_rejected(self, pair):
        with pytest.raises(RejectedInput):
            target_forward(pair[0], [], [0])

    def test_bad_position_rejected(self, pair):
        with pytest.raises(RejectedInput):
            target_forward(pair[0], [1, 2], [2])


class TestMaskedForward:
    def test_matches_linear_scoring(self, pair):
        """Tree-masked scoring must equal scoring each root-path prefix
        directly (the independent oracle for ancestor visibility)."""
        target, _ = pair
        context = [5, 2, 8, 1]
        # Hand-built block: a pending chain of 2 then a 3-node tree
        # (root children 10, 11; 12 is a child of 10).
        flat = [7, 3, 10, 11, 12]
        anc = [frozenset(), frozenset({0}), frozenset({0, 1}),
               frozenset({0, 1}), frozenset({0, 1, 2})]
        root_dist, outs = target_forward_masked(target, context, flat, anc)
        assert np.array_equal(root_dist, target.score_prefix(context).dist)
        prefixes = [[7], [7, 3], [7, 3, 10], [7, 3, 11], [7, 3, 10, 12]]
        for out, suffix in zip(outs, prefixes):
            oracle = target.score_prefix(context + suffix)
            assert np.allclose(out.dist, oracle.dist, atol=1e-12)
            assert np.allclose(out.feature, oracle.feature, atol=1e-12)

    def test_single_pass_counter(self, pair):
        target, _ = pair
        before = target.forward_passes
        target_forward_masked(target, [1, 2], [3, 4], [frozenset(), frozenset({0})])
        assert target.forward_passes == before + 1

    def test_short_prefix_positions(self, pair):
        target, _ = pair
        root_dist, outs = target_forward_masked(target, [6], [2], [frozenset()])
        oracle = target.score_prefix([6, 2])
        assert np.allclose(outs[0].dist, oracle.dist)
        assert np.allclose(outs[0].feature, oracle.feature)


class TestDraftModel:
    def test_epsilon_zero_equals_target(self):
        cfg = EngineConfig(epsilon=0.0)
        target, draft = make_model_pair(cfg)
        tokens = [4, 9, 2, 6, 1]
        feat = target.feature_at(tokens, len(tokens) - 1)
        q = target.dist_from_feature(feat)
        p = draft_forward(draft, [feat], [tokens[-1]])
        assert np.allclose(p, q, atol=1e-12)

    def test_epsilon_one_diverges(self):
        target, draft = make_model_pair(EngineConfig(epsilon=1.0))
        rng = rng_stream(0, "ctx")
        tvs = []
        for _ in range(1000):
            tokens = [int(t) for t in rng.integers(0, CFG.vocab_size, CFG.window)]
            feat = target.feature_at(tokens, len(tokens) - 1)
            q = target.dist_from_feature(feat)
            p = draft_forward(draft, [feat], [tokens[-1]])
            tvs.append(0.5 * np.abs(p - q).sum())
        assert np.mean(tvs) > 0.2

    def test_extend_feature_matches_target(self, pair):
        target, draft = pair
        tokens = [3, 1, 4, 1, 5]
        feat = target.feature_at(tokens, len(tokens) - 1)
        new = 9
        extended = draft.extend_feature(feat, tokens[-CFG.window], new)
        oracle = target.feature_at(tokens + [new], len(tokens))
        assert np.allclose(extended, oracle, atol=1e-12)

    @pytest.mark.parametrize("vocab", [64, 1024])
    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_batch_rows_equal_one_row_calls(self, vocab, n):
        """Each row of a batched call is bit-identical to a one-row call and
        to the per-row matrix-vector formula; forward_calls counts rows."""
        _, draft = make_model_pair(EngineConfig(vocab_size=vocab, feat_dim=16))
        rng = rng_stream(n, "batch")
        feats = rng.standard_normal((n, 16))
        last = [int(t) for t in rng.integers(0, vocab, n)]
        before = draft.forward_calls
        batch = draft.next_dist(feats, last)
        assert draft.forward_calls == before + n
        assert batch.shape == (n, vocab)
        for i in range(n):
            assert np.array_equal(batch[i], draft.next_dist(feats[i:i + 1], last[i:i + 1])[0])
            assert np.array_equal(batch[i], _one_row_dist(draft, feats[i], last[i]))

    def test_extend_feature_batch_equals_rows(self, pair):
        _, draft = pair
        rng = rng_stream(3, "extend")
        feats = rng.standard_normal((5, CFG.feat_dim))
        leaving = [int(t) for t in rng.integers(0, CFG.vocab_size, 5)]
        new = [int(t) for t in rng.integers(0, CFG.vocab_size, 5)]
        batch = draft.extend_feature(feats, leaving, new)
        for i in range(5):
            assert np.array_equal(batch[i], draft.extend_feature(feats[i], leaving[i], new[i]))

    def test_length_mismatch_rejected(self, pair):
        with pytest.raises(RejectedInput):
            draft_forward(pair[1], [np.zeros(CFG.feat_dim)], [1, 2])

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(RejectedInput):
            make_model_pair(EngineConfig(epsilon=1.5))


def _one_row_dist(draft, feature, last_token):
    """The drafter's formula for one row, with 1-d matrix-vector products."""
    vectors = draft.codebook.vectors
    base = draft.logit_scale * (vectors @ feature) / draft.target_temperature
    noise = draft.noise_scale * (draft._noise_head @ vectors[last_token])
    noise = noise / draft.smooth_temperature
    z = (1.0 - draft.epsilon) * base + draft.epsilon * noise
    z = np.exp(z - z.max())
    return z / z.sum()


class TestMakeModelPair:
    def test_deterministic(self):
        a = make_model_pair(CFG)
        b = make_model_pair(CFG)
        assert np.array_equal(a[0].mixing, b[0].mixing)
        assert np.array_equal(a[0].codebook.vectors, b[0].codebook.vectors)

    def test_seed_changes_parameters(self):
        a = make_model_pair(EngineConfig(seed=1))[0]
        b = make_model_pair(EngineConfig(seed=2))[0]
        assert a.mixing[0, 0] != b.mixing[0, 0]

    def test_run_does_not_change_parameters(self):
        a = make_model_pair(EngineConfig(run=0))[0]
        b = make_model_pair(EngineConfig(run=7))[0]
        assert np.array_equal(a.codebook.vectors, b.codebook.vectors)

    def test_dimensions_match_config(self):
        target, draft = make_model_pair(CFG)
        assert target.vocab_size == CFG.vocab_size
        assert target.codebook.dim == CFG.feat_dim
        assert target.window == CFG.window == draft.window

    def test_tiny_shapes_rejected(self):
        with pytest.raises(RejectedInput):
            make_model_pair(EngineConfig(vocab_size=3))

    def test_shared_codebook(self):
        target, draft = make_model_pair(CFG)
        assert target.codebook is draft.codebook


class TestFeatureLocality:
    def test_adjacent_similarity_decays_with_distance(self, pair):
        target, _ = pair
        rng = rng_stream(5, "loc")
        near, far = [], []
        for _ in range(200):
            tokens = [int(t) for t in rng.integers(0, CFG.vocab_size, 16)]
            feats = [target.feature_at(tokens, i) for i in range(8, 16)]
            near.append(cosine(feats[0], feats[1]))
            far.append(cosine(feats[0], feats[7]))
        assert np.mean(near) >= 0.5
        assert np.mean(near) > np.mean(far)
