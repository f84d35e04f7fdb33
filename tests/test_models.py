"""Synthetic target/draft model pair."""

import math

import numpy as np
import pytest

from specskip.core import cosine, rng_stream
from specskip.engine import EngineConfig, compute_metrics, vvs_generate
from specskip.errors import RejectedInput
from specskip.models import (make_model_pair, target_forward,
                             target_forward_masked)
from specskip.tree import build_tree, linearize

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
        a = target_forward(target, [3, 1, 4])
        b = target_forward(target, [3, 1, 4])
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.feature, b.feature)

    def test_forward_scores_last_position(self, pair):
        target, _ = pair
        out = target_forward(target, [3, 1, 4, 1, 5])
        oracle = target.score_prefix([3, 1, 4, 1, 5])
        assert np.array_equal(out.dist, oracle.dist)
        assert np.array_equal(out.feature, target.feature_at([3, 1, 4, 1, 5], 4))

    def test_forward_counter(self, pair):
        target, _ = pair
        before = target.forward_passes
        target_forward(target, [3, 1, 4])
        assert target.forward_passes == before + 1

    def test_forward_rerun_bit_identical(self):
        a = make_model_pair(CFG)[0]
        b = make_model_pair(CFG)[0]
        out_a = target_forward(a, [3, 1, 4])
        out_b = target_forward(b, [3, 1, 4])
        assert np.array_equal(out_a.dist, out_b.dist)

    def test_high_temperature_uniform(self):
        target = make_model_pair(EngineConfig(temperature=1e6))[0]
        dist = target.score_prefix([1, 2, 3]).dist
        tv = 0.5 * np.abs(dist - 1.0 / dist.size).sum()
        assert tv < 1e-3

    def test_empty_context_rejected(self, pair):
        target, _ = pair
        before = target.forward_passes
        with pytest.raises(RejectedInput):
            target_forward(target, [])
        assert target.forward_passes == before


def _root_paths(flat, parents):
    """Each position's root path (its own token last), walked through
    ``parents``."""
    paths = []
    for j, parent in enumerate(parents):
        paths.append((paths[parent] if parent != -1 else []) + [flat[j]])
    return paths


def _prefix_copy_forward(model, context, paths):
    """The masked forward as written before parent pointers: a copy of the
    whole prefix per position, whose last `window` tokens are gathered.
    The parent-pointer form's dists must equal these bits."""
    w = model.window
    windows = np.zeros((len(paths), w), dtype=np.intp)
    short = {}
    for j, path in enumerate(paths):
        prefix = list(context) + path
        if len(prefix) >= w:
            windows[j] = prefix[-w:]
        else:
            short[j] = model.feature_at(prefix, len(prefix) - 1)
    feats = model._mixed[:, windows].mean(axis=2)
    for j, feat in short.items():
        feats[:, j] = feat
    logits = model.logit_scale * (model.codebook.vectors @ feats) / model.temperature
    logits -= logits.max(axis=0)
    dists = np.exp(logits)
    dists /= dists.sum(axis=0)
    return dists


def _check_masked(target, context, flat, parents):
    dists = target_forward_masked(target, context, flat, parents)
    assert dists.shape == (target.vocab_size, len(flat))
    paths = _root_paths(flat, parents)
    assert np.array_equal(dists, _prefix_copy_forward(target, context, paths))
    for j, path in enumerate(paths):
        oracle = target.score_prefix(list(context) + path)
        # The dist comes from one (V, d) x (d, n) readout, which rounds
        # unlike score_prefix's (V, d) x (d,).
        assert np.allclose(dists[:, j], oracle.dist, rtol=0, atol=1e-12)


class TestMaskedForward:
    def test_matches_linear_scoring(self, pair):
        """Tree-masked scoring must equal scoring each root-path prefix
        directly (the independent oracle for parent visibility)."""
        target, _ = pair
        # Hand-built block: a pending chain of 2 then a 3-node tree
        # (root children 10, 11; 12 is a child of 10).
        _check_masked(target, [5, 2, 8, 1], [7, 3, 10, 11, 12], [-1, 0, 1, 1, 2])

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("n_pending", [0, 3])
    def test_sampled_trees_match_prefix_scoring(self, window, n_pending):
        cfg = EngineConfig(window=window)
        target, draft = make_model_pair(cfg)
        for run in range(8):
            rng = rng_stream(run, "masked")
            prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, 6)]
            tree = build_tree(draft, target.feature_at(prompt, 5), prompt,
                              cfg.branching, cfg.depth, cfg.budget, rng=rng)
            pending = [int(t) for t in rng.integers(0, cfg.vocab_size, n_pending)]
            linear = linearize(tree, pending)
            # Full contexts, and a one-token one shorter than window 4.
            for context in (prompt, prompt[-1:]):
                _check_masked(target, context, linear.tokens, linear.parents)

    def test_single_pass_counter(self, pair):
        target, _ = pair
        before = target.forward_passes
        target_forward_masked(target, [1, 2], [3, 4], [-1, 0])
        assert target.forward_passes == before + 1
        dists = target_forward_masked(target, [1, 2], [], [])
        assert target.forward_passes == before + 2
        assert dists.shape == (CFG.vocab_size, 0)

    def test_short_prefix_positions(self, pair):
        target, _ = pair
        _check_masked(target, [6], [2], [-1])
        _check_masked(target, [6, 1], [2, 5, 9, 4], [-1, 0, -1, 1])

    @pytest.mark.parametrize("parents", [[0], [-1, 1], [-1, 5], [-2, 0]])
    def test_parent_not_before_child_rejected(self, pair, parents):
        target, _ = pair
        with pytest.raises(RejectedInput):
            target_forward_masked(target, [1, 2], [3] * len(parents), parents)


class TestLogprobs:
    """The batched rescoring against the per-position ``score_prefix`` loop
    it replaces in ``compute_metrics``, bit for bit."""

    @staticmethod
    def _loop(target, prompt, tokens):
        context = list(prompt)
        out = []
        for tok in tokens:
            out.append(math.log(max(target.score_prefix(context).dist[tok], 1e-300)))
            context.append(tok)
        return out

    @pytest.mark.parametrize("vocab, dim, window", [(64, 8, 4), (1024, 16, 4),
                                                    (64, 8, 1), (1024, 16, 1)])
    def test_equals_score_prefix_loop(self, vocab, dim, window):
        target = make_model_pair(EngineConfig(vocab_size=vocab, feat_dim=dim,
                                              window=window))[0]
        rng = rng_stream(vocab + window, "logprobs")
        for n_prompt in (window, 1, 7):
            prompt = [int(t) for t in rng.integers(0, vocab, n_prompt)]
            tokens = [int(t) for t in rng.integers(0, vocab, 40)]
            got = target.logprobs(prompt, tokens)
            assert np.array_equal(got, self._loop(target, prompt, tokens))
            assert np.array_equal(target.logprobs(prompt, tokens[:2]),
                                  self._loop(target, prompt, tokens[:2]))

    def test_quality_proxy_of_a_generation(self):
        cfg = EngineConfig(policy="uniform", interval=2, max_new_tokens=48)
        target = make_model_pair(cfg)[0]
        trace = vvs_generate(cfg)
        loop = self._loop(target, trace.prompt, trace.final_tokens())
        assert compute_metrics(trace, target).quality_proxy == float(np.mean(loop))

    def test_floor_and_edges(self, pair):
        target, _ = pair
        hot = make_model_pair(EngineConfig(logit_scale=2000.0))[0]
        rng = rng_stream(0, "floor")
        prompt = [int(t) for t in rng.integers(0, 64, 4)]
        tokens = [int(t) for t in rng.integers(0, 64, 30)]
        got = hot.logprobs(prompt, tokens)
        assert min(got) == math.log(1e-300)
        assert got == self._loop(hot, prompt, tokens)
        assert target.logprobs([1], []) == []
        with pytest.raises(RejectedInput):
            target.logprobs([], [1])


class TestDraftModel:
    def test_epsilon_zero_equals_target(self):
        cfg = EngineConfig(epsilon=0.0)
        target, draft = make_model_pair(cfg)
        tokens = [4, 9, 2, 6, 1]
        feat = target.feature_at(tokens, len(tokens) - 1)
        q = target.dist_from_feature(feat)
        p = draft.next_dist(feat[None], [tokens[-1]])[0]
        assert np.allclose(p, q, atol=1e-12)

    def test_epsilon_one_diverges(self):
        target, draft = make_model_pair(EngineConfig(epsilon=1.0))
        rng = rng_stream(0, "ctx")
        tvs = []
        for _ in range(1000):
            tokens = [int(t) for t in rng.integers(0, CFG.vocab_size, CFG.window)]
            feat = target.feature_at(tokens, len(tokens) - 1)
            q = target.dist_from_feature(feat)
            p = draft.next_dist(feat[None], [tokens[-1]])[0]
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

    @pytest.mark.parametrize("features, last", [(np.zeros((1, 8)), [1, 2, 3]),
                                                 (np.zeros(8), [1])])
    def test_bad_batch_rejected_before_counting(self, pair, features, last):
        _, draft = pair
        before = draft.forward_calls
        with pytest.raises(RejectedInput):
            draft.next_dist(features, last)
        assert draft.forward_calls == before

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
