"""Synthetic target/draft model pair."""

import hashlib
import math

import numpy as np
import pytest

from specskip import models
from specskip.core import cosine, rng_stream
from specskip.engine import EngineConfig, compute_metrics, vvs_generate
from specskip.errors import RejectedInput
from specskip.models import (make_model_pair, normalize_columns, target_forward,
                             target_forward_masked)
from specskip.tree import build_tree, linearize, tree_shape

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
    whole prefix per column, the context alone in column 0 and the context
    plus each root path after it, whose last `window` tokens are gathered.
    The parent-pointer form's dists must equal these bits."""
    w = model.window
    windows = np.array([(list(context) + path)[-w:] for path in [[], *paths]],
                       dtype=np.intp)
    feats = model._mixed[:, windows].mean(axis=2)
    logits = model.logit_scale * (model.codebook.vectors @ feats) / model.temperature
    logits -= logits.max(axis=0)
    dists = np.exp(logits)
    dists /= dists.sum(axis=0)
    return dists


def _check_masked(target, context, flat, parents):
    """Every column, normalized in one block and in the first-child chains
    the verify walk normalizes, against the prefix-copy form (a (V, 1 + n)
    block with n >= 1) bit for bit, and each within 1e-12 of
    score_prefix."""
    shape = tree_shape(tuple(parents))
    readout = target_forward_masked(target, context, flat, shape)
    assert readout.shape == (target.vocab_size, 1 + len(flat))
    paths = _root_paths(flat, parents)
    expect = _prefix_copy_forward(target, context, paths)
    dists = normalize_columns(target, readout, np.arange(1 + len(flat)))
    assert np.array_equal(dists, expect.T)
    for slot in range(1 + len(flat)):
        chain = shape.chain(slot)
        assert np.array_equal(normalize_columns(target, readout, chain), expect.T[chain])
    for j, path in enumerate([[], *paths]):
        oracle = target.score_prefix(list(context) + path)
        # The dist comes from one (V, d) x (d, 1 + n) readout, which rounds
        # unlike score_prefix's (V, d) x (d,).
        assert np.allclose(dists[j], oracle.dist, rtol=0, atol=1e-12)


class TestMaskedForward:
    def test_matches_linear_scoring(self, pair):
        """Tree-masked scoring must equal scoring each root-path prefix
        directly (the independent oracle for parent visibility)."""
        target, _ = pair
        # Hand-built block: two skip-accepted tokens (7, 3) end the context,
        # then a 3-node tree (root children 10, 11; 12 is a child of 10).
        _check_masked(target, [5, 2, 8, 1, 7, 3], [10, 11, 12], [-1, -1, 0])

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_extra", [0, 1, 2, 3])
    def test_sampled_trees_match_prefix_scoring(self, window, n_extra):
        cfg = EngineConfig(window=window)
        target, draft = make_model_pair(cfg)
        for run in range(8):
            rng = rng_stream(run, "masked")
            prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, 6)]
            tree = build_tree(draft, target.feature_at(prompt, 5), prompt,
                              cfg.branching, cfg.depth, cfg.budget, rng=rng)
            extra = [int(t) for t in rng.integers(0, cfg.vocab_size, n_extra)]
            linear = linearize(tree)
            # Tokens after the tree's own context (skip-accepted ones) are
            # context too; contexts of more than and exactly one window.
            for context in (prompt + extra, (prompt + extra)[-window:]):
                _check_masked(target, context, linear.tokens, tree.shape.parents)

    def test_single_pass_counter(self, pair):
        target, _ = pair
        before = target.forward_passes
        target_forward_masked(target, [1, 2, 3, 4], [3, 4], tree_shape((-1, 0)))
        assert target.forward_passes == before + 1
        readout = target_forward_masked(target, [1, 2, 3, 4], [], tree_shape(()))
        assert target.forward_passes == before + 2
        assert readout.shape == (CFG.vocab_size, 1)
        dist = normalize_columns(target, readout, [0])[0]
        assert np.allclose(dist, target.score_prefix([1, 2, 3, 4]).dist,
                           rtol=0, atol=1e-12)

    def test_short_prefix_positions(self, pair):
        # A context shorter than the window is rejected before the pass is
        # counted; one exactly a window long is scored.
        target, _ = pair
        before = target.forward_passes
        for context in ([], [6], [6, 1, 2]):
            with pytest.raises(RejectedInput):
                target_forward_masked(target, context, [2], tree_shape((-1,)))
        assert target.forward_passes == before
        _check_masked(target, [6, 1, 2, 7], [2, 5, 9, 4], [-1, 0, -1, 1])

    @pytest.mark.parametrize("parents", [[0], [-1, 1], [-1, 5], [-2, 0]])
    def test_parent_not_before_child_rejected(self, pair, parents):
        # A hand-built block's shape comes from tree_shape, which rejects
        # it every time (a bad parents tuple is never memoized), before any
        # pass is counted.
        target, _ = pair
        before = target.forward_passes
        for _ in range(2):
            with pytest.raises(RejectedInput):
                target_forward_masked(target, [1, 2, 3, 4], [3] * len(parents),
                                      tree_shape(tuple(parents)))
        assert target.forward_passes == before

    def test_tokens_must_match_the_shape(self, pair):
        target, _ = pair
        before = target.forward_passes
        for flat in ([3], [3, 4, 5]):
            with pytest.raises(RejectedInput, match="align"):
                target_forward_masked(target, [1, 2, 3, 4], flat, tree_shape((-1, 0)))
        assert target.forward_passes == before


def _full_softmax(target, readout):
    """Every column of a readout normalized in one block, as the masked
    forward normalized its whole readout before it returned the readout
    alone: numpy's ``add.reduce`` sums a C-contiguous (V, k) block with
    k >= 2 down each column in row order."""
    z = readout.copy()
    z *= target.logit_scale
    z /= target.temperature
    z -= np.maximum.reduce(z, axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0, keepdims=True)
    return z


# The configs of the benchmark's three workloads: vvs-dynamic,
# vvs-v1024-stale and sd-tiny-pairs.
WORKLOAD_CONFIGS = [
    EngineConfig(policy="dynamic"),
    EngineConfig(vocab_size=1024, feat_dim=16, policy="uniform", interval=2,
                 feature_schedule=(-1, 0, 1), pool_k=16),
    EngineConfig(vocab_size=16, feat_dim=4, max_new_tokens=3, window=1, concentration=0.0,
                 logit_scale=20.0, temperature=0.5, branching=2, depth=2, budget=6,
                 accept_mode="strict", seed=7),
]


class TestNormalizeColumns:
    """Any set of a readout's columns, normalized as one block, has the
    bits of normalizing the whole readout, compared by ``tobytes``.  The
    subsets include every single column: ``add.reduce`` would sum one
    column pairwise, so the sequential sum is what makes them equal.

    A readout of one column is the exception: the old full-block softmax
    summed it pairwise, and ``normalize_columns`` sums it sequentially.
    Only the root column of an empty, hand-built tree is such a readout;
    the engine never builds one, since every tree has k_b >= 2 nodes."""

    @pytest.mark.parametrize("vocab, dim", [(16, 4), (64, 8), (1024, 16)])
    def test_random_blocks(self, vocab, dim):
        target, _ = make_model_pair(EngineConfig(vocab_size=vocab, feat_dim=dim))
        rng = np.random.default_rng(vocab)
        for width in range(2, 34):
            feats = rng.standard_normal((dim, width))
            feats /= np.linalg.norm(feats, axis=0)
            readout = target.codebook.vectors @ feats
            expect = _full_softmax(target, readout)
            subsets = [[j] for j in range(width)]
            subsets += [rng.choice(width, size=k, replace=False)
                        for k in rng.integers(2, width + 1, size=4)]
            for cols in [*subsets, range(width)]:
                cols = np.asarray(cols, dtype=np.intp)
                got = normalize_columns(target, readout, cols)
                assert got.tobytes() == expect.T[cols].tobytes(), (width, cols)

    @pytest.mark.parametrize("cfg", WORKLOAD_CONFIGS, ids=["v64", "v1024", "v16"])
    def test_sampled_tree_chains(self, cfg):
        """Every slot's first-child chain of sampled trees, after 0 to 2
        skip-accepted tokens."""
        target, draft = make_model_pair(cfg)
        for run in range(60):
            rng = rng_stream(run, "chains")
            prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, cfg.window + 2)]
            tree = build_tree(draft, target.feature_at(prompt, len(prompt) - 1), prompt,
                              cfg.branching, cfg.depth, cfg.budget, rng=rng)
            context = prompt + [int(t) for t in rng.integers(0, cfg.vocab_size, run % 3)]
            readout = target_forward_masked(target, context, linearize(tree).tokens,
                                            tree.shape)
            expect = _full_softmax(target, readout)
            for slot in range(readout.shape[1]):
                chain = tree.shape.chain(slot)
                got = normalize_columns(target, readout, chain)
                assert got.tobytes() == expect.T[chain].tobytes(), (run, slot)


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
        for n_prompt in (window, 7):
            prompt = [int(t) for t in rng.integers(0, vocab, n_prompt)]
            tokens = [int(t) for t in rng.integers(0, vocab, 40)]
            got = target.logprobs(prompt, tokens)
            assert np.array_equal(got, self._loop(target, prompt, tokens))
            assert np.array_equal(target.logprobs(prompt, tokens[:2]),
                                  self._loop(target, prompt, tokens[:2]))

    @pytest.mark.parametrize("vocab, dim, window", [(64, 8, 4), (1024, 16, 1)])
    @pytest.mark.parametrize("per_chunk", [1, 3, 7])
    def test_chunks_keep_every_bit(self, monkeypatch, vocab, dim, window, per_chunk):
        """With the float limit patched small the positions are scored in
        several chunks, each gather and readout within the limit, with the
        bits of one chunk; the workloads' sizes fit one chunk."""
        target = make_model_pair(EngineConfig(vocab_size=vocab, feat_dim=dim,
                                              window=window))[0]
        rng = rng_stream(vocab + per_chunk, "chunks")
        prompt = [int(t) for t in rng.integers(0, vocab, window)]
        tokens = [int(t) for t in rng.integers(0, vocab, 40)]

        class Gathers:
            """The target's mixed columns, recording each gather's floats."""
            def __init__(self, mixed):
                self.mixed, self.sizes = mixed, []

            def __len__(self):
                return len(self.mixed)

            def __getitem__(self, index):
                out = self.mixed[index]
                self.sizes.append(out.size)
                return out

        monkeypatch.setattr(target, "_mixed", Gathers(target._mixed))
        whole = target.logprobs(prompt, tokens)
        assert len(target._mixed.sizes) == 1
        limit = per_chunk * (dim * window + vocab)
        monkeypatch.setattr(models, "MAX_GATHER", limit)
        target._mixed.sizes.clear()
        got = target.logprobs(prompt, tokens)
        sizes = target._mixed.sizes
        assert got == whole and len(sizes) == -(-len(tokens) // per_chunk) > 1
        # A chunk of c positions gathers d * c * w floats and reads out c * V.
        assert all(size + size // (dim * window) * vocab <= limit for size in sizes)

    @pytest.mark.parametrize("cfg", WORKLOAD_CONFIGS, ids=["v64", "v1024", "v16"])
    def test_workloads_score_in_one_chunk(self, cfg):
        target = make_model_pair(cfg)[0]
        per_position = target.codebook.dim * cfg.window + cfg.vocab_size
        assert models.MAX_GATHER // per_position >= cfg.max_new_tokens

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
        assert target.logprobs([1, 2, 3, 4], []) == []
        # A prompt shorter than the window is rejected, tokens or none.
        for short in ([], [1], [1, 2, 3]):
            for toks in ([1], []):
                with pytest.raises(RejectedInput):
                    target.logprobs(short, toks)


class TestDraftModel:
    def test_epsilon_zero_equals_target(self):
        cfg = EngineConfig(epsilon=0.0)
        target, draft = make_model_pair(cfg)
        tokens = [4, 9, 2, 6, 1]
        out = target.score_prefix(tokens)
        q, feat = out.dist, out.feature
        p = draft.next_dist(feat[None], [tokens[-1]])[0]
        assert np.allclose(p, q, atol=1e-12)

    def test_epsilon_one_diverges(self):
        target, draft = make_model_pair(EngineConfig(epsilon=1.0))
        rng = rng_stream(0, "ctx")
        tvs = []
        for _ in range(1000):
            tokens = [int(t) for t in rng.integers(0, CFG.vocab_size, CFG.window)]
            out = target.score_prefix(tokens)
            q, feat = out.dist, out.feature
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

    def test_workload_parameters_pinned(self):
        """The codebook, mixing and noise-head bytes of the benchmark's
        models: request-level rng changes must not rebuild them."""
        h = hashlib.sha256()
        for cfg in WORKLOAD_CONFIGS:
            target, draft = make_model_pair(cfg)
            for array in (target.codebook.vectors, target.mixing, draft._noise_head):
                h.update(array.tobytes())
        assert h.hexdigest() == \
            "ab8456b8967f80fd59e8b74cc5e6a39e87bd5e4ca46f544a4b3a10edb6702d3f"

    @pytest.mark.parametrize("inside, outside, name", [
        ({"logit_scale": 8e307}, {"logit_scale": 1e308, "temperature": 0.5}, "logit_scale"),
        ({"logit_scale": -8e307}, {"logit_scale": -1e308, "temperature": 0.5}, "logit_scale"),
        ({"temperature": 1e-300}, {"logit_scale": 1e10, "temperature": 1e-300}, "logit_scale"),
        ({"noise_scale": 3e306}, {"noise_scale": 1e308}, "noise_scale")])
    def test_scales_near_the_float64_bound(self, inside, outside, name):
        """Settings inside the overflow bound decode without a NaN or a
        numpy warning (an error under this suite); settings past it are
        rejected by name: a target logit bound, which reads only settings,
        when the config is built, and the drafter's, which reads the noise
        head, when the models are built."""
        config = EngineConfig(max_new_tokens=16, policy="dynamic", **inside)
        assert len(vvs_generate(config).final_tokens()) == 16
        with pytest.raises(RejectedInput, match=f"{name}=.* overflows float64"):
            make_model_pair(EngineConfig(**outside))
        if name == "logit_scale":
            with pytest.raises(RejectedInput, match=f"{name}=.* overflows float64"):
                EngineConfig(**outside)

    def test_concentration_that_collapses_the_codebook(self):
        """A concentration of 1e20 builds a config, since its norms are
        finite, but drowns every codebook row's noise in the shared anchor,
        and the codebook rejects the coinciding rows."""
        config = EngineConfig(concentration=1e20)
        with pytest.raises(RejectedInput, match="pairwise distinct"):
            make_model_pair(config)


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
