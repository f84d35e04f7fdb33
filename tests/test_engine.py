"""Decoding pipelines, counters, metrics, and trace serialization."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specskip import engine
from specskip.core import TokenSequence
from specskip.engine import (EngineConfig, GenerationTrace, compute_metrics,
                             config_from_mapping, speculative_decode,
                             trace_to_csv, vanilla_ar, vvs_generate)
from specskip.errors import DegenerateTrace, RejectedInput

FAST = dict(max_new_tokens=24)


def _spy(monkeypatch, name):
    """The calls of the engine's ``name``, one args tuple each."""
    calls, real = [], getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def check_counters(trace):
    """Raw-record recount of every counter invariant."""
    assert trace.n_tok == len(trace.tokens) == sum(i.emitted for i in trace.iterations)
    verify_iters = [i for i in trace.iterations if i.kind == "verify"]
    assert trace.n_fwd == len(verify_iters) == sum(i.forward_passes
                                                   for i in trace.iterations)
    assert trace.skip_count == sum(i.kind == "skip" for i in trace.iterations)
    assert len(trace.final_tokens()) == min(trace.n_tok, trace.config.max_new_tokens)
    prev_skip = False
    for it in trace.iterations:
        assert not (prev_skip and it.kind == "skip")
        prev_skip = it.kind == "skip"
    assert trace.iterations[0].kind == "verify"


class TestVanillaAR:
    def test_ten_tokens_ten_passes(self):
        trace = vanilla_ar(EngineConfig(max_new_tokens=10))
        metrics = compute_metrics(trace)
        assert trace.n_tok == 10 and trace.n_fwd == 10
        assert metrics.tpf == 1.0 and metrics.mal == 1.0
        check_counters(trace)

    def test_single_token(self):
        trace = vanilla_ar(EngineConfig(max_new_tokens=1))
        assert trace.n_tok == 1

    def test_deterministic(self):
        cfg = EngineConfig(max_new_tokens=12)
        assert vanilla_ar(cfg).tokens.tokens == vanilla_ar(cfg).tokens.tokens


class TestSpeculativeDecode:
    def test_perfect_drafter_tpf_four(self):
        # Full depth-3 tree and a perfect drafter: 3 accepts + bonus
        # per pass, so TPF is exactly 4.
        cfg = EngineConfig(epsilon=0.0, accept_mode="strict", branching=2,
                           depth=3, budget=14, max_new_tokens=16)
        trace = speculative_decode(cfg)
        assert compute_metrics(trace).tpf == 4.0
        assert all(i.emitted == 4 for i in trace.iterations)
        check_counters(trace)

    def test_useless_drafter_tpf_range(self):
        cfg = EngineConfig(epsilon=1.0, accept_mode="strict", **FAST)
        tpfs = [compute_metrics(speculative_decode(
            EngineConfig(epsilon=1.0, accept_mode="strict", run=r, **FAST))).tpf
            for r in range(20)]
        assert 1.0 <= np.mean(tpfs) < 2.0

    def test_baseline_tpf_equals_mal(self):
        for run in range(5):
            metrics = compute_metrics(speculative_decode(EngineConfig(run=run, **FAST)))
            assert metrics.tpf == pytest.approx(metrics.mal)
            assert metrics.skip_fraction == 0.0

    def test_accept_length_monotone_in_epsilon(self):
        means = []
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            mals = []
            for run in range(40):
                cfg = EngineConfig(epsilon=eps, accept_mode="strict", run=run,
                                   max_new_tokens=32)
                mals.append(compute_metrics(speculative_decode(cfg)).mal)
            means.append(np.mean(mals))
        assert all(a >= b for a, b in zip(means, means[1:]))


class TestVVS:
    def test_never_policy_bit_identical_to_baseline(self):
        for run in range(5):
            cfg = EngineConfig(run=run, **FAST)
            a = speculative_decode(cfg)
            b = vvs_generate(cfg)
            assert a.tokens.tokens == b.tokens.tokens
            assert a.tokens.origins == b.tokens.origins
            assert trace_to_csv(a) == trace_to_csv(b)

    def test_uniform_interval_two_halves_forwards(self):
        cfg = EngineConfig(policy="uniform", interval=2, **FAST)
        trace = vvs_generate(cfg)
        kinds = [i.kind for i in trace.iterations]
        assert len(kinds) >= 2
        assert kinds == [("verify", "skip")[j % 2] for j in range(len(kinds))]
        check_counters(trace)

    def test_skip_tokens_ratified_next_verify(self):
        cfg = EngineConfig(policy="uniform", interval=2, max_new_tokens=40)
        trace = vvs_generate(cfg)
        assert any(i.kind == "skip" for i in trace.iterations)
        origins = set(trace.tokens.origins)
        assert origins <= {"verified", "skip-accepted", "resampled", "bonus"}
        check_counters(trace)

    def test_dynamic_policy_runs_and_logs_similarity(self):
        cfg = EngineConfig(policy="dynamic", threshold=0.6, max_new_tokens=40)
        trace = vvs_generate(cfg)
        checked = [i for i in trace.iterations[1:] if i.similarity is not None]
        assert checked, "dynamic policy must log similarity on checked steps"
        check_counters(trace)

    def test_stale_schedule_falls_back_fresh_early(self):
        cfg = EngineConfig(feature_schedule=(3,), max_new_tokens=48)
        trace = speculative_decode(cfg)
        sources = [i.feature_source for i in trace.iterations if i.kind == "verify"]
        assert sources[0] == -1       # no old-enough entries yet
        assert 3 in sources           # later iterations really use offset 3
        check_counters(trace)

    @pytest.mark.parametrize("kwargs, writes", [
        ({}, False),
        (dict(feature_schedule=(-1, -1)), False),
        (dict(feature_schedule=(-1, 0)), True),
        (dict(policy="uniform", interval=2), True),
        (dict(policy="dynamic"), True),
    ])
    def test_feature_cache_written_only_when_it_can_be_read(self, monkeypatch,
                                                            kwargs, writes):
        """Under never with an all-fresh schedule nothing reads the cache,
        so nothing is written to it; a skip or a stale entry can read it."""
        calls = _spy(monkeypatch, "update")
        vvs_generate(EngineConfig(**kwargs, **FAST))
        assert bool(calls) == writes

    @pytest.mark.parametrize("kwargs", [
        dict(policy="never"), dict(policy="uniform", interval=2),
        dict(policy="uniform", interval=3), dict(policy="dynamic", threshold=0.5), dict(policy="dynamic", threshold=0.5, stride=1),
    ])
    def test_paths_enumerated_only_when_read(self, monkeypatch, kwargs):
        """None under never; none under uniform either, where a skip draws
        only the path it emits and builds no tree; one per decided step
        (every step after a verify) under dynamic, whose every step builds
        a tree."""
        calls, builds = _spy(monkeypatch, "enumerate_paths"), _spy(monkeypatch, "build_tree")
        trace = vvs_generate(EngineConfig(**kwargs, max_new_tokens=96))
        decided = sum(it.similarity is not None for it in trace.iterations)
        expected = {"never": 0, "uniform": 0, "dynamic": decided}
        assert len(calls) == expected[kwargs["policy"]]
        built = trace.n_fwd if kwargs["policy"] == "uniform" else len(trace.iterations)
        assert len(builds) == built
        assert trace.skip_count > 0 or kwargs["policy"] == "never"
        if kwargs["policy"] == "dynamic":
            steps = trace.iterations
            assert decided == sum(a.kind == "verify" for a in steps[:-1]) > 0

    @pytest.mark.parametrize("kwargs", [
        dict(strategy="max_confidence"), dict(logit_scale=400.0)],
        ids=["max_confidence", "short_support"])
    def test_uniform_skip_builds_the_tree_it_reads(self, monkeypatch, kwargs):
        """A uniform-policy skip builds and enumerates the whole tree when
        something reads it: the argmax selection, or the leaf count of a
        drafter whose rows can stop short at their support (logit_scale =
        400 puts it far past the full-support bound), whose tree's shape
        depends on draws off the path."""
        calls, builds = _spy(monkeypatch, "enumerate_paths"), _spy(monkeypatch, "build_tree")
        draws = _spy(monkeypatch, "draw_path")
        cfg = EngineConfig(policy="uniform", interval=2, max_new_tokens=48, **kwargs)
        assert engine.make_model_pair(cfg)[1].full_support == ("logit_scale" not in kwargs)
        trace = vvs_generate(cfg)
        assert trace.skip_count > 0 and draws == []
        assert len(builds) == len(trace.iterations)
        assert len(calls) == trace.skip_count

    def test_generation_builds_no_config(self, monkeypatch):
        """A config is checked once, when built: no generation checks it."""
        configs = [EngineConfig(**FAST), EngineConfig(policy="uniform", **FAST)]
        calls = []
        monkeypatch.setattr(EngineConfig, "__post_init__", lambda cfg: calls.append(cfg))
        for cfg in configs:
            vanilla_ar(cfg)
            vvs_generate(cfg)
        speculative_decode(configs[0])
        assert calls == []
        EngineConfig()
        assert len(calls) == 1


class TestMetrics:
    def test_arithmetic_relation(self):
        trace = GenerationTrace(
            config=EngineConfig(), prompt=[0, 1, 2, 3],
            tokens=TokenSequence([0] * 28, ["verified"] * 28),
            iterations=[], n_tok=28, n_fwd=10)
        trace.iterations = [type("R", (), {"kind": "verify", "emitted": 3,
                                           "forward_passes": 1})()
                            for _ in range(10)]
        metrics = compute_metrics(trace)
        assert metrics.tpf == pytest.approx(2.8)

    def test_no_forwards_degenerate(self):
        trace = GenerationTrace(config=EngineConfig(), prompt=[0],
                                tokens=TokenSequence(), iterations=[],
                                n_tok=0, n_fwd=0)
        with pytest.raises(DegenerateTrace):
            compute_metrics(trace)

    def test_quality_proxy_finite(self):
        metrics = compute_metrics(speculative_decode(EngineConfig(**FAST)))
        assert math.isfinite(metrics.quality_proxy)
        assert metrics.quality_proxy < 0.0


class TestSerialization:
    def test_trace_line_format(self):
        trace = speculative_decode(EngineConfig(**FAST))
        lines = trace_to_csv(trace).strip().split("\n")[1:]
        assert len(lines) == len(trace.iterations)
        first = lines[0].split(",")
        assert first[0] == "1" and first[1] == "verify"

    def test_csv_header_and_rows(self):
        trace = vvs_generate(EngineConfig(policy="uniform", interval=2, **FAST))
        text = trace_to_csv(trace)
        rows = text.strip().split("\n")
        assert rows[0].startswith("index,kind,emitted")
        assert len(rows) == len(trace.iterations) + 1

    def test_reruns_identical(self):
        cfg = EngineConfig(policy="dynamic", threshold=0.6, **FAST)
        assert trace_to_csv(vvs_generate(cfg)) == trace_to_csv(vvs_generate(cfg))

    @pytest.mark.parametrize("policy, kwargs, digest", [
        ("never", {},
         "574d0f7aeaaaf60e6e42b403b0e6645db33c01208815286290858d19fb7a988a"),
        ("uniform", dict(interval=2, feature_schedule=(-1, 0, 1)),
         "e0094065c337fa4e72a298b796e87aea16ff601e1fca6ef446a85860371876c9"),
        ("dynamic", {},
         "a5900397985150b3ecfe14df9cfa683af342bba3b8aa5579a38320abcc8d1587"),
        # Stale lookups that underflow and fall back to the fresh feature:
        # 3 of 16 verifies here, and one among pending tokens below.
        ("never", dict(feature_schedule=(3,)),
         "2f57d83ec2ca6f7be96667fa5bf8d27ba84a4eae3ef5fcd40127599a00206b94"),
        ("uniform", dict(interval=2, feature_schedule=(0, 3)),
         "a117ec54d229b199cb04caf43d7d3c7463ba98a0f678b9bb7288e9af14a1f083")],
        ids=["never", "uniform", "dynamic", "never-underflow", "uniform-underflow"])
    def test_trace_csv_golden(self, policy, kwargs, digest):
        # Pins the trace bytes for a fixed seed: a change that moves rng
        # consumption, tokens or the schema must re-record these digests.
        cfg = EngineConfig(seed=11, max_new_tokens=64, policy=policy, **kwargs)
        text = trace_to_csv(vvs_generate(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_v1024_stale_golden(self):
        # The benchmark's vvs-v1024-stale config: pins the tokens, origins
        # and trace bytes of four runs at V = 1024, where the verify pass
        # normalizes only a few of its columns.
        cfg = EngineConfig(vocab_size=1024, feat_dim=16, policy="uniform", interval=2,
                           feature_schedule=(-1, 0, 1), pool_k=16)
        digest = hashlib.sha256()
        for run in range(4):
            trace = vvs_generate(replace(cfg, run=run))
            digest.update(repr((trace.tokens.tokens, trace.tokens.origins)).encode())
            digest.update(trace_to_csv(trace).encode())
        assert digest.hexdigest() == (
            "69ff83a5195b308b3fe23d38e4532832c3c119a96a4424f2e4904987aeec6333")


class TestValidateTypes:
    @pytest.mark.parametrize("field, value", [
        ("vocab_size", "64"), ("vocab_size", True), ("vocab_size", 64.0),
        ("delta", "0.2"), ("delta", False), ("truncate", 1), ("policy", 3),
        ("feature_schedule", [-1]), ("feature_schedule", (0.5,)),
        ("feature_schedule", (True,))])
    def test_mismatch_names_field(self, field, value):
        with pytest.raises(RejectedInput, match=field):
            EngineConfig(**{field: value})

    def test_float_field_takes_int(self):
        cfg = EngineConfig(delta=0, temperature=2, epsilon=1)
        assert cfg.delta == 0 and vvs_generate(replace(cfg, **FAST)).n_tok >= 24


class TestValidateModes:
    """Settings are checked once, when the config is built; the scheduler,
    selector and verifier settings only where their mode reads them."""

    @pytest.mark.parametrize("values, message", [
        ({"policy": "sometimes"}, "unknown skip policy"),
        ({"policy": "uniform", "interval": "1"}, "interval"),
        ({"policy": "dynamic", "alpha": "0"}, "alpha"),
        ({"policy": "dynamic", "alpha": "1.5"}, "alpha"),
        ({"policy": "dynamic", "stride": "3"}, "stride"),
        ({"strategy": "best"}, "unknown selection strategy"),
        ({"accept_mode": "relaxed", "pool_k": "0"}, "pool size"),
        ({"vocab_size": "4"}, "pool_k"),
        ({"vocab_size": "16", "pool_k": "17"}, "pool_k"),
        ({"feature_schedule": ""}, "feature schedule cannot be empty"),
        ({"vocab_size": "4097"}, "vocab_size <= 4096"),
        ({"feat_dim": "1025"}, "feat_dim <= 1024"),
        ({"window": "1025"}, "window <= 1024"),
        # Each factor within its own limit, but the first verify pass would
        # gather 1024 * 4097 * 1024 floats (34 GB).
        ({"feat_dim": "1024", "window": "1024", "branching": "64", "depth": "2",
          "budget": "4096"}, r"1024 \* 4097 \* 1024 = 4296015872 floats")],
        ids=["unknown-policy", "uniform-interval", "dynamic-alpha-zero",
             "dynamic-alpha-above-one", "dynamic-stride", "unknown-strategy",
             "relaxed-pool-below-one", "relaxed-default-pool-v4", "relaxed-pool-above-vocab",
             "empty-feature-schedule", "vocab-above-limit", "feat-dim-above-limit",
             "window-above-limit", "verify-gather-above-limit"])
    def test_rejected(self, values, message):
        with pytest.raises(RejectedInput, match=message):
            config_from_mapping(values)

    def test_verify_gather_limit_is_inclusive(self):
        # 1024 * (1 + 1023) * 16 floats is exactly the limit; building a
        # config allocates nothing.
        at_limit = dict(feat_dim=1024, window=16, branching=32, depth=2, budget=1023)
        assert EngineConfig(**at_limit).budget == 1023
        with pytest.raises(RejectedInput, match="verify pass"):
            EngineConfig(**{**at_limit, "window": 17})

    def test_replace_checks_the_new_config(self):
        with pytest.raises(RejectedInput, match="interval"):
            replace(EngineConfig(), policy="uniform", interval=1)

    @pytest.mark.parametrize("values", [
        {"policy": "never", "interval": "1"},
        {"policy": "dynamic", "interval": "0"},
        {"policy": "uniform", "alpha": "0", "stride": "3"},
        {"policy": "never", "alpha": "1.5", "stride": "0"},
        {"accept_mode": "strict", "pool_k": "0"},
        {"accept_mode": "strict", "vocab_size": "4"},
        {"vocab_size": "8", "pool_k": "8"}],
        ids=["never-interval", "dynamic-interval", "uniform-alpha-stride",
             "never-alpha-stride", "strict-pool", "strict-v4", "pool-equals-vocab"])
    def test_out_of_scope_values_accepted(self, values):
        cfg = config_from_mapping({**values, "max_new_tokens": "4"})
        assert vvs_generate(cfg).n_tok >= 4


@settings(max_examples=500, deadline=None)
@given(vocab_size=st.integers(4, 16), feat_dim=st.integers(2, 4),
       window=st.integers(1, 3), epsilon=st.floats(0.0, 1.0),
       branching=st.integers(2, 4), depth=st.integers(1, 4), budget=st.integers(2, 16),
       accept_mode=st.sampled_from(["strict", "relaxed"]), delta=st.floats(0.0, 1.0),
       pool_k=st.integers(1, 16),
       policy=st.sampled_from(["never", "uniform", "dynamic"]), interval=st.integers(1, 5),
       threshold=st.floats(-1.0, 1.0), alpha=st.floats(0.0, 1.0), stride=st.integers(1, 3),
       strategy=st.sampled_from(["uniform", "max_confidence"]), truncate=st.booleans(),
       max_new_tokens=st.integers(1, 8), seed=st.integers(0, 3),
       feature_schedule=st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(tuple))
def test_a_config_that_validates_runs(**settings_):
    """Small configs are either rejected when built or complete a run and
    its metrics."""
    try:
        cfg = EngineConfig(**settings_)
    except RejectedInput:
        return
    compute_metrics(vvs_generate(cfg))


class TestConfigFromMapping:
    def test_unknown_key_named(self):
        with pytest.raises(RejectedInput, match="verbosity"):
            config_from_mapping({"verbosity": "3"})

    def test_coercion(self):
        cfg = config_from_mapping({"vocab_size": "32", "delta": "0.1",
                                   "truncate": "false",
                                   "feature_schedule": "-1,0"})
        assert cfg.vocab_size == 32 and cfg.delta == 0.1
        assert cfg.truncate is False
        assert cfg.feature_schedule == (-1, 0)

    def test_bad_bool_rejected(self):
        with pytest.raises(RejectedInput):
            config_from_mapping({"truncate": "maybe"})

    @pytest.mark.parametrize("raw", [5, 0.5, True, None])
    def test_non_iterable_tuple_value_rejected(self, raw):
        with pytest.raises(RejectedInput, match="feature_schedule"):
            config_from_mapping({"feature_schedule": raw})
