"""Decoding pipelines, counters, metrics, and trace serialization."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specskip.core import TokenSequence
from specskip.engine import (EngineConfig, GenerationTrace, compute_metrics,
                             config_from_mapping, speculative_decode,
                             trace_to_csv, vanilla_ar, vvs_generate)
from specskip.errors import DegenerateTrace, RejectedInput

FAST = dict(max_new_tokens=24)


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

    def test_policy_validation(self):
        with pytest.raises(RejectedInput):
            EngineConfig(policy="uniform", interval=1).validate()
        with pytest.raises(RejectedInput):
            EngineConfig(feature_schedule=()).validate()


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
         "a6da644d8cffd74eb08d343e30a1376cea22ecf85939a833fb9d68b434afdd25"),
        ("uniform", dict(interval=2, feature_schedule=(-1, 0, 1)),
         "7c9b301ce5e21a9876db30457ddb4a4fb03e3a87676faaecc59082fd46a8069c"),
        ("dynamic", {},
         "9b97b52fc4951a899f4eb2dece61c59d7ccaf285d0695d12ad0ab2f07616ba24"),
        # Stale lookups that underflow and fall back to the fresh feature:
        # 3 of 21 verifies here, and one among pending tokens below.
        ("never", dict(feature_schedule=(3,)),
         "2219dc831e2069e97e982900a8a622c0776e08d1dfe012f6e3f6a82ec106719a"),
        ("uniform", dict(interval=2, feature_schedule=(0, 3)),
         "44c926db21884e9a83bca84cbc3d10d3e986d72d1ad90c75afdbcb52175e895c")])
    def test_trace_csv_golden(self, policy, kwargs, digest):
        # Pins the trace bytes for a fixed seed: a change that moves rng
        # consumption, tokens or the schema must re-record these digests.
        cfg = EngineConfig(seed=11, max_new_tokens=64, policy=policy, **kwargs)
        text = trace_to_csv(vvs_generate(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestValidateTypes:
    @pytest.mark.parametrize("field, value", [
        ("vocab_size", "64"), ("vocab_size", True), ("vocab_size", 64.0),
        ("delta", "0.2"), ("delta", False), ("truncate", 1), ("policy", 3),
        ("feature_schedule", [-1]), ("feature_schedule", (0.5,)),
        ("feature_schedule", (True,))])
    def test_mismatch_names_field(self, field, value):
        with pytest.raises(RejectedInput, match=field):
            EngineConfig(**{field: value}).validate()

    def test_float_field_takes_int(self):
        cfg = EngineConfig(delta=0, temperature=2, epsilon=1).validate()
        assert cfg.delta == 0 and vvs_generate(replace(cfg, **FAST)).n_tok >= 24


class TestValidateModes:
    """The scheduler, selector and verifier settings are checked once, in
    validate, and only where their mode reads them."""

    @pytest.mark.parametrize("values, message", [
        ({"policy": "sometimes"}, "unknown skip policy"),
        ({"policy": "uniform", "interval": "1"}, "interval"),
        ({"policy": "dynamic", "alpha": "0"}, "alpha"),
        ({"policy": "dynamic", "alpha": "1.5"}, "alpha"),
        ({"policy": "dynamic", "stride": "3"}, "stride"),
        ({"log_similarity": "true", "alpha": "0"}, "alpha"),
        ({"strategy": "best"}, "unknown selection strategy"),
        ({"accept_mode": "relaxed", "pool_k": "0"}, "pool size"),
        ({"vocab_size": "4"}, "pool_k"),
        ({"vocab_size": "16", "pool_k": "17"}, "pool_k")],
        ids=["unknown-policy", "uniform-interval", "dynamic-alpha-zero",
             "dynamic-alpha-above-one", "dynamic-stride", "logged-alpha",
             "unknown-strategy", "relaxed-pool-below-one", "relaxed-default-pool-v4",
             "relaxed-pool-above-vocab"])
    def test_rejected(self, values, message):
        with pytest.raises(RejectedInput, match=message):
            config_from_mapping(values)

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
       feature_schedule=st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(tuple),
       log_similarity=st.booleans())
def test_a_config_that_validates_runs(**settings_):
    """Small configs either fail validate or complete a run and its metrics."""
    cfg = EngineConfig(**settings_)
    try:
        cfg.validate()
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
