"""The per-token functions call ufunc reductions and ndarray C methods
directly, never numpy's Python-level wrappers: ``x.max()``, ``x.sum()``,
``x.mean()``, ``np.cumsum``, ``np.searchsorted``, ``np.argpartition`` and
their kind each run a frame of ``numpy/_core/fromnumeric.py`` or
``numpy/_core/_methods.py`` that costs more than the reduction itself on
these small arrays.  Only the wrapper frames that these functions call
themselves count; a numpy routine may use the wrappers internally (the
prompt's ``rng.integers`` reaches ``np.prod``).  Likewise a request seeds
its rng streams without numpy's ``SeedSequence``."""

import os
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from specskip import cache, core, engine, models, schedule, select, tree, verify
from specskip.engine import FRESH, EngineConfig

WRAPPER_FILES = tuple(os.path.join("numpy", "_core", name)
                      for name in ("fromnumeric.py", "_methods.py"))

HOT = {fn.__code__ for fn in (
    core.rng_stream, core.sample_index, core.nearest_neighbors,
    models._softmax, models.TargetModel.feature_at, models.TargetModel.logprobs,
    models.target_forward_masked, models.normalize_columns, models.DraftModel.next_dist,
    models.DraftModel.extend_feature,
    tree.build_tree, tree._Level.step, tree._sample_level, tree.draw_path,
    tree.enumerate_paths, tree.TreePaths.order, tree.linearize,
    schedule.decide, schedule.path_similarity, verify.verify_tree, verify.pooled_mass,
    verify.accept, select.select_leaf, select.kept_length, select.truncate_path,
    cache.update, cache.retrieve_with_offset,
    engine.vvs_generate, engine.vanilla_ar, engine.compute_metrics)}


def _profile(codes, fn, *args):
    """Run fn(*args) under ``sys.setprofile``: the (caller, wrapper) pairs
    of wrapper frames called directly from a function in `codes`, and the
    functions of `codes` that ran."""
    seen: Counter = Counter()
    ran = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in codes:
            ran.add(frame.f_code)
        elif frame.f_code.co_filename.endswith(WRAPPER_FILES):
            caller = frame.f_back
            if caller is not None and caller.f_code in codes:
                seen[caller.f_code.co_name, frame.f_code.co_name] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen, ran


DYNAMIC = EngineConfig(policy="dynamic")
TINY = EngineConfig(vocab_size=16, feat_dim=4, max_new_tokens=3, window=1,
                    concentration=0.0, logit_scale=20.0, temperature=0.5,
                    branching=2, depth=2, budget=6, accept_mode="strict", seed=7)


def _requests():
    """One default dynamic VVS run, one V=1024 uniform run on stale
    features, whose skips draw one path each, one default uniform run
    whose skips select the confidence argmax from the whole tree, and one
    strict tiny AR+SD pair, each with its metrics."""
    stale = EngineConfig(vocab_size=1024, feat_dim=16, policy="uniform", interval=2,
                         feature_schedule=(FRESH, 0, 1), pool_k=16)
    argmax = EngineConfig(policy="uniform", interval=2, strategy="max_confidence")
    for config in (DYNAMIC, stale, argmax):
        engine.compute_metrics(engine.vvs_generate(config))
    pair = models.make_model_pair(TINY)
    for run in range(20):
        config = replace(TINY, run=run)
        for trace in (engine.vanilla_ar(config, pair),
                      engine.speculative_decode(config, pair)):
            engine.compute_metrics(trace, pair[0])


def test_no_numpy_wrapper_on_the_per_token_path():
    seen, ran = _profile(HOT, _requests)
    assert not seen, f"numpy wrappers called directly: {dict(seen)}"
    assert ran == HOT, f"not exercised: {sorted(c.co_name for c in HOT - ran)}"


def test_the_profile_sees_a_wrapper():
    def uses_wrappers(x):
        return x.max() + np.cumsum(x)[-1]

    seen, ran = _profile({uses_wrappers.__code__}, uses_wrappers, np.ones(3))
    assert ran == {uses_wrappers.__code__}
    assert ("uses_wrappers", "_amax") in seen and ("uses_wrappers", "cumsum") in seen


def test_requests_construct_no_seed_sequence(monkeypatch):
    """A dynamic VVS request and a tiny AR+SD pair, on prebuilt models, key
    every stream from its hash: no ``SeedSequence`` is made, directly or
    inside a bit generator."""
    made, streams = [], []

    def spy(real):
        def call(*args, **kwargs):
            made.append(real.__name__)
            return real(*args, **kwargs)
        return call

    def stream(seed, label):
        streams.append(core.rng_stream(seed, label))
        return streams[-1]

    dynamic_pair, tiny_pair = models.make_model_pair(DYNAMIC), models.make_model_pair(TINY)
    monkeypatch.setattr(np.random, "SeedSequence", spy(np.random.SeedSequence))
    monkeypatch.setattr(np.random, "default_rng", spy(np.random.default_rng))
    monkeypatch.setattr(engine, "rng_stream", stream)
    engine.vvs_generate(DYNAMIC, dynamic_pair)
    engine.vanilla_ar(TINY, tiny_pair)
    engine.speculative_decode(TINY, tiny_pair)
    assert made == []
    assert len(streams) >= 6
    assert not any(isinstance(g.bit_generator.seed_seq, np.random.bit_generator.SeedSequence)
                   for g in streams)
