"""Decoding pipelines and their metrics.

Vanilla autoregressive decoding has its own loop.  Baseline speculative
decoding (draft then always verify) and the partial verification-skipping
pipeline, where some iterations accept a drafted path outright and the
following verification step ratifies it (post verification) while
restoring exact conditioning, share one draft-and-verify loop.

Counters follow the device-independent speedup measure: TPF is generated
tokens per target forward pass, with prompt prefill and post-hoc quality
scoring excluded from the pass count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .cache import FeatureCache, retrieve_latest, retrieve_with_offset, update
from .core import (ORIGIN_SAMPLED, ORIGIN_SKIP, ORIGIN_VERIFIED, TokenSequence,
                   rng_stream, sample_index)
from .errors import CacheUnderflow, DegenerateTrace, RejectedInput
from .models import TargetModel, make_model_pair, target_forward
# path_similarity is unused here, but bench/tracing.py wraps
# specskip.engine.path_similarity by name.
from .schedule import SkipPolicy, decide, path_similarity  # noqa: F401
from .select import select_leaf, select_path, truncate_path
from .tree import (MAX_FEAT_DIM, MAX_GATHER, MAX_VOCAB, MAX_WINDOW, build_tree,
                   clamped_budget, draw_path, enumerate_paths, full_shape, linearize)
from .verify import verify_tree

FRESH = -1  # feature-schedule marker: use the latest VerifyOutcome feature


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of the models, tree, verifier, scheduler, and selector.

    The only home of these settings and their defaults: the pipeline
    modules read them from the config, which checks them when it is built
    (``EngineConfig(...)`` or ``replace``).  A mode's own settings are
    checked only under that mode: ``interval`` under the uniform policy,
    ``alpha`` and ``stride`` under the dynamic one, and ``pool_k`` under
    relaxed acceptance, where it must not exceed ``vocab_size``.
    """

    # toy models
    vocab_size: int = 64
    feat_dim: int = 8
    window: int = 4
    temperature: float = 1.0
    logit_scale: float = 4.0
    concentration: float = 3.6
    epsilon: float = 0.3
    noise_scale: float = 4.0
    # draft tree
    branching: int = 4
    depth: int = 5
    budget: int = 24
    # verification
    accept_mode: str = "relaxed"   # "strict" | "relaxed"
    delta: float = 0.2
    pool_k: int = 8
    # scheduling
    policy: str = "never"          # "never" | "uniform" | "dynamic"
    interval: int = 3
    threshold: float = 0.75
    alpha: float = 0.8
    stride: int = 2
    # selection at skipped steps
    strategy: str = "uniform"      # "uniform" | "max_confidence"
    truncate: bool = True
    # run shape
    max_new_tokens: int = 128
    seed: int = 0
    run: int = 0                   # varies sampling streams, not parameters
    # feature sourcing per verify iteration, cycled; -1 means fresh,
    # s >= 0 means cached features with extra staleness s
    feature_schedule: tuple = (FRESH,)

    def __post_init__(self):
        for name, kinds in _FIELD_KINDS:
            kind = type(getattr(self, name))
            if kind not in kinds:
                raise RejectedInput(f"{name} must be {kinds[0].__name__}, not {kind.__name__}")
        if any(type(s) is not int for s in self.feature_schedule):
            raise RejectedInput("feature_schedule must hold ints")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise RejectedInput(f"{name} must be finite")
        if self.vocab_size < 4 or self.feat_dim < 2 or self.window < 1:
            raise RejectedInput("vocab_size >= 4, feat_dim >= 2, window >= 1 required")
        if self.vocab_size > MAX_VOCAB or self.feat_dim > MAX_FEAT_DIM or self.window > MAX_WINDOW:
            raise RejectedInput(f"vocab_size <= {MAX_VOCAB}, feat_dim <= {MAX_FEAT_DIM}, "
                                f"window <= {MAX_WINDOW} required")
        if self.temperature <= 0:
            raise RejectedInput("temperature must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise RejectedInput("epsilon must lie in [0, 1]")
        if self.branching < 2 or self.depth < 1 or self.budget < self.branching:
            raise RejectedInput("invalid tree shape")
        # Rejects a tree too large to build, as build_tree would, or whose
        # verify pass would gather too large a (feat_dim, 1 + nodes, window) array.
        nodes = clamped_budget(min(self.branching, self.vocab_size), self.depth, self.budget)
        gather = self.feat_dim * (1 + nodes) * self.window
        if gather > MAX_GATHER:
            raise RejectedInput(f"feat_dim * (1 + nodes) * window = {self.feat_dim} * {1 + nodes} * "
                                f"{self.window} = {gather} floats exceeds the verify pass limit "
                                f"{MAX_GATHER}")
        if self.accept_mode not in ("strict", "relaxed"):
            raise RejectedInput(f"unknown accept mode {self.accept_mode!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise RejectedInput("delta must lie in [0, 1]")
        if self.max_new_tokens < 1:
            raise RejectedInput("max_new_tokens must be >= 1")
        if not self.feature_schedule:
            raise RejectedInput("feature schedule cannot be empty")
        if any(s < FRESH for s in self.feature_schedule):
            raise RejectedInput("feature schedule offsets must be >= -1")
        if self.policy not in ("never", "uniform", "dynamic"):
            raise RejectedInput(f"unknown skip policy {self.policy!r}")
        if self.policy == "uniform" and self.interval < 2:
            raise RejectedInput("uniform skip interval must be >= 2")
        if self.policy == "dynamic" and not 0.0 < self.alpha <= 1.0:
            raise RejectedInput("alpha must lie in (0, 1]")
        if self.policy == "dynamic" and self.stride not in (1, 2):
            raise RejectedInput("stride must be 1 or 2")
        if self.strategy not in ("uniform", "max_confidence"):
            raise RejectedInput(f"unknown selection strategy {self.strategy!r}")
        if self.accept_mode == "relaxed":
            if self.pool_k < 1:
                raise RejectedInput("pool size must be >= 1")
            if self.pool_k > self.vocab_size:
                raise RejectedInput(f"pool_k={self.pool_k} exceeds vocab_size={self.vocab_size}")


_FLOAT_FIELDS = tuple(f.name for f in fields(EngineConfig) if isinstance(f.default, float))
# Each field takes exactly its default's type (so no bool for an int); a
# float field also takes an int.
_FIELD_KINDS = tuple((f.name, (float, int) if type(f.default) is float else (type(f.default),))
                     for f in fields(EngineConfig))


@dataclass
class IterationRecord:
    index: int
    kind: str                  # "verify" | "skip"
    emitted: int
    accept_length: int = 0
    similarity: float | None = None
    forward_passes: int = 0
    feature_source: int = FRESH


@dataclass
class GenerationTrace:
    config: EngineConfig
    prompt: list[int]
    tokens: TokenSequence               # everything emitted, in emission order
    iterations: list[IterationRecord]
    n_tok: int = 0
    n_fwd: int = 0
    draft_forwards: int = 0
    skip_count: int = 0

    def final_tokens(self) -> list[int]:
        """Emitted sequence clipped to the generation budget; counters keep
        the full final iteration."""
        return self.tokens.tokens[: self.config.max_new_tokens]


@dataclass(frozen=True)
class Metrics:
    tpf: float
    mal: float
    skip_fraction: float
    quality_proxy: float
    n_tok: int
    n_fwd: int


class _Streams:
    """Named rng streams, created on first use (generator setup is not free
    and short runs touch only a few of them)."""

    def __init__(self, config: EngineConfig):
        self._seed = config.seed
        self._prefix = f"run{config.run}/"
        self._cache: dict[str, np.random.Generator] = {}

    def __getitem__(self, name: str) -> np.random.Generator:
        gen = self._cache.get(name)
        if gen is None:
            gen = rng_stream(self._seed, self._prefix + name)
            self._cache[name] = gen
        return gen


def _make_prompt(config: EngineConfig, rng: np.random.Generator) -> list[int]:
    # Fixed-length seeded prompt; length = context window so the drafter's
    # sliding window is always full.
    return rng.integers(0, config.vocab_size, config.window).tolist()


def vanilla_ar(config: EngineConfig, models=None) -> GenerationTrace:
    """One target forward pass per generated token; TPF is exactly 1."""
    target = models[0] if models else make_model_pair(config)[0]
    streams = _Streams(config)
    prompt = _make_prompt(config, streams["prompt"])
    context = list(prompt)
    tokens = TokenSequence()
    iterations = []
    n_fwd = 0
    for t in range(config.max_new_tokens):
        out = target_forward(target, context)
        n_fwd += 1
        tok = sample_index(out.dist, streams["ar"])
        context.append(tok)
        tokens.append(tok, ORIGIN_SAMPLED)
        iterations.append(IterationRecord(index=t, kind="verify", emitted=1,
                                          accept_length=0, forward_passes=1))
    return GenerationTrace(config=config, prompt=prompt, tokens=tokens,
                           iterations=iterations, n_tok=len(tokens), n_fwd=n_fwd)


def vvs_generate(config: EngineConfig, models=None) -> GenerationTrace:
    """Partial verification-skipping loop; with policy="never" it is
    baseline speculative decoding."""
    target, draft = models if models else make_model_pair(config)
    streams = _Streams(config)
    prompt = _make_prompt(config, streams["prompt"])
    policy = SkipPolicy(config)
    codebook = target.codebook

    seq: list[int] = list(prompt)          # prompt + all emitted tokens
    emitted = TokenSequence()
    cache = FeatureCache()

    # Only a skip or a stale schedule entry reads the cache; when neither
    # can happen, nothing is written to it.
    cache_read = config.policy != "never" or any(s != FRESH for s in config.feature_schedule)

    # The feature the next draft conditions on, at the last token of `seq`.
    # Prefill caches the prompt's at step 0; it is not counted as a
    # decode-phase forward pass.
    draft_feat = target.feature_at(prompt, len(prompt) - 1)
    if cache_read:
        update(cache, len(prompt), draft_feat, step=0)

    # A uniform-policy skip decides without a tree, and it draws only the
    # path it emits when nothing else reads the tree: under the uniform
    # strategy, from a drafter whose every tree has one shape.
    path_shape = None
    if config.policy == "uniform" and config.strategy == "uniform" and draft.full_support:
        path_shape = full_shape(draft, config.branching, config.depth, config.budget)

    iterations: list[IterationRecord] = []
    n_fwd = 0
    skip_count = 0
    step = 0
    draft_calls_start = draft.forward_calls
    while len(emitted) < config.max_new_tokens:
        step += 1
        # The tree is built before the decision only when the decision reads
        # its paths, and its paths are enumerated only when something reads
        # them: the decision or a skip's selection.
        tree = paths = None
        if policy.reads_paths:
            tree = build_tree(draft, draft_feat, seq, config.branching,
                              config.depth, config.budget, rng=streams["draft"])
            paths = enumerate_paths(tree)
        skip = decide(policy, paths, codebook)

        if skip and path_shape is not None:
            chosen = draw_path(draft, draft_feat, seq, config.branching, path_shape,
                               select_leaf(path_shape, config.truncate, streams["select"]),
                               streams["draft"])
        else:
            if tree is None:
                tree = build_tree(draft, draft_feat, seq, config.branching,
                                  config.depth, config.budget, rng=streams["draft"])
            if skip:
                if paths is None:
                    paths = enumerate_paths(tree)
                chosen = select_path(paths, config.strategy, streams["select"])
                if config.truncate:
                    chosen = truncate_path(chosen, paths)

        if not skip:
            # Skip-accepted tokens are the tail of `seq`: context the pass
            # ratifies as it scores the tree.
            outcome = verify_tree(linearize(tree), target, seq, config,
                                  streams["accept"], streams["residual"])
            n_fwd += 1
            new_tokens = outcome.accepted + [outcome.terminal]
            seq += new_tokens
            for tok in outcome.accepted:
                emitted.append(tok, ORIGIN_VERIFIED)
            emitted.append(outcome.terminal, outcome.terminal_origin)
            if cache_read:
                update(cache, len(seq), outcome.feature, step)

            # The feature for the next draft, per the cycled schedule.
            source = config.feature_schedule[(n_fwd - 1) % len(config.feature_schedule)]
            draft_feat = outcome.feature
            if source != FRESH:
                try:
                    # The paper-style offset s counts from the step before
                    # this one, hence the +1 against the freshly written step.
                    # Fewer positions with features at that cutoff than
                    # tokens just emitted is an underflow, which falls back
                    # to the fresh feature.
                    draft_feat = retrieve_with_offset(cache, len(new_tokens),
                                                      source + 1).feature
                except CacheUnderflow:
                    source = FRESH

            iterations.append(IterationRecord(
                index=step, kind="verify", emitted=len(new_tokens),
                accept_length=outcome.accept_length,
                similarity=policy.last_similarity, forward_passes=1,
                feature_source=source))
        else:
            skip_count += 1
            seq += chosen
            for tok in chosen:
                emitted.append(tok, ORIGIN_SKIP)
            # The latest cached (stale) feature stands in for the unverified
            # positions; the prompt's entry means there always is one.
            draft_feat = retrieve_latest(cache).feature
            iterations.append(IterationRecord(
                index=step, kind="skip", emitted=len(chosen),
                similarity=policy.last_similarity, forward_passes=0))

    return GenerationTrace(config=config, prompt=prompt, tokens=emitted,
                           iterations=iterations, n_tok=len(emitted),
                           n_fwd=n_fwd, skip_count=skip_count,
                           draft_forwards=draft.forward_calls - draft_calls_start)


def speculative_decode(config: EngineConfig, models=None) -> GenerationTrace:
    """Baseline draft-and-always-verify loop (skip policy forced to never)."""
    if config.policy != "never":
        config = replace(config, policy="never")
    return vvs_generate(config, models=models)


def compute_metrics(trace: GenerationTrace, target: TargetModel | None = None) -> Metrics:
    """Derive TPF/MAL/skip fraction and the target-likelihood quality proxy.

    Quality re-scores the emitted sequence under the target model; those
    scoring passes never enter the forward-pass counters.
    """
    if trace.n_fwd == 0:
        raise DegenerateTrace("no target forward passes recorded")
    if target is None:
        target = make_model_pair(trace.config)[0]
    verify_iters = [it for it in trace.iterations if it.kind == "verify"]
    verify_emitted = sum(it.emitted for it in verify_iters)
    mal = verify_emitted / len(verify_iters)
    tpf = trace.n_tok / trace.n_fwd
    skip_fraction = trace.skip_count / len(trace.iterations)

    logprobs = target.logprobs(trace.prompt, trace.final_tokens())
    quality = float("nan")
    if logprobs:
        quality = float(np.add.reduce(np.array(logprobs)) / len(logprobs))
    return Metrics(tpf=tpf, mal=mal, skip_fraction=skip_fraction,
                   quality_proxy=quality, n_tok=trace.n_tok, n_fwd=trace.n_fwd)


TRACE_FIELDS = ["index", "kind", "emitted", "accept_length", "similarity",
                "forward_passes", "feature_source"]


def trace_to_csv(trace: GenerationTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_FIELDS)
    for it in trace.iterations:
        writer.writerow([it.index, it.kind, it.emitted, it.accept_length,
                         "" if it.similarity is None else f"{it.similarity:.10g}",
                         it.forward_passes, it.feature_source])
    return buf.getvalue()


def config_from_mapping(values: dict) -> EngineConfig:
    """Build a config from string-keyed values, rejecting unknown keys by
    name (the contract behind the flat config-file schema)."""
    known = {f.name: f.type for f in fields(EngineConfig)}
    kwargs = {}
    for key, raw in values.items():
        if key not in known:
            raise RejectedInput(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, raw)
    return EngineConfig(**kwargs)


def _coerce(key: str, raw):
    """Convert a raw value to the type of the field's default; text that
    does not parse is rejected.  Tuple text separates its elements by
    commas or whitespace.  Unknown keys pass through unchanged for
    the caller to reject by name."""
    default = getattr(EngineConfig, key, None)
    if isinstance(raw, str):
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise RejectedInput(f"bad boolean for {key!r}: {raw!r}")
        try:
            if isinstance(default, int):
                return int(raw)
            if isinstance(default, float):
                return float(raw)
            if isinstance(default, tuple):
                return tuple(int(part) for part in raw.replace(",", " ").split())
        except ValueError:
            raise RejectedInput(f"bad value for {key!r}: {raw!r}") from None
        return raw
    if isinstance(default, tuple) and not isinstance(raw, tuple):
        try:
            return tuple(raw)
        except TypeError:
            raise RejectedInput(f"bad value for {key!r}: {raw!r}") from None
    return raw
