"""Decoding pipelines and their metrics.

Three pipelines share one loop: vanilla autoregressive decoding, baseline
speculative decoding (draft then always verify), and the partial
verification-skipping pipeline where some iterations accept a drafted path
outright and the following verification step ratifies it (post
verification) while restoring exact conditioning.

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
from .core import (ORIGIN_SAMPLED, ORIGIN_SKIP, TokenSequence, rng_stream,
                   sample_index)
from .errors import CacheUnderflow, DegenerateTrace, RejectedInput
from .models import TargetModel, make_model_pair, target_forward
from .schedule import SkipPolicy, decide, path_similarity
from .select import SelectionPolicy, select_path, truncate_path
from .tree import build_tree, enumerate_paths, linearize
from .verify import RelaxConfig, verify_tree

FRESH = -1  # feature-schedule marker: use the latest VerifyOutcome features


@dataclass(frozen=True)
class EngineConfig:
    """Every knob of the models, tree, verifier, scheduler, and selector."""

    # toy models
    vocab_size: int = 64
    feat_dim: int = 8
    window: int = 4
    temperature: float = 1.0
    logit_scale: float = 4.0
    concentration: float = 3.6
    epsilon: float = 0.3
    smooth_temperature: float = 1.0
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
    log_similarity: bool = False

    def validate(self) -> "EngineConfig":
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
        if self.temperature <= 0 or self.smooth_temperature <= 0:
            raise RejectedInput("temperatures must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise RejectedInput("epsilon must lie in [0, 1]")
        if self.branching < 2 or self.depth < 1 or self.budget < self.branching:
            raise RejectedInput("invalid tree shape")
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
        SkipPolicy(kind=self.policy, interval=self.interval,
                   threshold=self.threshold, alpha=self.alpha, stride=self.stride)
        SelectionPolicy(strategy=self.strategy, truncate=self.truncate)
        if self.accept_mode == "relaxed":
            RelaxConfig(self.delta, self.pool_k)
        return self

    def skip_policy(self) -> SkipPolicy:
        return SkipPolicy(kind=self.policy, interval=self.interval,
                          threshold=self.threshold, alpha=self.alpha,
                          stride=self.stride)

    def selection_policy(self) -> SelectionPolicy:
        return SelectionPolicy(strategy=self.strategy, truncate=self.truncate)

    def verify_mode(self):
        return "strict" if self.accept_mode == "strict" else RelaxConfig(self.delta, self.pool_k)


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
    replaced: bool = False


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
    return [int(t) for t in rng.integers(0, config.vocab_size, config.window)]


def vanilla_ar(config: EngineConfig, models=None) -> GenerationTrace:
    """One target forward pass per generated token; TPF is exactly 1."""
    config.validate()
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


def _generate(config: EngineConfig, models=None, replace_fraction=None
              ) -> GenerationTrace:
    """Shared loop for baseline speculative decoding and the skipping
    pipeline; `replace_fraction` enables the verification-replacement
    analysis mode (pure-SD only)."""
    config.validate()
    target, draft = models if models else make_model_pair(config)
    streams = _Streams(config)
    prompt = _make_prompt(config, streams["prompt"])
    policy = config.skip_policy()
    selection = config.selection_policy()
    mode = config.verify_mode()
    codebook = target.codebook

    seq: list[int] = list(prompt)          # prompt + all emitted tokens
    emitted = TokenSequence()
    pending_len = 0
    cache = FeatureCache()

    # Prefill: prompt features enter the cache at step 0; not counted as
    # decode-phase forward passes.
    prompt_feats = [target.feature_at(prompt, i) for i in range(len(prompt))]
    update(cache, range(len(prompt)), prompt_feats, step=0, origin="verified")

    # The feature the next draft conditions on, at the last token of `seq`.
    draft_feat = prompt_feats[-1]

    iterations: list[IterationRecord] = []
    n_fwd = 0
    skip_count = 0
    verify_count = 0
    step = 0
    draft_calls_start = draft.forward_calls
    while len(emitted) < config.max_new_tokens:
        step += 1
        tree = build_tree(draft, draft_feat, seq, config.branching,
                          config.depth, config.budget, rng=streams["draft"])
        paths = enumerate_paths(tree)

        skip = decide(policy, paths, codebook, step)
        similarity = policy.last_similarity
        if similarity is None and config.log_similarity:
            similarity = path_similarity(paths, codebook, config.alpha, stride=1).value

        if not skip:
            committed = seq[: len(seq) - pending_len]
            linear = linearize(tree, seq[len(seq) - pending_len:])
            outcome = verify_tree(linear, target, committed, mode,
                                  streams["accept"], streams["residual"])
            n_fwd += 1
            verify_count += 1

            replaced = False
            new_tokens = outcome.accepted.tokens[pending_len:] + [outcome.terminal]
            new_origins = outcome.accepted.origins[pending_len:] + [outcome.terminal_origin]
            if replace_fraction is not None:
                # Deterministic quota: exactly floor(v * r) of the first v
                # verify iterations are replaced, spread evenly.
                v = verify_count - 1
                replaced = math.floor((v + 1) * replace_fraction) > math.floor(v * replace_fraction)
                if replaced and outcome.accept_length > 0:
                    top = min(paths, key=lambda p: (-p.confidence, p.tokens))
                    swap = min(outcome.accept_length, len(top))
                    new_tokens[:swap] = top.tokens[:swap]

            base = len(seq) - pending_len
            seq = seq[:base] + outcome.accepted.tokens + [outcome.terminal]
            if replaced:
                seq = seq[:base + pending_len] + new_tokens
            for tok, origin in zip(new_tokens, new_origins):
                emitted.append(tok, origin)

            # Cache: post-verified pending positions, then verified ones.
            all_positions = list(range(base, len(seq)))
            all_features = outcome.features
            if replaced:
                all_features = [target.feature_at(seq, p) for p in all_positions]
            if pending_len:
                update(cache, all_positions[:pending_len], all_features[:pending_len],
                       step=step, origin="post-verified")
            update(cache, all_positions[pending_len:], all_features[pending_len:],
                   step=step, origin="verified")
            pending_len = 0

            # The feature for the next draft, per the cycled schedule.
            source = config.feature_schedule[(verify_count - 1) % len(config.feature_schedule)]
            if source == FRESH:
                draft_feat = all_features[-1]
            else:
                try:
                    # The paper-style offset s counts from the step before
                    # this one, hence the +1 against the freshly written step.
                    # Fewer entries at that cutoff than tokens just emitted
                    # is an underflow, which falls back to fresh features.
                    draft_feat = retrieve_with_offset(cache, len(new_tokens),
                                                      source + 1).feature
                except CacheUnderflow:
                    source = FRESH
                    draft_feat = all_features[-1]

            iterations.append(IterationRecord(
                index=step, kind="verify", emitted=len(new_tokens),
                accept_length=outcome.accept_length, similarity=similarity,
                forward_passes=1, feature_source=source, replaced=replaced))
        else:
            chosen = select_path(paths, selection, streams["select"])
            if selection.truncate:
                chosen = truncate_path(chosen, paths)
            skip_count += 1
            seq = seq + chosen.tokens
            pending_len = len(chosen.tokens)
            for tok in chosen.tokens:
                emitted.append(tok, ORIGIN_SKIP)
            # The latest cached (stale) feature stands in for the unverified
            # positions; the prompt's entries mean there always is one.
            draft_feat = retrieve_latest(cache).feature
            iterations.append(IterationRecord(
                index=step, kind="skip", emitted=len(chosen.tokens),
                similarity=similarity, forward_passes=0))

    return GenerationTrace(config=config, prompt=prompt, tokens=emitted,
                           iterations=iterations, n_tok=len(emitted),
                           n_fwd=n_fwd, skip_count=skip_count,
                           draft_forwards=draft.forward_calls - draft_calls_start)


def speculative_decode(config: EngineConfig, models=None) -> GenerationTrace:
    """Baseline draft-and-always-verify loop (skip policy forced to never)."""
    if config.policy != "never":
        config = replace(config, policy="never")
    return _generate(config, models=models)


def vvs_generate(config: EngineConfig, models=None) -> GenerationTrace:
    """Partial verification-skipping loop; with policy="never" this is
    bit-identical to speculative_decode."""
    return _generate(config, models=models)


def replace_verified(config: EngineConfig, r: float, models=None) -> GenerationTrace:
    """Pure-SD analysis mode substituting a deterministic fraction r of
    verified paths with the max-confidence path prefix of equal length."""
    if not 0.0 <= r <= 1.0:
        raise RejectedInput("replacement fraction must lie in [0, 1]")
    if config.policy != "never":
        raise RejectedInput("replacement analysis requires policy='never'")
    return _generate(config, models=models, replace_fraction=r)


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
    quality = float(np.mean(logprobs)) if logprobs else float("nan")
    return Metrics(tpf=tpf, mal=mal, skip_fraction=skip_fraction,
                   quality_proxy=quality, n_tok=trace.n_tok, n_fwd=trace.n_fwd)


TRACE_FIELDS = ["index", "kind", "emitted", "accept_length", "similarity",
                "forward_passes", "feature_source", "replaced"]


def trace_to_csv(trace: GenerationTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_FIELDS)
    for it in trace.iterations:
        writer.writerow([it.index, it.kind, it.emitted, it.accept_length,
                         "" if it.similarity is None else f"{it.similarity:.10g}",
                         it.forward_passes, it.feature_source, int(it.replaced)])
    return buf.getvalue()


def config_from_mapping(values: dict) -> EngineConfig:
    """Build a validated config from string-keyed values, rejecting unknown
    keys by name (the contract behind the flat config-file schema)."""
    known = {f.name: f.type for f in fields(EngineConfig)}
    kwargs = {}
    for key, raw in values.items():
        if key not in known:
            raise RejectedInput(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, raw)
    return EngineConfig(**kwargs).validate()


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
        return tuple(raw)
    return raw
