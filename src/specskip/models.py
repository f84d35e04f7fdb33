"""Synthetic autoregressive target/draft model pair.

The target model is a deterministic linear readout over a sliding-window
context embedding: the feature of token i is the mixing matrix applied to
the mean embedding of the last `window` tokens ending at i, and the
next-token logits are a scaled codebook readout of that feature.  The draft
model reconstructs the target logits from whatever feature it is handed
(fresh or stale) and blends in a seeded noise head controlled by a single
divergence knob epsilon, so epsilon=0 is a perfect drafter and epsilon=1 is
feature-independent noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmbeddingCodebook, rng_stream
from .errors import RejectedInput


@dataclass(frozen=True)
class ModelOutput:
    """Next-token distribution plus the feature of the scored token."""

    dist: np.ndarray
    feature: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max())
    return z / z.sum()


class TargetModel:
    """Deterministic sliding-window readout model.

    Forward calls are pure functions of (parameters, context).  The
    ``forward_passes`` counter tracks how many parallel scoring passes have
    been consumed; it is bookkeeping only and assumes single-threaded use.
    """

    def __init__(self, codebook: EmbeddingCodebook, mixing: np.ndarray,
                 window: int, temperature: float, logit_scale: float, seed: int):
        if window < 1 or temperature <= 0.0:
            raise RejectedInput("window >= 1 and temperature > 0 required")
        self.codebook = codebook
        self.mixing = np.asarray(mixing, dtype=np.float64)
        self.window = window
        self.temperature = float(temperature)
        self.logit_scale = float(logit_scale)
        self.seed = seed
        # Column t is mixing @ embedding(t); window features are column means.
        self._mixed = self.mixing @ codebook.vectors.T
        self.forward_passes = 0

    @property
    def vocab_size(self) -> int:
        return self.codebook.size

    def feature_at(self, tokens, i: int) -> np.ndarray:
        """Feature of the token at position i of a linear context."""
        lo = max(0, i - self.window + 1)
        if lo == i:
            return self._mixed[:, tokens[i]].copy()
        cols = self._mixed[:, list(tokens[lo:i + 1])]
        return cols.mean(axis=1)

    def dist_from_feature(self, feature: np.ndarray) -> np.ndarray:
        logits = self.logit_scale * (self.codebook.vectors @ feature) / self.temperature
        return _softmax(logits)

    def score_prefix(self, tokens) -> ModelOutput:
        """Distribution over the next token after a prefix, plus the last
        token's feature.  Does not touch the forward-pass counter."""
        if len(tokens) == 0:
            raise RejectedInput("empty context")
        feat = self.feature_at(tokens, len(tokens) - 1)
        return ModelOutput(dist=self.dist_from_feature(feat), feature=feat)


def target_forward(model: TargetModel, context, positions) -> list[ModelOutput]:
    """Score many positions of a linear context in one forward pass.

    Each requested position yields the next-token distribution conditioned
    on context[:pos+1] and the feature of the token at that position.  The
    forward-pass counter increments by exactly 1 per call.
    """
    tokens = list(context)
    if not tokens:
        raise RejectedInput("empty context")
    for pos in positions:
        if not 0 <= pos < len(tokens):
            raise RejectedInput(f"position {pos} outside context of length {len(tokens)}")
    model.forward_passes += 1
    return [model.score_prefix(tokens[:pos + 1]) for pos in positions]


def target_forward_masked(model: TargetModel, context, flat_tokens,
                          ancestor_sets) -> tuple[np.ndarray, list[ModelOutput]]:
    """Single-pass tree scoring over a linearized candidate block.

    ``flat_tokens[j]`` is scored under the prefix context + its root path
    (``ancestor_sets[j]`` holds flat indices, self excluded).  Returns the
    distribution after the raw context plus one ModelOutput per flat
    position.  One forward pass total, like any parallel verification.
    """
    tokens = list(context)
    if not tokens:
        raise RejectedInput("empty context")
    if len(flat_tokens) != len(ancestor_sets):
        raise RejectedInput("flat tokens and ancestor sets must align")
    model.forward_passes += 1
    root_dist = model.score_prefix(tokens).dist
    if not flat_tokens:
        return root_dist, []
    # Vectorized: each position's feature is the mean embedding-mix over the
    # last `window` tokens of its prefix, gathered into one batch.
    w = model.window
    short: dict[int, np.ndarray] = {}
    windows = np.zeros((len(flat_tokens), w), dtype=np.intp)
    for j, tok in enumerate(flat_tokens):
        prefix = tokens + [flat_tokens[a] for a in sorted(ancestor_sets[j])] + [tok]
        if len(prefix) >= w:
            windows[j] = prefix[-w:]
        else:
            short[j] = model.feature_at(prefix, len(prefix) - 1)
    feats = model._mixed[:, windows].mean(axis=2)          # (d, n)
    for j, feat in short.items():
        feats[:, j] = feat
    logits = model.logit_scale * (model.codebook.vectors @ feats) / model.temperature
    logits -= logits.max(axis=0)
    dists = np.exp(logits)
    dists /= dists.sum(axis=0)
    outputs = [ModelOutput(dist=dists[:, j], feature=feats[:, j])
               for j in range(len(flat_tokens))]
    return root_dist, outputs


class DraftModel:
    """Feature-conditioned drafter sharing the target's codebook.

    The drafter never reads target internals at forward time: it consumes
    a feature vector and recent token ids.  Its copies of the mixing matrix
    and window size stand in for a trained feature predictor, which is what
    lets epsilon=0 reproduce the target exactly when features are fresh.
    """

    def __init__(self, codebook: EmbeddingCodebook, mixing: np.ndarray,
                 window: int, target_temperature: float, logit_scale: float,
                 epsilon: float, smooth_temperature: float, noise_scale: float,
                 seed: int):
        if not 0.0 <= epsilon <= 1.0:
            raise RejectedInput("epsilon must lie in [0, 1]")
        if smooth_temperature <= 0.0:
            raise RejectedInput("smoothing temperature must be positive")
        self.codebook = codebook
        self.mixing = np.asarray(mixing, dtype=np.float64)
        self.window = window
        self.target_temperature = float(target_temperature)
        self.logit_scale = float(logit_scale)
        self.epsilon = float(epsilon)
        self.smooth_temperature = float(smooth_temperature)
        self.noise_scale = float(noise_scale)
        self.seed = seed
        rng = rng_stream(seed, "draft-noise")
        self._noise_head = rng.standard_normal((codebook.size, codebook.dim))
        # Row t is mixing @ embedding(t), the target's column t.
        self._mixed_rows = np.ascontiguousarray((self.mixing @ codebook.vectors.T).T)
        self.forward_calls = 0

    def next_dist(self, features: np.ndarray, last_tokens) -> np.ndarray:
        """Draft distributions for a batch: row i of the (n, V) result
        conditions on ``features[i]`` (an (n, d) array) and
        ``last_tokens[i]``.  Counts n forward calls.

        The readouts are stacked matrix-vector products (``np.matmul`` over
        (n, d, 1)), so each row is bit-identical to a one-row call; a plain
        matrix-matrix product rounds differently and must not be used.
        """
        self.forward_calls += len(features)
        vectors = self.codebook.vectors
        # In place, with the operations and their order of the formula
        # (1 - eps) * (scale * base / T) + eps * (noise_scale * noise / T_s).
        z = np.matmul(vectors, features[:, :, None])[:, :, 0]
        z *= self.logit_scale
        z /= self.target_temperature
        z *= 1.0 - self.epsilon
        noise = np.matmul(self._noise_head, vectors.take(last_tokens, axis=0)[:, :, None])[:, :, 0]
        noise *= self.noise_scale
        noise /= self.smooth_temperature
        noise *= self.epsilon
        z += noise
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=1, keepdims=True)
        return z

    def extend_feature(self, features: np.ndarray, leaving_tokens,
                       new_tokens) -> np.ndarray:
        """Slide the drafter's pseudo-features one token forward: one
        feature with scalar tokens, or an (n, d) batch with n tokens each."""
        rows = self._mixed_rows
        return features + (rows.take(new_tokens, axis=0)
                           - rows.take(leaving_tokens, axis=0)) / self.window


def draft_forward(model: DraftModel, features, tokens) -> np.ndarray:
    """Next-token draft distribution conditioned on aligned (feature, token)
    history; only the most recent pair is load-bearing."""
    if len(features) != len(tokens):
        raise RejectedInput("features and tokens must have equal length")
    if len(tokens) == 0:
        raise RejectedInput("at least one (feature, token) pair required")
    feature = np.asarray(features[-1], dtype=np.float64)
    return model.next_dist(feature[None], [int(tokens[-1])])[0]


def make_model_pair(config) -> tuple[TargetModel, DraftModel]:
    """Deterministically construct a target/draft pair from an EngineConfig."""
    if config.feat_dim < 2 or config.vocab_size < 4:
        raise RejectedInput("need feat_dim >= 2 and vocab_size >= 4")
    cb_rng = rng_stream(config.seed, "codebook")
    anchor = cb_rng.standard_normal(config.feat_dim)
    anchor /= np.linalg.norm(anchor)
    raw = config.concentration * anchor + cb_rng.standard_normal((config.vocab_size, config.feat_dim))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    codebook = EmbeddingCodebook(raw)

    mix_rng = rng_stream(config.seed, "mixing")
    q, _ = np.linalg.qr(mix_rng.standard_normal((config.feat_dim, config.feat_dim)))
    target = TargetModel(codebook, q, config.window, config.temperature,
                         config.logit_scale, config.seed)
    draft = DraftModel(codebook, q, config.window, config.temperature,
                       config.logit_scale, config.epsilon,
                       config.smooth_temperature, config.noise_scale, config.seed)
    return target, draft
