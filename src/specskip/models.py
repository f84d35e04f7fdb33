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

import math
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
    """Softmax, computed in place over ``logits``."""
    logits -= logits.max()
    np.exp(logits, out=logits)
    logits /= logits.sum()
    return logits


class TargetModel:
    """Deterministic sliding-window readout model.

    Forward calls are pure functions of (parameters, context).  The
    ``forward_passes`` counter tracks how many parallel scoring passes have
    been consumed; it is bookkeeping only and assumes single-threaded use.
    """

    def __init__(self, codebook: EmbeddingCodebook, mixing: np.ndarray,
                 window: int, temperature: float, logit_scale: float):
        if window < 1 or temperature <= 0.0:
            raise RejectedInput("window >= 1 and temperature > 0 required")
        self.codebook = codebook
        self.mixing = np.asarray(mixing, dtype=np.float64)
        self.window = window
        self.temperature = float(temperature)
        self.logit_scale = float(logit_scale)
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
        # In place, as scale * (vectors @ feature) / T.
        logits = self.codebook.vectors @ feature
        logits *= self.logit_scale
        logits /= self.temperature
        return _softmax(logits)

    def score_prefix(self, tokens) -> ModelOutput:
        """Distribution over the next token after a prefix, plus the last
        token's feature.  Does not touch the forward-pass counter."""
        if len(tokens) == 0:
            raise RejectedInput("empty context")
        feat = self.feature_at(tokens, len(tokens) - 1)
        return ModelOutput(dist=self.dist_from_feature(feat), feature=feat)

    def logprobs(self, prompt, tokens) -> list[float]:
        """``log(max(q, 1e-300))`` of each ``tokens[k]`` under ``score_prefix(
        prompt + tokens[:k])``, all positions in one batched readout.

        Bit-identical to the per-position calls: the same window means, a
        stacked matrix-vector readout (``np.matmul`` over (n, d, 1); a plain
        matrix-matrix product rounds differently), the same scaling order
        and a row-wise softmax.  Does not touch the forward-pass counter.
        """
        if len(prompt) == 0:
            raise RejectedInput("empty context")
        n = len(tokens)
        if n == 0:
            return []
        w = self.window
        n_prompt = len(prompt)
        seq = np.array([*prompt, *tokens[:-1]], dtype=np.intp)
        # Position k's context is seq[:n_prompt + k]; from position `full`
        # on its last `window` tokens are a full sliding window.
        full = max(0, w - n_prompt)
        feats = np.empty((n, self.codebook.dim))
        if full < n:
            windows = np.lib.stride_tricks.sliding_window_view(seq, w)[n_prompt + full - w:]
            feats[full:] = self._mixed[:, windows].mean(axis=2).T
        for k in range(min(full, n)):
            feats[k] = self.feature_at(seq, n_prompt + k - 1)
        z = np.matmul(self.codebook.vectors, feats[:, :, None])[:, :, 0]
        z *= self.logit_scale
        z /= self.temperature
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        np.exp(z, out=z)
        picked = z[np.arange(n), np.asarray(tokens, dtype=np.intp)]
        picked /= np.add.reduce(z, axis=1)
        return [math.log(max(p, 1e-300)) for p in picked.tolist()]


def target_forward(model: TargetModel, context) -> ModelOutput:
    """Score the last position of a linear context in one forward pass: the
    next-token distribution after the whole context and the feature of its
    last token.  The forward-pass counter increments by exactly 1 per call.
    """
    out = model.score_prefix(context)  # rejects an empty context
    model.forward_passes += 1
    return out


def target_forward_masked(model: TargetModel, context, flat_tokens,
                          parents) -> np.ndarray:
    """Single-pass tree scoring over a linearized candidate block.

    ``flat_tokens[j]`` is scored under the prefix context + its root path;
    ``parents[j]`` is the flat index of its parent (always < j), or -1 for
    the context itself.  Returns a (V, n) array whose column j is the
    distribution after position j; a caller reads the few columns it walks
    (the distribution after the raw context is ``score_prefix`` of its
    tail).  One forward pass total, like any parallel verification.

    Only the last ``window`` tokens of a prefix reach its feature, so each
    position's window is its parent's slid by one token, starting from the
    context's tail; the windows are gathered once and averaged as
    ``feature_at`` averages one, so the distributions are those of scoring
    every prefix on its own.
    """
    if len(context) == 0:
        raise RejectedInput("empty context")
    if len(flat_tokens) != len(parents):
        raise RejectedInput("flat tokens and parents must align")
    model.forward_passes += 1
    w = model.window
    root = tuple(context[-w:])
    if not flat_tokens:
        return np.empty((model.vocab_size, 0))
    windows: list[tuple] = []
    for j, (tok, parent) in enumerate(zip(flat_tokens, parents)):
        if not -1 <= parent < j:
            raise RejectedInput(f"position {j} has parent {parent}, not in [-1, {j})")
        prev = root if parent == -1 else windows[parent]
        windows.append((prev[1:] if len(prev) == w else prev) + (tok,))
    if len(root) == w:
        feats = model._mixed[:, windows].mean(axis=2)      # (d, n)
    else:
        # A context shorter than the window: pad the short windows for the
        # gather, then score them as feature_at does.
        feats = model._mixed[:, [win if len(win) == w else (0,) * w
                                 for win in windows]].mean(axis=2)
        for j, win in enumerate(windows):
            if len(win) < w:
                feats[:, j] = model.feature_at(win, len(win) - 1)
    # In place, with the operations and their order of
    # softmax(scale * (vectors @ feats) / T) column by column.
    dists = model.codebook.vectors @ feats
    dists *= model.logit_scale
    dists /= model.temperature
    dists -= dists.max(axis=0)
    np.exp(dists, out=dists)
    dists /= dists.sum(axis=0)
    return dists


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
        if np.ndim(features) != 2 or len(features) != len(last_tokens):
            raise RejectedInput("next_dist needs an (n, d) feature batch and n last tokens")
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
                         config.logit_scale)
    draft = DraftModel(codebook, q, config.window, config.temperature,
                       config.logit_scale, config.epsilon,
                       config.smooth_temperature, config.noise_scale, config.seed)
    return target, draft
