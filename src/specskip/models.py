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

from .core import EmbeddingCodebook, param_stream
from .errors import RejectedInput
from .tree import MAX_GATHER, TreeShape


@dataclass(frozen=True)
class ModelOutput:
    """Next-token distribution plus the feature of the scored token."""

    dist: np.ndarray
    feature: np.ndarray


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in place over ``z``."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


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
        return np.add.reduce(cols, axis=1) / (i + 1 - lo)

    def score_prefix(self, tokens) -> ModelOutput:
        """Distribution over the next token after a prefix, plus the last
        token's feature.  Does not touch the forward-pass counter."""
        if len(tokens) == 0:
            raise RejectedInput("empty context")
        feat = self.feature_at(tokens, len(tokens) - 1)
        # In place, as softmax(scale * (vectors @ feat) / T).
        z = self.codebook.vectors @ feat
        z *= self.logit_scale
        z /= self.temperature
        return ModelOutput(dist=_softmax(z), feature=feat)

    def logprobs(self, prompt, tokens) -> list[float]:
        """``log(max(q, 1e-300))`` of each ``tokens[k]`` under ``score_prefix(
        prompt + tokens[:k])``, batched over the positions.  A prompt shorter
        than the window is rejected, so every position's window is full.

        Bit-identical to the per-position calls: the same window means, a
        stacked matrix-vector readout (``np.matmul`` over (n, d, 1); a plain
        matrix-matrix product rounds differently), the same scaling order
        and a row-wise softmax.  The positions are scored in chunks whose
        (d, chunk, window) gather and (chunk, V) readout hold at most
        ``MAX_GATHER`` floats together; each position's arithmetic is its
        own, so the chunking moves no bit.  Does not touch the forward-pass
        counter.
        """
        w = self.window
        if len(prompt) < w:
            raise RejectedInput(f"prompt shorter than the window {w}")
        n = len(tokens)
        if n == 0:
            return []
        # Position k's window is seq[k:k + w].
        seq = np.array([*prompt[-w:], *tokens[:-1]], dtype=np.intp)
        windows = np.lib.stride_tricks.sliding_window_view(seq, w)
        picks = np.asarray(tokens, dtype=np.intp)
        chunk = MAX_GATHER // (len(self._mixed) * w + self.vocab_size)
        picked = []
        for lo in range(0, n, chunk):
            rows = windows[lo:lo + chunk]
            feats = np.ascontiguousarray((np.add.reduce(self._mixed[:, rows], axis=2) / w).T)
            z = np.matmul(self.codebook.vectors, feats[:, :, None])[:, :, 0]
            z *= self.logit_scale
            z /= self.temperature
            # Only the picked entries are normalized; dividing all of them, as
            # ``_softmax`` does, makes this call about a fifth slower at V = 1024.
            z -= np.maximum.reduce(z, axis=1, keepdims=True)
            np.exp(z, out=z)
            p = z[np.arange(len(rows)), picks[lo:lo + chunk]]
            p /= np.add.reduce(z, axis=1)
            picked += p.tolist()
        return [math.log(max(p, 1e-300)) for p in picked]


def target_forward(model: TargetModel, context) -> ModelOutput:
    """Score the last position of a linear context in one forward pass: the
    next-token distribution after the whole context and the feature of its
    last token.  The forward-pass counter increments by exactly 1 per call.
    """
    out = model.score_prefix(context)  # rejects an empty context
    model.forward_passes += 1
    return out


def target_forward_masked(model: TargetModel, context, flat_tokens,
                          shape: TreeShape) -> np.ndarray:
    """Single-pass tree scoring of a verify block, up to the readout.

    ``flat_tokens[j]`` is scored under the prefix context + its root path
    through ``shape.parents`` (a hand-built block passes
    ``tree_shape(parents)``, which validates them).  Returns the (V, 1 + n)
    readout ``vectors @ feats``: column 0 scores the context, and column
    1 + j node j's root path.  A caller turns the few columns it walks into
    distributions with ``normalize_columns``.  One forward pass total, like
    any parallel verification.

    Only the last ``window`` tokens of a prefix reach its feature, so a
    context shorter than the window is rejected, and each node's window is
    its parent's slid by one token, starting from the context's tail.  The
    windows are gathered once, through the index the shape memoizes
    (``TreeShape.windows``), and averaged as ``feature_at`` averages one,
    so the distributions are those of scoring every prefix on its own.  The
    readout is one gemm over every column: a gemm over some of them rounds
    differently.
    """
    w = model.window
    if len(context) < w:
        raise RejectedInput(f"context shorter than the window {w}")
    if len(flat_tokens) != len(shape.parents):
        raise RejectedInput("flat tokens and parents must align")
    index = shape.windows(w)
    model.forward_passes += 1
    seq = np.array([*context[-w:], *flat_tokens], dtype=np.intp)
    feats = np.add.reduce(model._mixed[:, seq[index]], axis=2) / w   # (d, 1 + n)
    return model.codebook.vectors @ feats


def normalize_columns(model: TargetModel, readout: np.ndarray, cols) -> np.ndarray:
    """The distributions of the readout columns ``cols``, as the rows of
    one (k, V) block: softmax(scale * column / T) of each, with the
    operations and their order that normalizing the whole readout takes.

    Each sum runs down its column in order, taken as the last entry of a
    ``cumsum``.  numpy's ``add.reduce`` over axis 0 sums a C-contiguous
    (V, k) readout with k >= 2 in the same order, but a single column
    pairwise, so a block of any width, one column included, has the bits
    of normalizing a readout of two or more columns.  The block is laid
    out by rows because numpy reduces a (V, k) array over axis 0 one row
    at a time, which at V = 1024 costs more than the rest of the work."""
    z = readout.T[cols]
    z *= model.logit_scale
    z /= model.temperature
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.cumsum(axis=1)[:, -1:]
    return z


class DraftModel:
    """Feature-conditioned drafter sharing the target's codebook.

    The drafter never reads target internals at forward time: it consumes
    a feature vector and recent token ids.  Its copies of the mixing matrix
    and window size stand in for a trained feature predictor, which is what
    lets epsilon=0 reproduce the target exactly when features are fresh.
    """

    def __init__(self, codebook: EmbeddingCodebook, mixing: np.ndarray,
                 window: int, target_temperature: float, logit_scale: float,
                 epsilon: float, noise_scale: float, seed: int):
        if not 0.0 <= epsilon <= 1.0:
            raise RejectedInput("epsilon must lie in [0, 1]")
        self.codebook = codebook
        self.mixing = np.asarray(mixing, dtype=np.float64)
        self.window = window
        self.target_temperature = float(target_temperature)
        self.logit_scale = float(logit_scale)
        self.epsilon = float(epsilon)
        self.noise_scale = float(noise_scale)
        rng = param_stream(seed, "draft-noise")
        self._noise_head = rng.standard_normal((codebook.size, codebook.dim))
        # Row t is mixing @ embedding(t), the target's column t.
        self._mixed_rows = np.ascontiguousarray((self.mixing @ codebook.vectors.T).T)
        self.forward_calls = 0
        # A bound on the size of a drafter logit: codebook rows are unit
        # and a feature has norm at most 1 (see make_model_pair).
        self.logit_reach = (abs(self.logit_scale) / self.target_temperature
                            + abs(self.noise_scale)
                            * float(np.linalg.norm(self._noise_head, axis=1).max()))
        # Whether every entry of every row is sure to be positive: a row's
        # logits span at most 2 * logit_reach nats and its sum is at most
        # V, so its smallest entry is at least exp(-2 * logit_reach) / V,
        # here above exp(-600) (about 1e-261).  A race key E / p is then
        # finite for any exponential E, so no row stops short at its
        # support and every tree has the same shape (``tree.full_shape``).
        self.full_support = 2 * self.logit_reach + math.log(codebook.size) <= 600.0

    def next_dist(self, features: np.ndarray, last_tokens) -> np.ndarray:
        """Draft distributions for a batch: row i of the (n, V) result
        conditions on ``features[i]`` (an (n, d) array) and
        ``last_tokens[i]``.  Counts n forward calls.

        The readouts are stacked matrix-vector products (``np.matmul`` over
        (n, d, 1)), so each row is bit-identical to a one-row call; a plain
        matrix-matrix product rounds differently and must not be used.
        """
        if getattr(features, "ndim", 0) != 2 or len(features) != len(last_tokens):
            raise RejectedInput("next_dist needs an (n, d) feature batch and n last tokens")
        self.forward_calls += len(features)
        vectors = self.codebook.vectors
        # In place, with the operations and their order of the formula
        # (1 - eps) * (scale * base / T) + eps * (noise_scale * noise).
        z = np.matmul(vectors, features[:, :, None])[:, :, 0]
        z *= self.logit_scale
        z /= self.target_temperature
        z *= 1.0 - self.epsilon
        noise = np.matmul(self._noise_head, vectors.take(last_tokens, axis=0)[:, :, None])[:, :, 0]
        noise *= self.noise_scale
        noise *= self.epsilon
        z += noise
        return _softmax(z)

    def extend_feature(self, features: np.ndarray, leaving_tokens,
                       new_tokens) -> np.ndarray:
        """Slide the drafter's pseudo-features one token forward: one
        feature with scalar tokens, or an (n, d) batch with n tokens each."""
        rows = self._mixed_rows
        return features + (rows.take(new_tokens, axis=0)
                           - rows.take(leaving_tokens, axis=0)) / self.window


def make_model_pair(config) -> tuple[TargetModel, DraftModel]:
    """Deterministically construct a target/draft pair from an EngineConfig.

    Only the checks that read model parameters are left for here, once per
    pair: the codebook's distinct rows (a ``concentration`` of 1e20 drowns
    every row's noise in the shared anchor), and a finite doubled
    ``draft.logit_reach``, so no drafter call meets an inf or a NaN."""
    cb_rng = param_stream(config.seed, "codebook")
    anchor = cb_rng.standard_normal(config.feat_dim)
    anchor /= np.linalg.norm(anchor)
    raw = config.concentration * anchor + cb_rng.standard_normal((config.vocab_size, config.feat_dim))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    codebook = EmbeddingCodebook(raw)

    mix_rng = param_stream(config.seed, "mixing")
    q, _ = np.linalg.qr(mix_rng.standard_normal((config.feat_dim, config.feat_dim)))
    target = TargetModel(codebook, q, config.window, config.temperature,
                         config.logit_scale)
    draft = DraftModel(codebook, q, config.window, config.temperature,
                       config.logit_scale, config.epsilon, config.noise_scale,
                       config.seed)
    if not math.isfinite(2 * draft.logit_reach):
        raise RejectedInput(f"noise_scale={config.noise_scale:g} overflows float64 "
                            "drafter logits")
    return target, draft
