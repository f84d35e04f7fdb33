"""Foundational primitives: probability vectors, embedding codebooks,
token sequences, and the deterministic randomness contract.

Probability distributions are dense float64 numpy vectors over the whole
vocabulary; the vocabularies here are small enough (V <= 4096) that sparse
storage would only get in the way of exact residual arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVector, RejectedInput

PROB_ATOL = 1e-9

# Token origin labels used throughout engine traces.
ORIGIN_PROMPT = "prompt"
ORIGIN_SAMPLED = "sampled"
ORIGIN_VERIFIED = "verified"
ORIGIN_SKIP = "skip-accepted"
ORIGIN_RESAMPLED = "resampled"
ORIGIN_BONUS = "bonus"


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for a (seed, label) pair.

    The same pair yields the same draw sequence on every platform; distinct
    labels never share draws, so enabling or disabling one stochastic
    feature cannot perturb another feature's stream.
    """
    salt = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, salt])


def normalize(raw) -> np.ndarray:
    """Scale a non-negative vector to sum to 1."""
    vec = np.asarray(raw, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise RejectedInput("normalize expects a nonempty 1-d vector")
    if not np.all(np.isfinite(vec)):
        idx = int(np.flatnonzero(~np.isfinite(vec))[0])
        raise RejectedInput(f"non-finite entry at index {idx}")
    neg = np.flatnonzero(vec < 0.0)
    if neg.size:
        raise RejectedInput(f"negative entry at index {int(neg[0])}")
    total = vec.sum()
    if total <= 0.0:
        raise RejectedInput("all entries are zero; no distribution to normalize (index 0..end)")
    return vec / total


def cosine(a, b) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise RejectedInput("cosine expects two 1-d vectors of equal length")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DegenerateVector("cosine of a zero-norm vector is undefined")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


def sample_index(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index from a probability vector using a single uniform."""
    cum = np.cumsum(dist)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


@dataclass(frozen=True)
class EmbeddingCodebook:
    """V x d table of latent token embeddings.

    Rows must be pairwise distinct so that neighbor pooling is well defined.
    """

    vectors: np.ndarray
    _unit: np.ndarray = field(init=False, repr=False, compare=False)
    # nearest_neighbors results, keyed by (t, k).
    _neighbors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[1] < 2:
            raise RejectedInput("codebook must be V x d with d >= 2")
        if not np.all(np.isfinite(vecs)):
            raise RejectedInput("codebook contains non-finite entries")
        if np.unique(vecs, axis=0).shape[0] != vecs.shape[0]:
            raise RejectedInput("codebook rows must be pairwise distinct")
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateVector("codebook contains a zero row")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_unit", vecs / norms[:, None])
        object.__setattr__(self, "_neighbors", {})

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def unit(self, t: int | np.ndarray) -> np.ndarray:
        return self._unit[t]


def nearest_neighbors(codebook: EmbeddingCodebook, t: int, k: int) -> list[int]:
    """The k tokens closest to t by cosine, t itself first, ties to smaller id.

    Memoised per codebook by (t, k): only the k ids of each call are kept,
    not a V x V ranking.
    """
    V = codebook.size
    if not 0 <= t < V:
        raise RejectedInput(f"token {t} outside vocabulary of size {V}")
    if not 1 <= k <= V:
        raise RejectedInput(f"k={k} outside [1, {V}]")
    found = codebook._neighbors.get((t, k))
    if found is None:
        sims = codebook._unit @ codebook.unit(t)
        ids = np.arange(V)
        order = np.lexsort((ids, -sims))
        ranked = [int(i) for i in order if i != t]
        found = codebook._neighbors[(t, k)] = (t, *ranked[: k - 1])
    return list(found)


@dataclass
class TokenSequence:
    """Ordered token ids with a per-token origin label."""

    tokens: list[int] = field(default_factory=list)
    origins: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.tokens) != len(self.origins):
            raise RejectedInput("tokens and origins must align")

    def __len__(self) -> int:
        return len(self.tokens)

    def append(self, token: int, origin: str) -> None:
        self.tokens.append(int(token))
        self.origins.append(origin)

    def extend(self, tokens, origin: str) -> None:
        for tok in tokens:
            self.append(tok, origin)

    def copy(self) -> "TokenSequence":
        return TokenSequence(list(self.tokens), list(self.origins))
