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
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateVector, RejectedInput

# Token origin labels used throughout engine traces.
ORIGIN_SAMPLED = "sampled"
ORIGIN_VERIFIED = "verified"
ORIGIN_SKIP = "skip-accepted"
ORIGIN_RESAMPLED = "resampled"
ORIGIN_BONUS = "bonus"


class _DigestSeed(ISeedSequence):
    """Hands PCG64 four prepared uint64 words as its seed: words 0-1 are
    the 128-bit initial state, words 2-3 the 128-bit increment."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator for a (seed, label) pair.

    The same pair yields the same draw sequence on every platform; distinct
    labels never share draws, so enabling or disabling one stochastic
    feature cannot perturb another feature's stream.

    The stream is PCG64 keyed directly by
    ``sha256((seed mod 2**64) as 8 little-endian bytes + utf-8 label)``:
    the digest's four little-endian uint64 words seed the 128-bit state
    (words 0-1, high first) and the 128-bit increment (words 2-3), the way
    hash-keyed generators are seeded (Salmon et al. 2011).  One hash costs
    about a quarter of ``SeedSequence``'s pool mixing, and a short request
    sets up several streams, so that setup is a visible share of its time.
    Model parameters use ``param_stream``.
    """
    digest = hashlib.sha256((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                            + label.encode("utf-8")).digest()
    words = np.frombuffer(digest, dtype="<u8").astype(np.uint64)
    return np.random.Generator(np.random.PCG64(_DigestSeed(words)))


def param_stream(seed: int, label: str) -> np.random.Generator:
    """Generator for the model parameters of a (seed, label) pair:
    ``np.random.default_rng([seed mod 2**64, salt])``, salt being the first
    8 bytes of the label's sha256, little-endian.

    Parameters keep numpy's own ``SeedSequence`` seeding: its models are
    the ones every workload's acceptance rates and quality were measured
    on, and it runs once per model pair, not per request.
    """
    salt = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, salt])


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
    """Draw one index from a probability vector (an ndarray) using a single
    uniform."""
    cum = dist.cumsum()
    u = rng.random() * cum[-1]
    return int(cum.searchsorted(u, "right"))


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
        neg = -(codebook._unit @ codebook.unit(t))
        # The first k of the ranking by (-similarity, id) are the tokens
        # below the k-th smallest -similarity and the smallest ids at it, so
        # only the tokens at or below it are ranked.
        kth = neg[neg.argpartition(k - 1)[k - 1]]
        ids = (neg <= kth).nonzero()[0]
        order = ids[np.lexsort((ids, neg[ids]))]
        # t is one of the first k or not; either way the k - 1 others come
        # from the first k, so the rest of the ranking is never read.
        ranked = [i for i in order[:k].tolist() if i != t]
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
