"""Acceptance of drafted paths against the target model.

Implements the lossless accept/reject/residual rule, its relaxed variant
that pools target mass over embedding-space neighbors, and single-pass tree
verification that ratifies previously skipped tokens and hands back the one
feature the next draft conditions on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ORIGIN_BONUS, ORIGIN_RESAMPLED, EmbeddingCodebook,
                   nearest_neighbors, sample_index)
from .errors import DegenerateProposal, RejectedInput
from .models import TargetModel, target_forward_masked
from .tree import LinearizedTree


@dataclass(frozen=True)
class RelaxConfig:
    """Relaxed-acceptance knobs; delta=0 degenerates to strict acceptance."""

    delta: float
    pool_k: int

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise RejectedInput("delta must lie in [0, 1]")
        if self.pool_k < 1:
            raise RejectedInput("pool size must be >= 1")


@dataclass
class VerifyOutcome:
    """What one verification pass appends after the ratified pending
    tokens: the newly accepted tree tokens and a terminal token, with the
    terminal's feature, the one the next draft conditions on."""

    accepted: list[int]
    terminal: int
    terminal_origin: str
    feature: np.ndarray

    @property
    def accept_length(self) -> int:
        return len(self.accepted)


def strict_accept(q: np.ndarray, p: np.ndarray, t: int,
                  rng: np.random.Generator) -> bool:
    """Accept t with probability min(1, q(t)/p(t)) on one uniform draw."""
    if p[t] <= 0.0:
        raise DegenerateProposal(f"drafter assigned zero mass to token {t}")
    return rng.random() < min(1.0, q[t] / p[t])


def pooled_mass(q: np.ndarray, t: int, codebook: EmbeddingCodebook,
                cfg: RelaxConfig) -> float:
    """Largest prefix sum of q over t's nearest neighbors staying <= delta.

    The proposed token itself is always included, even when q(t) alone
    exceeds delta, so relaxation can never be stricter than strict
    acceptance.
    """
    total = float(q[t])
    for nb in nearest_neighbors(codebook, t, cfg.pool_k)[1:]:
        if total + q[nb] > cfg.delta:
            break
        total += float(q[nb])
    return total


def relaxed_accept(q: np.ndarray, p: np.ndarray, t: int,
                   codebook: EmbeddingCodebook, cfg: RelaxConfig,
                   rng: np.random.Generator) -> bool:
    if p[t] <= 0.0:
        raise DegenerateProposal(f"drafter assigned zero mass to token {t}")
    pooled = pooled_mass(q, t, codebook, cfg)
    return rng.random() < min(1.0, pooled / p[t])


def _accept_one(q: np.ndarray, p: np.ndarray, t: int, mode,
                codebook: EmbeddingCodebook, rng: np.random.Generator) -> bool:
    if isinstance(mode, RelaxConfig):
        return relaxed_accept(q, p, t, codebook, cfg=mode, rng=rng)
    if mode == "strict":
        return strict_accept(q, p, t, rng)
    raise RejectedInput(f"unknown verification mode {mode!r}")


def verify_tree(linear: LinearizedTree, target: TargetModel, context, mode,
                rng: np.random.Generator,
                residual_rng: np.random.Generator | None = None) -> VerifyOutcome:
    """Verify a linearized candidate block in one target forward pass.

    Pending tokens are ratified as-is (their role is to restore exact
    conditioning), then a greedy root-to-leaf walk accepts tree tokens:
    children in their race (sampling) order, standard multi-draft residual
    bookkeeping on rejection, a residual terminal when every child fails,
    and a bonus terminal when a leaf is reached.
    """
    if residual_rng is None:
        residual_rng = rng
    tree = linear.tree
    dists = target_forward_masked(target, context, linear.tokens, linear.parents)

    accepted: list[int] = []
    n_pending = linear.pending_len
    children = tree.children_of()
    cur_slot = -1
    w = target.window
    q_cur = dists[:, n_pending - 1] if n_pending else target.score_prefix(context[-w:]).dist
    p_cur = tree.root_dist
    codebook = target.codebook

    while True:
        # Insertion order is sampling order, the order the residual scheme
        # requires.
        kids = children[cur_slot + 1]
        if not kids:
            terminal = sample_index(q_cur, residual_rng)
            terminal_origin = ORIGIN_BONUS
            break

        q_view = q_cur.copy()
        p_view = p_cur.copy()
        chosen = None
        for rank, idx in enumerate(kids):
            tok = tree.nodes[idx].token
            if _accept_one(q_view, p_view, tok, mode, codebook, rng):
                chosen = idx
                break
            # Standard multi-draft residual update before the next child.
            res = np.maximum(q_view - p_view, 0.0)
            res_total = res.sum()
            if res_total > 0.0:
                q_view = res / res_total
            p_view[tok] = 0.0
            p_total = p_view.sum()
            if p_total > 0.0:
                p_view = p_view / p_total
            elif rank + 1 < len(kids):
                break  # no proposal mass left; fall through to the residual

        if chosen is None:
            # q_view already carries every rejection's residual update; when
            # the residual was degenerate (q == p) it still sums to one.
            terminal = sample_index(q_view, residual_rng)
            terminal_origin = ORIGIN_RESAMPLED
            break

        node = tree.nodes[chosen]
        accepted.append(node.token)
        cur_slot = chosen
        q_cur = dists[:, n_pending + chosen]
        p_cur = node.dist

    # Feature of the terminal token, from the same parallel pass; only the
    # last `window` tokens of its prefix reach it.
    prefix = [*context[-w:], *linear.tokens[:n_pending], *accepted, terminal]
    return VerifyOutcome(accepted=accepted, terminal=terminal,
                         terminal_origin=terminal_origin,
                         feature=target.feature_at(prefix, len(prefix) - 1))
