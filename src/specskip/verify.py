"""Acceptance of drafted paths against the target model.

Implements the lossless accept/reject/residual rule, its relaxed variant
that pools target mass over embedding-space neighbors (both one draw of
``accept``), and single-pass tree verification that reads previously
skipped tokens as context and hands back the one feature the next draft
conditions on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (ORIGIN_BONUS, ORIGIN_RESAMPLED, EmbeddingCodebook,
                   nearest_neighbors, sample_index)
from .errors import DegenerateProposal
from .models import TargetModel, normalize_columns, target_forward_masked
from .tree import LinearizedTree

if TYPE_CHECKING:
    from .engine import EngineConfig


@dataclass
class VerifyOutcome:
    """What one verification pass appends to the sequence: the accepted
    tree tokens and a terminal token, with the terminal's feature, the one
    the next draft conditions on."""

    accepted: list[int]
    terminal: int
    terminal_origin: str
    feature: np.ndarray

    @property
    def accept_length(self) -> int:
        return len(self.accepted)


def accept(mass: float, p: np.ndarray, t: int, rng: np.random.Generator) -> bool:
    """Accept t with probability min(1, mass/p(t)) on one uniform draw;
    ``mass`` is q(t) when strict and ``pooled_mass`` when relaxed."""
    if p[t] <= 0.0:
        raise DegenerateProposal(f"drafter assigned zero mass to token {t}")
    return rng.random() < min(1.0, mass / p[t])


def pooled_mass(q: np.ndarray, t: int, codebook: EmbeddingCodebook,
                delta: float, pool_k: int) -> float:
    """Largest prefix sum of q over t's pool_k nearest neighbors staying
    <= delta.

    The proposed token itself is always included, even when q(t) alone
    exceeds delta, so relaxation can never be stricter than strict
    acceptance; delta=0 degenerates to strict acceptance.
    """
    total = float(q[t])
    # One gather of the pool's masses, as Python floats: the same doubles,
    # summed in the same order.
    for mass in q[nearest_neighbors(codebook, t, pool_k)[1:]].tolist():
        if total + mass > delta:
            break
        total += mass
    return total


def verify_tree(linear: LinearizedTree, target: TargetModel, context,
                config: EngineConfig, rng: np.random.Generator,
                residual_rng: np.random.Generator) -> VerifyOutcome:
    """Verify a tree after ``context`` in one target forward pass.

    Only the context's last ``window`` tokens are read, so skip-accepted
    tokens at its end are plain context: the pass's column 0 scores the
    root and column 1 + j node j.  The walk normalizes only the columns it
    reads, a first-child chain (``TreeShape.chain``) at a time: the root's
    chain first, and a new chain from each child it accepts at a rank
    above 0; an accepted first child is the next column of the current
    chain.  The distributions are bit for bit those of normalizing every
    column (see ``normalize_columns``).  A greedy root-to-leaf walk
    accepts tree tokens: children in their race (sampling) order, standard
    multi-draft residual bookkeeping on rejection, a residual terminal when
    every child fails, and a bonus terminal when a leaf is reached.  Each
    child is accepted by the config's ``accept_mode``, relaxed with its
    ``delta`` and ``pool_k``; ``rng`` draws the acceptances and
    ``residual_rng`` the terminal.
    """
    tree = linear.tree
    node_tokens = linear.tokens
    tail = context[-target.window:]
    shape = tree.shape
    readout = target_forward_masked(target, tail, node_tokens, shape)

    accepted: list[int] = []
    children = shape.children
    cur_slot = -1
    block = normalize_columns(target, readout, shape.chain(0))
    row = 0
    q_cur = block[0]
    p_cur = tree.root_dist
    codebook = target.codebook
    relaxed = config.accept_mode == "relaxed"

    while True:
        # Insertion order is sampling order, the order the residual scheme
        # requires.
        kids = children[cur_slot + 1]
        if not kids:
            terminal = sample_index(q_cur, residual_rng)
            terminal_origin = ORIGIN_BONUS
            break

        # Only p_view is written in place (a rejected token's mass is
        # zeroed), so the tree's row is copied at the first rejection, and a
        # level that accepts its first child copies nothing.
        q_view, p_view = q_cur, p_cur
        chosen = None
        for rank, idx in enumerate(kids):
            tok = node_tokens[idx]
            mass = (pooled_mass(q_view, tok, codebook, config.delta, config.pool_k)
                    if relaxed else q_view[tok])
            if accept(mass, p_view, tok, rng):
                chosen = idx
                break
            # Standard multi-draft residual update before the next child.
            res = np.maximum(q_view - p_view, 0.0)
            res_total = np.add.reduce(res)
            if res_total > 0.0:
                q_view = res / res_total
            if p_view is p_cur:
                p_view = p_cur.copy()
            p_view[tok] = 0.0
            p_total = np.add.reduce(p_view)
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

        accepted.append(node_tokens[chosen])
        cur_slot = chosen
        if rank == 0:
            row += 1
        else:
            block = normalize_columns(target, readout, shape.chain(1 + chosen))
            row = 0
        q_cur = block[row]
        p_cur = tree.dists[chosen]   # None on a leaf, which goes straight to the bonus

    # Feature of the terminal token, from the same parallel pass; only the
    # last `window` tokens of its prefix reach it.
    prefix = [*tail, *accepted, terminal]
    return VerifyOutcome(accepted=accepted, terminal=terminal,
                         terminal_origin=terminal_origin,
                         feature=target.feature_at(prefix, len(prefix) - 1))
