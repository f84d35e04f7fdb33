"""Exact-enumeration oracles for strict speculative decoding on tiny
configurations: every branch is weighted by its closed-form probability,
so there is no Monte Carlo noise to bound."""

import itertools

import numpy as np

from specskip.tree import _child_counts


def _add(out, key, mass):
    out[key] = out.get(key, 0.0) + mass


def ordered_draws(p, c):
    """Every ordered sequence of c distinct tokens drawn without
    replacement from p, with its probability
    p(t1) * p(t2) / (1 - p(t1)) * ... * p(tc) / (1 - p(t1) - ... - p(tc-1))."""
    for seq in itertools.permutations(np.flatnonzero(p).tolist(), int(c)):
        weight, left = 1.0, 1.0
        for t in seq:
            weight *= p[t] / left
            left -= p[t]
        yield seq, weight


def node_walk(q, p, kids, after_accept):
    """Exact distribution of what a strict walk emits from one node, as
    {emitted tokens: prob}.

    The node's children `kids` (tokens, in sampling order) are tried in
    turn against the target dist q and the draft dist p they were drawn
    from, with the sequential residual update after each rejection.
    Accepting token t continues with ``after_accept(t)``, a {suffix: prob}
    dict; when every child fails, the terminal is drawn from the residual,
    and a node without children draws it from q (the bonus token).  Written
    apart from verify_tree, which it checks.
    """
    out = {}
    q = q.copy()
    p = p.copy() if kids else p
    reach = 1.0
    for rank, tok in enumerate(kids):
        if p[tok] <= 0.0:
            raise AssertionError("oracle tree must give proposals mass")
        acc = min(1.0, q[tok] / p[tok])
        if acc > 0.0:
            for suffix, mass in after_accept(tok).items():
                _add(out, (tok, *suffix), reach * acc * mass)
        reach *= 1.0 - acc
        if reach <= 0.0:
            return out
        res = np.maximum(q - p, 0.0)
        if res.sum() > 0.0:
            q = res / res.sum()
        p[tok] = 0.0
        if p.sum() > 0.0:
            p = p / p.sum()
        elif rank + 1 < len(kids):
            break  # no proposal mass left; fall through to the residual
    for tok, mass in enumerate(q):
        if mass > 0:
            _add(out, (tok,), reach * mass)
    return out


def tree_distribution(target, context, tree):
    """What verify_tree emits (accepted tokens, then the terminal) for one
    fixed tree under strict acceptance, exactly: {emitted tokens: prob}."""
    children = tree.shape.children

    def walk(slot, prefix):
        by_token = {int(tree.tokens[i]): i for i in children[slot + 1]}
        p = tree.root_dist if slot == -1 else tree.dists[slot]
        return node_walk(target.score_prefix(context + prefix).dist, p, list(by_token),
                         lambda tok: walk(by_token[tok], prefix + [tok]))

    return walk(-1, [])


def iteration_distribution(target, draft, context, k_b, budget):
    """What one strict SD iteration emits from `context`, exactly, over
    every draw of a depth-2 tree whose child counts come from the engine's
    count rule: {emitted tokens: prob}.

    The root's ordered picks are enumerated.  Each root child's count is
    fixed by its race rank r alone, through the engine's count rule at rank
    reach 2**-r, so it is the same for every draw; its ordered children are
    drawn independently of its siblings', so each child's walk is averaged
    over its own draws alone.  Only root children with a positive count get
    a drafter row, as in the engine.
    """
    def q(suffix):
        return target.score_prefix(context + list(suffix)).dist

    feat = target.feature_at(context, len(context) - 1)[None]
    root = draft.next_dist(feat, [context[-1]])[0]
    width = min(k_b, len(root))
    (c,) = _child_counts([1.0], width, budget)
    counts = _child_counts([0.5 ** r for r in range(c)], width, budget - c)
    out = {}
    for picks, weight in ordered_draws(root, c):
        grow = np.array([t for t, n in zip(picks, counts) if n])
        feats = draft.extend_feature(feat.repeat(len(grow), axis=0),
                                     [context[-draft.window]] * len(grow), grow)
        dists = dict(zip(grow.tolist(), draft.next_dist(feats, grow)))
        subtree = {}
        for t, n in zip(picks, counts):
            subtree[t] = {}

            def bonus(s, t=t):
                return {(u,): m for u, m in enumerate(q((t, s))) if m > 0}

            p = dists.get(t)   # only a root child with children has a dist
            for kids, w in ordered_draws(p, n) if n else [((), 1.0)]:
                for key, mass in node_walk(q((t,)), p, list(kids), bonus).items():
                    _add(subtree[t], key, w * mass)
        for key, mass in node_walk(q(()), root, list(picks), subtree.__getitem__).items():
            _add(out, key, weight * mass)
    return out


def two_token_tv(target, draft, context, k_b, budget):
    """Total variation between the first two tokens strict SD emits from
    `context` and the target's exact two-token distribution.  An iteration
    that emits one token takes the second from the next iteration's
    first-token marginal."""
    sd = {}
    for key, mass in iteration_distribution(target, draft, context, k_b, budget).items():
        if len(key) >= 2:
            _add(sd, key[:2], mass)
            continue
        after = iteration_distribution(target, draft, context + [key[0]], k_b, budget)
        for nxt, m in after.items():
            _add(sd, (key[0], nxt[0]), mass * m)
    first = target.score_prefix(context).dist
    exact = {(a, b): first[a] * m
             for a in range(len(first))
             for b, m in enumerate(target.score_prefix(context + [a]).dist)}
    return 0.5 * sum(abs(sd.get(k, 0.0) - exact.get(k, 0.0)) for k in set(sd) | set(exact))
