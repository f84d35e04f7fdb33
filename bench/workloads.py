"""The benchmark's workloads, the request each one issues, and the checks
run on every request's output.

Each workload fixes an ``EngineConfig`` (model seed included) and a block
size.  The benchmark seed only selects which run indices form the block, so
one seed always replays the same requests against the same models.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from specskip import engine
from specskip.engine import FRESH, EngineConfig

# A drafter call priced at 3% of a target pass: roughly one decoder layer
# against a 32-layer target, the EAGLE drafter's size (Li et al. 2024).
DRAFT_COST = 0.03

# Run indices of seed s are s * RUN_STRIDE + 0 .. block - 1, so blocks of
# different seeds never share a request.
RUN_STRIDE = 1_000_000

# The oracle check fails a side whose total variation to the exact output
# distribution exceeds the exact-sampling mean by this many standard
# deviations, both taken from NULL_DRAWS simulated blocks.  The simulated
# null is right-skewed; 20,000 blocks of the tiny config reached 5.1.
ORACLE_SIGMAS = 7.0
NULL_DRAWS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: EngineConfig
    block: int              # requests per pass over the fixed request set
    paired: bool = False    # AR + SD on the same run index, not one VVS row

    def runs(self, seed: int) -> list[int]:
        return [seed * RUN_STRIDE + i for i in range(self.block)]

    def request(self, config: EngineConfig, models):
        """One closed-loop request: the traces it produced, and the metrics
        row when the request includes ``compute_metrics``."""
        if self.paired:
            return (engine.vanilla_ar(config, models=models),
                    engine.speculative_decode(config, models=models)), None
        trace = engine.vvs_generate(config, models=models)
        return (trace,), engine.compute_metrics(trace, models[0])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="vvs-dynamic",
        why="Headline VVS pipeline with dynamic skipping and a pruned tree; "
            "the only workload that runs path_similarity (tree build and "
            "cosine dominate).",
        config=EngineConfig(policy="dynamic"),
        block=16),
    Workload(
        name="vvs-v1024-stale",
        why="V=1024 uniform interval-2 skipping with stale cached features: "
            "vocab-sized drafter and neighbor work, select and cache paths; "
            "bypasses path_similarity.",
        config=EngineConfig(vocab_size=1024, feat_dim=16, policy="uniform",
                            interval=2, feature_schedule=(FRESH, 0, 1),
                            pool_k=16),
        block=16),
    Workload(
        name="sd-tiny-pairs",
        why="Tiny AR+SD pairs of the strict-SD losslessness check: fixed "
            "per-request cost (rng setup, engine loop) dominates and an exact "
            "output oracle exists.",
        config=EngineConfig(vocab_size=16, feat_dim=4, max_new_tokens=3,
                            epsilon=0.3, window=1, concentration=0.0,
                            logit_scale=20.0, temperature=0.5, branching=2,
                            depth=2, budget=6, accept_mode="strict", seed=7),
        block=8000,
        paired=True),
)}


def run_config(workload: Workload, run: int) -> EngineConfig:
    return replace(workload.config, run=run)


def check_trace(trace) -> list[str]:
    """Problems found in one generation, recounted from its raw records."""
    cfg = trace.config
    its = trace.iterations
    kinds = [it.kind for it in its]
    problems = []
    if trace.n_fwd != kinds.count("verify") or \
            trace.n_fwd != sum(it.forward_passes for it in its):
        problems.append("n_fwd disagrees with the iteration records")
    if trace.n_tok != sum(it.emitted for it in its) or trace.n_tok != len(trace.tokens):
        problems.append("n_tok disagrees with the iteration records")
    if trace.skip_count != kinds.count("skip"):
        problems.append("skip_count disagrees with the iteration records")
    if not kinds or kinds[0] != "verify":
        problems.append("first iteration did not verify")
    if any(a == b == "skip" for a, b in zip(kinds, kinds[1:])):
        problems.append("two consecutive skips")
    if any(not 0 <= t < cfg.vocab_size for t in trace.tokens.tokens):
        problems.append("token outside the vocabulary")
    if len(trace.final_tokens()) != cfg.max_new_tokens:
        problems.append("final token count differs from max_new_tokens")
    if cfg.policy == "uniform":
        # Every run of verifies closed by a skip has exactly interval - 1.
        runs = "".join("v" if k == "verify" else "s" for k in kinds).split("s")[:-1]
        if any(len(r) != cfg.interval - 1 for r in runs):
            problems.append("uniform schedule broken")
    if cfg.policy == "dynamic":
        for prev, it in zip(its, its[1:]):
            if prev.kind == "verify" and \
                    (it.kind == "skip") != (it.similarity >= cfg.threshold):
                problems.append("skip decision disagrees with its similarity")
                break
    return problems


def tokens_digest(token_lists) -> str:
    """sha256 over delivered tokens, one request side per ';' group."""
    text = ";".join(",".join(map(str, toks)) for toks in token_lists)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def exact_continuations(target, prompt: list[int], length: int) -> np.ndarray:
    """Flat target probability of every length-`length` continuation of
    `prompt`, in ``np.ravel_multi_index`` order, from ``score_prefix``."""
    probs = np.ones(1)
    prefixes = [list(prompt)]
    for _ in range(length):
        dists = np.array([target.score_prefix(p).dist for p in prefixes])
        probs = (probs[:, None] * dists).ravel()
        prefixes = [p + [t] for p in prefixes for t in range(target.vocab_size)]
    return probs


class OracleCheck:
    """Exact output distribution of AR and SD over a request block.

    Each request adds its prompt and both sides' continuations.  The
    reference is the mixture of exact continuation distributions over the
    prompts seen.  AR's total variation to it is the measured noise floor;
    both sides must stay within the limit set by sampling exactly from the
    reference, so a failing AR side means the oracle itself is wrong.
    """

    def __init__(self, target, length: int):
        self.target = target
        self.length = length
        self.shape = (target.vocab_size,) * length
        self._exact: dict[tuple, np.ndarray] = {}
        self._prompts: Counter = Counter()
        size = int(np.prod(self.shape))
        self.counts = {"ar": np.zeros(size), "sd": np.zeros(size)}
        self.n = 0

    def add(self, prompt, ar_tokens, sd_tokens) -> None:
        key = tuple(prompt)
        if key not in self._exact:
            self._exact[key] = exact_continuations(self.target, list(prompt), self.length)
        self._prompts[key] += 1
        self.counts["ar"][np.ravel_multi_index(ar_tokens, self.shape)] += 1
        self.counts["sd"][np.ravel_multi_index(sd_tokens, self.shape)] += 1
        self.n += 1

    def mixture(self) -> np.ndarray:
        """Expected continuation counts given the prompts seen."""
        return sum(k * self._exact[p] for p, k in self._prompts.items())

    def tv(self, side: str) -> float:
        return _tv(self.counts[side], self.mixture())

    def limit(self) -> float:
        """Null mean + ORACLE_SIGMAS null deviations of the TV statistic."""
        mixture = self.mixture()
        rng = np.random.default_rng(self.n)
        null = [_tv(sum(rng.multinomial(k, self._exact[p] / self._exact[p].sum())
                        for p, k in self._prompts.items()), mixture)
                for _ in range(NULL_DRAWS)]
        return float(np.mean(null) + ORACLE_SIGMAS * np.std(null))

    def passed(self) -> bool:
        limit = self.limit()
        return self.tv("sd") <= limit and self.tv("ar") <= limit


def _tv(counts: np.ndarray, expected: np.ndarray) -> float:
    return 0.5 * float(np.abs(counts - expected).sum() / expected.sum())
