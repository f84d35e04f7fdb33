"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured output of failing tests.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np

from specskip.core import EmbeddingCodebook, cosine, rng_stream
from specskip.engine import (FRESH, EngineConfig, compute_metrics,
                             speculative_decode, trace_to_csv, vanilla_ar,
                             vvs_generate)
from specskip.harness import ExperimentSpec, run_experiment
from specskip.models import make_model_pair
from specskip.schedule import SkipPolicy, decay_weights, decide, path_similarity
from specskip.select import truncate_path
from specskip.verify import accept, pooled_mass
from token_rows import as_paths


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_losslessness_of_strict_sd():
    cfg = EngineConfig(vocab_size=16, feat_dim=4, max_new_tokens=3,
                       epsilon=0.3, window=1, concentration=0.0,
                       logit_scale=20.0, temperature=0.5, branching=2,
                       depth=2, budget=6, accept_mode="strict", seed=7)
    models = make_model_pair(cfg)
    n = 100_000
    counts_ar, counts_sd = {}, {}
    start = time.monotonic()
    for run in range(n):
        c = replace(cfg, run=run)
        a = tuple(vanilla_ar(c, models=models).final_tokens())
        s = tuple(speculative_decode(c, models=models).final_tokens())
        counts_ar[a] = counts_ar.get(a, 0) + 1
        counts_sd[s] = counts_sd.get(s, 0) + 1
    elapsed = time.monotonic() - start
    tv = 0.5 * sum(abs(counts_ar.get(k, 0) - counts_sd.get(k, 0))
                   for k in set(counts_ar) | set(counts_sd)) / n
    _report("criterion 1 (strict SD losslessness)",
            tv <= 0.01 and elapsed < 120.0,
            f"TV={tv:.5f} (limit 0.01) over {n} paired runs in {elapsed:.1f}s")


def test_criterion_2_relaxation_degeneracy():
    codebook = EmbeddingCodebook(rng_stream(11, "cb").standard_normal((8, 3)))
    rng = rng_stream(11, "dists")
    mismatches = 0
    for trial in range(10_000):
        q = rng.dirichlet(np.ones(8))
        p = rng.dirichlet(np.ones(8))
        t = int(rng.integers(8))
        a = accept(q[t], p, t, rng_stream(trial, "shared"))
        b = accept(pooled_mass(q, t, codebook, 0.0, 8), p, t, rng_stream(trial, "shared"))
        mismatches += a != b
    _report("criterion 2 (delta=0 relaxed == strict)", mismatches == 0,
            f"{mismatches} mismatches over 10,000 shared-rng calls")


def test_criterion_3_mean_length_truncation():
    def path(length):
        return list(range(length))

    def paths_of(*lengths):
        return as_paths([path(length) for length in lengths])

    # Pinned selector examples.
    ex1 = truncate_path(path(3), paths_of(3, 3, 3, 3))
    ex2 = truncate_path(path(5), paths_of(3, 4, 5))
    ex3 = truncate_path(path(1), paths_of(1, 2))
    exact = (len(ex1) == 3 and len(ex2) == 4 and len(ex3) == 1)

    rng = rng_stream(13, "lens")
    fuzz_ok = True
    for _ in range(10_000):
        lengths = [int(rng.integers(1, 12)) for _ in range(int(rng.integers(1, 9)))]
        paths = paths_of(*lengths)
        selected = paths[int(rng.integers(len(paths)))]
        got = len(truncate_path(selected, paths))
        want = max(1, min(len(selected), math.floor(statistics.mean(lengths))))
        if got != want:
            fuzz_ok = False
            break
    _report("criterion 3 (mean-length truncation)", exact and fuzz_ok,
            f"examples exact={exact}, 10,000-case fuzz ok={fuzz_ok}")


def test_criterion_4_decay_weights_and_similarity_oracle():
    rng = rng_stream(17, "weights")
    weights_ok = True
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 1.0))
        length = int(rng.integers(1, 16))
        w = decay_weights(alpha, length)
        if abs(w.sum() - 1.0) > 1e-12:
            weights_ok = False
        if alpha < 1.0 and length > 1 and not np.all(np.diff(w) < 0):
            weights_ok = False

    cb = EmbeddingCodebook(rng_stream(17, "cb").standard_normal((12, 3)))
    sim_rng = rng_stream(17, "trees")
    worst = 0.0
    for _ in range(1000):
        n_paths = int(sim_rng.integers(2, 7))
        depth = int(sim_rng.integers(1, 5))
        alpha = float(sim_rng.uniform(0.2, 1.0))
        paths = [[int(t) for t in sim_rng.integers(0, 12, depth)]
                 for _ in range(n_paths)]
        got = path_similarity(as_paths(paths), cb, alpha).value
        # Independent all-pairs brute force.
        weights = [alpha ** level for level in range(depth)]
        weights = [x / sum(weights) for x in weights]
        oracle = 0.0
        for level in range(depth):
            sims = [cosine(cb.vectors[paths[i][level]],
                           cb.vectors[paths[j][level]])
                    for i in range(n_paths) for j in range(i + 1, n_paths)]
            oracle += weights[level] * statistics.mean(sims)
        worst = max(worst, abs(got - min(max(oracle, -1.0), 1.0)))
    _report("criterion 4 (decay weights + similarity oracle)",
            weights_ok and worst <= 1e-9,
            f"weights ok={weights_ok}, max oracle deviation={worst:.2e}")


def _fuzzed_traces():
    rng = rng_stream(23, "policies")
    traces = []
    for trial in range(1000):
        kind = ("uniform", "dynamic", "never")[trial % 3]
        cfg = EngineConfig(
            vocab_size=16, feat_dim=4, branching=2, depth=2, budget=4,
            max_new_tokens=10, policy=kind,
            interval=int(rng.integers(2, 6)),
            threshold=float(rng.uniform(-0.5, 1.0)),
            epsilon=float(rng.uniform(0.0, 1.0)),
            accept_mode=("strict", "relaxed")[trial % 2],
            delta=float(rng.uniform(0.0, 0.5)),
            strategy=("uniform", "max_confidence")[trial % 2],
            truncate=bool(trial % 2), run=trial)
        traces.append(vvs_generate(cfg))
    return traces


def test_criterion_5_scheduling_arithmetic():
    counts_ok = True
    for interval in (2, 3, 4):
        policy = SkipPolicy(EngineConfig(policy="uniform", interval=interval))
        paths = as_paths([[0], [1]])
        cb = EmbeddingCodebook(np.array([[1.0, 0.0], [0.9, 0.1]]))
        skips = sum(decide(policy, paths, cb) for _ in range(120))
        if skips != 120 // interval:
            counts_ok = False

    guard_ok = True
    for trace in _fuzzed_traces():
        kinds = [it.kind for it in trace.iterations]
        if any(a == b == "skip" for a, b in zip(kinds, kinds[1:])):
            guard_ok = False
        if kinds and kinds[0] != "verify":
            guard_ok = False
    _report("criterion 5 (scheduling arithmetic + skip guard)",
            counts_ok and guard_ok,
            f"uniform counts exact={counts_ok}, "
            f"no consecutive skips in 1,000 fuzzed runs={guard_ok}")


def test_criterion_6_forward_pass_accounting():
    recount_ok = True
    for trace in _fuzzed_traces()[:200]:
        verify_iters = [it for it in trace.iterations if it.kind == "verify"]
        n_fwd = sum(it.forward_passes for it in trace.iterations)
        n_tok = sum(it.emitted for it in trace.iterations)
        if trace.n_fwd != len(verify_iters) or trace.n_fwd != n_fwd:
            recount_ok = False
        if trace.n_tok != n_tok:
            recount_ok = False
        if compute_metrics(trace).tpf != n_tok / n_fwd:
            recount_ok = False

    identical_ok = True
    for run in range(10):
        cfg = EngineConfig(run=run, max_new_tokens=32)
        if trace_to_csv(vvs_generate(cfg)) != trace_to_csv(speculative_decode(cfg)):
            identical_ok = False
    _report("criterion 6 (forward-pass accounting)",
            recount_ok and identical_ok,
            f"raw-record recount ok={recount_ok}, "
            f"policy=never bit-identical to baseline={identical_ok}")


def test_criterion_7_tpf_uplift():
    base_tpf, vvs_tpf = [], []
    for run in range(100):
        cfg = EngineConfig(run=run)
        base_tpf.append(compute_metrics(speculative_decode(cfg)).tpf)
        vvs_tpf.append(compute_metrics(vvs_generate(
            replace(cfg, policy="uniform", interval=2))).tpf)
    ratio = float(np.mean(vvs_tpf) / np.mean(base_tpf))
    _report("criterion 7 (uniform-skip TPF uplift)", ratio >= 1.4,
            f"TPF ratio={ratio:.3f} (need >= 1.4) over 100 paired runs")


def test_criterion_8_staleness_ordering():
    # Feature-sensitive regime: a perfect drafter whose only error source is
    # the staleness of the features it consumes.
    base = dict(epsilon=0.0, concentration=1.0, window=8, logit_scale=6.0,
                accept_mode="strict", depth=4, branching=3, budget=12,
                max_new_tokens=192)
    mals = {s: [] for s in (FRESH, 0, 3)}
    blend = {(-1, 0): [], (0, 0): []}
    for run in range(200):
        for s in mals:
            cfg = EngineConfig(run=run, feature_schedule=(s,), **base)
            mals[s].append(compute_metrics(speculative_decode(cfg)).mal)
        for pair in blend:
            cfg = EngineConfig(run=run, feature_schedule=pair, **base)
            blend[pair].append(compute_metrics(speculative_decode(cfg)).mal)
    m_fresh = float(np.mean(mals[FRESH]))
    m_s0 = float(np.mean(mals[0]))
    m_s3 = float(np.mean(mals[3]))
    m_b10 = float(np.mean(blend[(-1, 0)]))
    m_b00 = float(np.mean(blend[(0, 0)]))
    ok = m_fresh >= m_s0 >= m_s3 and m_b10 >= m_b00
    _report("criterion 8 (staleness MAL ordering)", ok,
            f"MAL fresh={m_fresh:.3f} >= s0={m_s0:.3f} >= s3={m_s3:.3f}; "
            f"blend (-1,0)={m_b10:.3f} >= (0,0)={m_b00:.3f}; 200 paired runs")


def test_criterion_9_threshold_monotonicity():
    counts = {}
    for threshold in (0.70, 0.75, 0.80):
        total = 0
        for run in range(30):
            cfg = EngineConfig(run=run, policy="dynamic", threshold=threshold)
            total += vvs_generate(cfg).skip_count
        counts[threshold] = total
    ok = counts[0.70] >= counts[0.75] >= counts[0.80]
    _report("criterion 9 (threshold skip-count monotonicity)", ok,
            f"skip counts 0.70:{counts[0.70]} >= 0.75:{counts[0.75]} "
            f">= 0.80:{counts[0.80]} over 30 replayed runs each")


def test_criterion_10_reproducible_csv(tmp_path):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.csv"
        spec = ExperimentSpec(
            name="repro", base=EngineConfig(max_new_tokens=16),
            axes={"policy": ["uniform", "dynamic"], "delta": [0.1, 0.2]},
            repetitions=2, output=str(out))
        run_experiment(spec)
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report("criterion 10 (byte-identical rerun CSV)", ok,
            f"{len(outputs[0])} bytes, identical={ok}")
