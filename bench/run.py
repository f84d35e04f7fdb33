"""specskip benchmark: run one workload in a closed loop and print its metrics.

    python3 bench/run.py --workload vvs-dynamic --seed 1 --seconds 40 --trace 0

One client in one process issues each request after the previous one
returns.  A run replays its workload's fixed request block (chosen by the
seed) in passes until the time is up; the first pass always completes and
gives the deterministic metrics, and every later pass must reproduce its
tokens exactly.  Times are scaled to the reference host speed (host.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer split.  The last stdout
line is one JSON object; exit code 0 means every check passed.  See
README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919          # for confirming a claim made on other seeds
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# (name, unit, better); failed_frac is printed but not a BENCHMARK.json
# metric, because it reads 0 on a correct program.
END_TO_END = [
    ("tokens_per_s", "tok/s", "higher"),
    ("gen_ms_p50", "ms", "lower"),
    ("gen_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("tpf", "tok/pass", "higher"),
    ("mal", "tok/iter", "higher"),
    ("quality_nll", "nat/tok", "lower"),
    ("modeled_speedup", "x", "higher"),
]

# Work counts and times read lower-is-better; the acceptance, skip and
# truncation ratios higher-is-better.  Per-layer metrics have no bound.
PER_LAYER = [
    ("core.rng_stream.calls", "count", "lower"),
    ("core.rng_stream.us_per_tok", "us/tok", "lower"),
    ("core.sample_index.calls", "count", "lower"),
    ("core.sample_index.us_per_tok", "us/tok", "lower"),
    ("core.cosine.calls", "count", "lower"),
    ("core.cosine.us_per_tok", "us/tok", "lower"),
    ("core.nearest_neighbors.calls", "count", "lower"),
    ("core.nearest_neighbors.us_per_tok", "us/tok", "lower"),
    ("models.make_model_pair.ms", "ms", "lower"),
    ("models.draft_next_dist.calls", "count", "lower"),
    ("models.draft_next_dist.us_per_tok", "us/tok", "lower"),
    ("models.target_forward_masked.calls", "count", "lower"),
    ("models.target_forward_masked.us_per_tok", "us/tok", "lower"),
    ("models.target_forward_masked.positions", "tok/pass", "lower"),
    ("models.target_forward.calls", "count", "lower"),
    ("models.target_forward.us_per_tok", "us/tok", "lower"),
    ("tree.build_tree.calls", "count", "lower"),
    ("tree.build_tree.us_per_tok", "us/tok", "lower"),
    ("tree.nodes_per_tree", "count", "lower"),
    ("tree.paths_per_tree", "count", "lower"),
    ("tree.enumerate_paths.us_per_tok", "us/tok", "lower"),
    ("tree.linearize.us_per_tok", "us/tok", "lower"),
    ("verify.verify_tree.us_per_tok", "us/tok", "lower"),
    ("verify.accept_ratio", "ratio", "higher"),
    ("verify.bonus_frac", "ratio", "higher"),
    ("verify.pooled_mass.calls", "count", "lower"),
    ("verify.pooled_mass.us_per_tok", "us/tok", "lower"),
    ("schedule.decide.us_per_tok", "us/tok", "lower"),
    ("schedule.path_similarity.calls", "count", "lower"),
    ("schedule.path_similarity.us_per_tok", "us/tok", "lower"),
    ("schedule.skip_ratio", "ratio", "higher"),
    ("select.select_path.us_per_tok", "us/tok", "lower"),
    ("select.truncate_path.us_per_tok", "us/tok", "lower"),
    ("select.kept_ratio", "ratio", "higher"),
    ("cache.update.calls", "count", "lower"),
    ("cache.update.us_per_tok", "us/tok", "lower"),
    ("cache.retrieve.calls", "count", "lower"),
    ("cache.retrieve.us_per_tok", "us/tok", "lower"),
    ("cache.underflow", "count", "lower"),
    ("engine.self_us_per_tok", "us/tok", "lower"),
    ("engine.compute_metrics.us_per_tok", "us/tok", "lower"),
    ("engine.iterations", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def import_program() -> None:
    """Put the checkout's own specskip sources first on the path; an
    installed copy elsewhere must not stand in for them."""
    if not (SRC / "specskip" / "__init__.py").is_file():
        sys.exit(f"error: specskip sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def ratio(num: float, den: float) -> float:
    """num / den, reading 0 when the base is 0 (the work never ran)."""
    return num / den if den else 0.0


class Run:
    """Requests of one workload and seed, their checks and their timings."""

    def __init__(self, workload, models, seed: int):
        from host import HostClock
        from workloads import OracleCheck

        self.workload = workload
        self.models = models
        self.runs = workload.runs(seed)
        self.reference: list[list[list[int]] | None] = [None] * len(self.runs)
        self.rows: list[dict] = []        # first pass, one per request
        self.oracle = OracleCheck(models[0], workload.config.max_new_tokens) \
            if workload.paired else None
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.clock = HostClock()
        # Every timed repetition of each request, keyed by (traced, raw).
        self.times = {key: [[] for _ in self.runs]
                      for key in itertools.product((False, True), repeat=2)}
        self.factors: dict[int, float] = {}     # traced request id -> scale
        self.req_tokens = [0] * len(self.runs)

    def request(self, i: int, tracer=None, request_id: int = -1) -> None:
        from workloads import run_config

        config = run_config(self.workload, self.runs[i])
        args = (config, self.models)
        self.attempted += 1
        self.clock.before()
        try:
            start = time.perf_counter_ns()
            if tracer is None:
                traces, metrics = self.workload.request(*args)
            else:
                traces, metrics = tracer.request(request_id, self.workload.request, *args)
            elapsed = time.perf_counter_ns() - start
            scaled = self.clock.scale(elapsed)
            problems = self._check(i, traces, metrics)
        except Exception as exc:  # a failed request is counted, not fatal
            if not self.problems:
                traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}"]
        if problems:
            self.failed += 1
            self.problems.update(problems)
            return
        traced = tracer is not None
        self.times[traced, False][i].append(scaled)
        self.times[traced, True][i].append(elapsed)
        if traced:
            self.factors[request_id] = self.clock.factor

    def _check(self, i: int, traces, metrics) -> list[str]:
        from specskip.engine import compute_metrics
        from workloads import check_trace

        problems = [p for trace in traces for p in check_trace(trace)]
        delivered = [trace.final_tokens() for trace in traces]
        if self.reference[i] is not None:
            if delivered != self.reference[i]:
                problems.append("tokens differ from the first pass")
            return problems
        self.reference[i] = delivered
        self.req_tokens[i] = sum(map(len, delivered))
        trace = traces[-1]
        if self.workload.paired:
            # Quality and AR's TPF are computed here, outside the timed call.
            ar, sd = traces
            target = self.models[0]
            if compute_metrics(ar, target).tpf != 1.0:
                problems.append("vanilla TPF is not exactly 1")
            if ar.prompt != sd.prompt:
                problems.append("AR and SD saw different prompts")
            metrics = compute_metrics(sd, target)
            self.oracle.add(sd.prompt, ar.final_tokens(), sd.final_tokens())
        self.rows.append({
            "tpf": metrics.tpf, "mal": metrics.mal,
            "quality_proxy": metrics.quality_proxy,
            "n_tok": trace.n_tok, "n_fwd": trace.n_fwd,
            "draft_forwards": trace.draft_forwards,
            "skip_count": trace.skip_count,
            "iterations": sum(len(t.iterations) for t in traces),
        })
        return problems

    def full_pass(self, tracer=None, first_id: int = 0) -> None:
        for i in range(len(self.runs)):
            self.request(i, tracer, first_id + i)

    def finish_checks(self) -> None:
        """Checks over the whole first pass, after the timed loop."""
        if self.oracle is not None and self.oracle.n == len(self.runs) \
                and not self.oracle.passed():
            self.failed += len(self.runs)
            self.problems["SD output distribution fails the exact oracle"] += 1

    def request_ns(self, traced: bool = False, raw: bool = False) -> dict[int, float]:
        """Median time of each request over its repetitions."""
        return {i: statistics.median(ts)
                for i, ts in enumerate(self.times[traced, raw]) if ts}

    def tokens_per_s(self, traced: bool = False, raw: bool = False) -> float:
        """Block tokens over the summed median time of each request."""
        medians = self.request_ns(traced, raw)
        return sum(self.req_tokens[i] for i in medians) / (sum(medians.values()) / 1e9)

    def record(self) -> dict:
        """Everything that must repeat exactly for a fixed seed."""
        from workloads import tokens_digest

        counts = {key: sum(row[key] for row in self.rows)
                  for key in ("n_tok", "n_fwd", "draft_forwards", "skip_count",
                              "iterations")}
        record = {"requests": len(self.rows), **counts,
                  "digest": tokens_digest(t for ref in self.reference for t in ref)}
        if self.oracle is not None:
            record["oracle_n"] = self.oracle.n
            record["oracle_tv_sd"] = self.oracle.tv("sd")
            record["oracle_tv_ar"] = self.oracle.tv("ar")
            record["oracle_tv_limit"] = self.oracle.limit()
        return record

    def deterministic_metrics(self) -> dict[str, float]:
        from workloads import DRAFT_COST

        rows = self.rows
        n_tok = sum(r["n_tok"] for r in rows)
        n_fwd = sum(r["n_fwd"] for r in rows)
        drafts = sum(r["draft_forwards"] for r in rows)
        return {
            "tpf": statistics.fmean(r["tpf"] for r in rows),
            "mal": statistics.fmean(r["mal"] for r in rows),
            "quality_nll": -statistics.fmean(r["quality_proxy"] for r in rows),
            "modeled_speedup": n_tok / (n_fwd + DRAFT_COST * drafts),
        }


def setup(workload, seed: int):
    """Models built once, plus one warm-up request, as every run starts."""
    from specskip.models import make_model_pair
    from workloads import run_config

    models = make_model_pair(workload.config)
    workload.request(run_config(workload, workload.runs(seed)[0]), models)
    return models


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process until it has imported
    specskip, and until it has also built the models and served the
    warm-up request."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    imported, finished = map(float, done.stdout.split()[-2:])
    return imported - start, finished - start


def run_untraced(run: Run, seconds: float, setup_probe) -> list[tuple[float, float]]:
    """Requests until the time is up, the first pass always whole.  The
    setup probes are spread evenly over the run; returns their (scaled,
    raw) seconds.  The start up to the import is scaled by a bare
    interpreter start, the rest by the kernel."""
    from host import KERNEL_REF_NS, START_REF_S, kernel_ns, start_s

    def probe():
        start_factor = START_REF_S / start_s()
        cpu_factor = KERNEL_REF_NS / kernel_ns()
        imported, raw = setup_probe()
        return imported * start_factor + (raw - imported) * cpu_factor, raw

    block = len(run.runs)
    start = time.monotonic()
    samples = []
    n = 0
    while n < block or time.monotonic() < start + seconds:
        if len(samples) < SETUP_PROBES and \
                time.monotonic() >= start + len(samples) * seconds / SETUP_PROBES:
            samples.append(probe())
        run.request(n % block)
        n += 1
    samples += [probe() for _ in range(SETUP_PROBES - len(samples))]
    return samples


def run_traced(run: Run, seconds: float, tracer) -> Counter:
    """Alternate whole untraced and traced passes; returns the work counts
    of the first traced pass."""
    deadline = time.monotonic() + seconds
    block = len(run.runs)
    passes = 0
    while passes == 0 or time.monotonic() < deadline:
        run.full_pass()
        with tracer:
            run.full_pass(tracer, passes * block)
        if passes == 0:
            first_counts = Counter(tracer.counts)
        passes += 1
    return first_counts


def per_layer(run: Run, tracer, counts: Counter, model_ms: float
              ) -> tuple[dict[str, float], int]:
    """The per-layer metrics, and how far the spans' self times miss the
    traced request time (0 when every span closed properly)."""
    from tracing import REQUEST

    block = len(run.runs)
    raw_ns, _, total_ns = tracer.self_times()
    _, calls, _ = tracer.self_times(0, block)
    self_ns, _, _ = tracer.self_times(scale=run.factors)
    tokens = sum(run.req_tokens) * len(run.factors) / block
    derived = {
        "models.make_model_pair.ms": model_ms,
        "models.target_forward_masked.positions":
            ratio(counts["models.positions"], calls.get("models.target_forward_masked", 0)),
        "tree.nodes_per_tree": ratio(counts["tree.nodes"], calls.get("tree.build_tree", 0)),
        "tree.paths_per_tree": ratio(counts["tree.paths"], calls.get("tree.enumerate_paths", 0)),
        "verify.accept_ratio": ratio(counts["verify.accepted"], counts["verify.nodes_scored"]),
        "verify.bonus_frac": ratio(counts["verify.bonus"], calls.get("verify.verify_tree", 0)),
        "schedule.skip_ratio": ratio(counts["schedule.skips"], calls.get("schedule.decide", 0)),
        "select.kept_ratio": ratio(counts["select.kept"], counts["select.selected"]),
        "cache.underflow": counts["cache.underflow"],
        "engine.self_us_per_tok": self_ns[REQUEST] / 1e3 / tokens,
        "engine.iterations": counts["engine.iterations"],
        "trace.overhead_frac": 1.0 - run.tokens_per_s(True) / run.tokens_per_s(False),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        else:
            out[name] = self_ns.get(span, 0) / 1e3 / tokens
    return out, sum(raw_ns.values()) - total_ns


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from specskip.models import make_model_pair
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    models = setup(workload, seed)
    run = Run(workload, models, seed)
    if trace:
        from tracing import Tracer

        model_ms = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter_ns()
            make_model_pair(workload.config)
            model_ms.append((time.perf_counter_ns() - start) / 1e6)
        tracer = Tracer()
        counts = run_traced(run, seconds, tracer)
        run.finish_checks()
        metrics, closure_ns = per_layer(run, tracer, counts, statistics.median(model_ms))
        if closure_ns:
            run.problems["span self times do not add up to request time"] += 1
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        record = {**run.record(), "layer_counts": dict(sorted(counts.items())),
                  "layer_calls": tracer.self_times(0, len(run.runs))[1]}
        units = {n: u for n, u, _ in PER_LAYER}
        unscaled = {}
    else:
        setup_samples = run_untraced(run, seconds, lambda: setup_seconds(name, seed))
        run.finish_checks()
        metrics = timing_metrics(run, setup_samples, raw=False)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if run.rows:
            metrics.update(run.deterministic_metrics())
        unscaled = timing_metrics(run, setup_samples, raw=True)
        record = {**run.record(), "gen_samples": len(run.request_ns()),
                  "timed_requests": sum(map(len, run.times[False, False]))}
        units = {n: u for n, u, _ in END_TO_END}
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": run.attempted, "failed": run.failed,
        "problems": dict(run.problems), "record": record,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "unscaled": unscaled,
        "kernel_ms": statistics.median(run.clock.samples) / 1e6,
    }


def timing_metrics(run: Run, setup_samples, raw: bool) -> dict[str, float]:
    """The timed end-to-end metrics, scaled to the reference host speed or
    (raw) as the wall clock read them."""
    times_ms = [ns / 1e6 for ns in run.request_ns(raw=raw).values()]
    return {
        "tokens_per_s": run.tokens_per_s(raw=raw),
        "gen_ms_p50": statistics.median(times_ms),
        "gen_ms_p90": statistics.quantiles(times_ms, n=10)[-1],
        "setup_s": statistics.median(sample[raw] for sample in setup_samples),
    }


def report(result: dict) -> None:
    """Human-readable lines; the JSON result follows on the last line."""
    head = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    print(f"{head} attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.6g}")
    for problem, n in result["problems"].items():
        print(f"  FAILED {problem} (x{n})")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    unscaled = " ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items())
    print(f"  host kernel median {result['kernel_ms']:.4g} ms; unscaled: {unscaled}")
    print("record " + json.dumps({"workload": result["workload"], "seed": result["seed"],
                                  **result["record"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    from workloads import WORKLOADS
    imported = time.monotonic()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        setup(WORKLOADS[names[0]], args.seed)
        print(imported, time.monotonic())
        return 0

    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        report(result)
    single = len(results) == 1
    summary = {
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
