"""Command-line entry point: single generations, sweeps, and analysis."""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from .engine import (EngineConfig, compute_metrics, trace_to_csv, vanilla_ar,
                     vvs_generate)
from .errors import SpecskipError
from .harness import (measure_feature_similarity,
                      measure_path_similarity_distribution, open_output,
                      parse_config_file, parse_spec_file, run_experiment,
                      summary_table)
from .models import make_model_pair


def _load_config(args) -> EngineConfig:
    config = parse_config_file(args.config) if args.config else EngineConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_generate(args) -> int:
    config = _load_config(args)
    # Opened first, so an unwritable path fails before the generation runs.
    with open_output(args.output) if args.output else contextlib.nullcontext() as fh:
        models = make_model_pair(config)
        trace = (vanilla_ar if args.vanilla else vvs_generate)(config, models)
        metrics = compute_metrics(trace, models[0])
        if fh is not None:
            fh.write(trace_to_csv(trace))
    print(f"tokens={metrics.n_tok} forwards={metrics.n_fwd} "
          f"tpf={metrics.tpf:.4f} mal={metrics.mal:.4f} "
          f"skip_fraction={metrics.skip_fraction:.4f} "
          f"quality={metrics.quality_proxy:.6f}")
    return 0


def cmd_sweep(args) -> int:
    spec = parse_spec_file(args.spec)
    spec.output = args.output or spec.output or "results.csv"
    rows = run_experiment(spec, jobs=args.jobs)
    print(summary_table(rows))
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args)
    runs = {} if args.runs is None else {"runs": args.runs}  # else the analysis's default
    if args.what == "path-similarity":
        out = measure_path_similarity_distribution(config, **runs)
        print(f"iterations={out['iterations']} degenerate={out['degenerate']} "
              f"fraction_above_0.7={out['fraction_above_0.7']:.4f}")
        for lo, hi, count in zip(out["bin_edges"][:-1], out["bin_edges"][1:],
                                 out["counts"]):
            print(f"[{lo:+.2f},{hi:+.2f}) {count}")
    else:  # feature-similarity
        for dist, sim in measure_feature_similarity(config, args.max_distance, **runs):
            print(f"distance={dist} mean_cosine={sim:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specskip",
        description="Speculative decoding with verification skipping.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run one generation and print metrics")
    gen.add_argument("--config", help="key=value config file")
    gen.add_argument("--output", help="write the iteration trace CSV here")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--vanilla", action="store_true",
                     help="plain autoregressive decoding instead of speculative")
    gen.set_defaults(func=cmd_generate)

    sweep = sub.add_parser("sweep", help="run an experiment spec file")
    sweep.add_argument("spec", help="experiment spec file")
    sweep.add_argument("--output", help="results CSV path (overrides the spec)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweep cells")
    sweep.set_defaults(func=cmd_sweep)

    ana = sub.add_parser("analyze", help="run a built-in measurement")
    ana.add_argument("what", choices=["path-similarity", "feature-similarity"])
    ana.add_argument("--config", help="key=value config file")
    ana.add_argument("--seed", type=int, help="override the config seed")
    ana.add_argument("--runs", type=int,
                     help="generations (default 50 for path-similarity, 8 for "
                          "feature-similarity)")
    ana.add_argument("--max-distance", type=int, default=8,
                     help="largest positional distance for feature-similarity")
    ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecskipError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
