"""Experiment runner: config files, Cartesian sweeps, analysis measurements,
and CSV emission with a stable schema.

Config and spec files are flat ``key = value`` text; unknown keys are
errors, so a spec file pins a run bit-exactly.  Outputs are CSV plus a
plain-text summary table; plotting is left to external tools.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import cosine
from .engine import (EngineConfig, _coerce, _make_prompt, _Streams,
                     compute_metrics, config_from_mapping, speculative_decode,
                     vanilla_ar, vvs_generate)
from .errors import RejectedInput
from .models import make_model_pair
from .schedule import path_similarity
from .tree import build_tree, enumerate_paths

# One schema for every experiment type.  The last column, extra, is written
# empty so that sweep CSVs keep their layout.
CSV_FIELDS = ["name", "cell", "rep", "seed", "pipeline", "n_tok", "n_fwd",
              "tpf", "mal", "skip_fraction", "quality_proxy", "extra"]


@dataclass
class ExperimentSpec:
    name: str
    base: EngineConfig
    axes: dict[str, list] = field(default_factory=dict)
    repetitions: int = 1
    output: str | None = None

    def __post_init__(self):
        known = {f.name for f in fields(EngineConfig)}
        for key, values in self.axes.items():
            if key not in known:
                raise RejectedInput(f"unknown sweep parameter {key!r}")
            if key == "seed":
                raise RejectedInput("'seed' cannot be a sweep axis: every cell "
                                    "and repetition gets a derived seed")
            if not values:
                raise RejectedInput(f"sweep parameter {key!r} has no values")
        if self.repetitions < 1:
            raise RejectedInput("repetitions must be >= 1")


@dataclass
class ResultRow:
    name: str
    cell: str
    rep: int
    seed: int
    pipeline: str
    n_tok: int
    n_fwd: int
    tpf: float
    mal: float
    skip_fraction: float
    quality_proxy: float

    def as_csv(self) -> list:
        return [self.name, self.cell, self.rep, self.seed, self.pipeline,
                self.n_tok, self.n_fwd, f"{self.tpf:.10g}", f"{self.mal:.10g}",
                f"{self.skip_fraction:.10g}", f"{self.quality_proxy:.10g}", ""]


def parse_kv_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise RejectedInput(f"{path}:{lineno}: expected key = value")
            key, raw = line.split("=", 1)
            values[key.strip()] = raw.strip()
    return values


def parse_config_file(path) -> EngineConfig:
    return config_from_mapping(parse_kv_file(path))


def parse_spec_file(path) -> ExperimentSpec:
    """Spec files hold EngineConfig keys plus name/repetitions/output and
    ``sweep.<param> = v1, v2, ...`` axes.  Axis values are comma separated;
    a tuple-valued value separates its elements by whitespace, so
    ``sweep.feature_schedule = -1, -1 0`` has the cells (-1,) and (-1, 0)."""
    values = parse_kv_file(path)
    name = values.pop("name", "experiment")
    raw_reps = values.pop("repetitions", "1")
    try:
        reps = int(raw_reps)
    except ValueError:
        raise RejectedInput(f"bad value for 'repetitions': {raw_reps!r}") from None
    output = values.pop("output", None)
    axes: dict[str, list] = {}
    base_values = {}
    for key, raw in values.items():
        if key.startswith("sweep."):
            param = key[len("sweep."):]
            axes[param] = [_coerce(param, part.strip())
                           for part in raw.split(",") if part.strip()]
        else:
            base_values[key] = raw
    base = config_from_mapping(base_values)
    return ExperimentSpec(name=name, base=base, axes=axes,
                          repetitions=reps, output=output)


def _cell_seed(master: int, cell_index: int, rep: int) -> int:
    return master + 1_000_003 * cell_index + 1_009 * rep


def _run_cell(args) -> ResultRow:
    name, cell_label, config, rep = args
    trace = vvs_generate(config)
    metrics = compute_metrics(trace)
    return ResultRow(name=name, cell=cell_label, rep=rep, seed=config.seed,
                     pipeline="sd" if config.policy == "never" else "vvs",
                     n_tok=metrics.n_tok, n_fwd=metrics.n_fwd, tpf=metrics.tpf,
                     mal=metrics.mal,
                     skip_fraction=metrics.skip_fraction,
                     quality_proxy=metrics.quality_proxy)


def _label_value(value) -> str:
    # A tuple is labelled in its axis syntax, so a cell label holds no comma.
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _tasks(spec: ExperimentSpec) -> list[tuple]:
    """One validated (name, cell label, config, rep) task per generation of
    the full Cartesian sweep, in cell order."""
    axis_names = sorted(spec.axes)
    combos = list(itertools.product(*(spec.axes[k] for k in axis_names))) or [()]
    tasks = []
    for cell_index, combo in enumerate(combos):
        overrides = dict(zip(axis_names, combo))
        cell_label = ";".join(f"{k}={_label_value(v)}" for k, v in overrides.items())
        for rep in range(spec.repetitions):
            config = replace(spec.base, seed=_cell_seed(spec.base.seed, cell_index, rep),
                             **overrides).validate()
            tasks.append((spec.name, cell_label, config, rep))
    return tasks


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Full Cartesian sweep, deterministic given the spec; rows stream to
    the output CSV as they complete (single writer, cell order)."""
    if jobs < 1:
        raise RejectedInput("jobs must be >= 1")
    tasks = _tasks(spec)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(task) for task in tasks]

    if spec.output:
        write_rows(spec.output, rows)
    return rows


def write_rows(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow(row.as_csv())


def summary_table(rows: list[ResultRow]) -> str:
    """Plain-text per-cell means of the speed and quality columns."""
    cells: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.name, row.cell), []).append(row)
    lines = [f"{'name':<20} {'cell':<38} {'tpf':>7} {'mal':>7} {'skip%':>7} {'quality':>9}"]
    for (name, cell), group in cells.items():
        tpf = np.mean([r.tpf for r in group])
        mal = np.mean([r.mal for r in group])
        sf = np.mean([r.skip_fraction for r in group])
        q = np.mean([r.quality_proxy for r in group])
        lines.append(f"{name:<20} {cell:<38} {tpf:>7.3f} {mal:>7.3f} {sf:>7.3f} {q:>9.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drafting-stage analysis measurements
# ---------------------------------------------------------------------------

def measure_path_similarity_distribution(config: EngineConfig, runs: int) -> dict:
    """Per-iteration stride-1 path similarity across seeded SD runs: a
    20-bin histogram over [-1, 1] plus the fraction above 0.7."""
    if runs < 1:
        raise RejectedInput("runs must be >= 1")
    config.validate()
    edges = np.linspace(-1.0, 1.0, 21)
    values = []
    degenerate = 0
    for run in range(runs):
        cfg = replace(config, policy="never", run=config.run + run,
                      log_similarity=True)
        trace = speculative_decode(cfg, models=make_model_pair(cfg))
        for it in trace.iterations:
            if it.similarity is None:
                degenerate += 1
            else:
                values.append(it.similarity)
    counts, _ = np.histogram(values, bins=edges)
    frac = float(np.mean([v > 0.7 for v in values])) if values else float("nan")
    return {"bin_edges": edges, "counts": counts, "degenerate": degenerate,
            "fraction_above_0.7": frac, "iterations": len(values)}


def measure_feature_similarity(config: EngineConfig, max_distance: int,
                               runs: int = 8) -> list[tuple[int, float]]:
    """Mean cosine between target features of token pairs at each positional
    distance 1..max_distance over seeded generations, each of which has
    window + max_new_tokens positions."""
    config.validate()
    longest = config.window + config.max_new_tokens - 1
    if not 1 <= max_distance <= longest:
        raise RejectedInput(f"max distance must lie in [1, {longest}], "
                            "within one generation's positions")
    sums = np.zeros(max_distance)
    counts = np.zeros(max_distance, dtype=int)
    for run in range(runs):
        cfg = replace(config, run=config.run + run)
        target, _ = make_model_pair(cfg)
        trace = vanilla_ar(cfg, models=(target, None))
        seq = trace.prompt + trace.final_tokens()
        feats = [target.feature_at(seq, i) for i in range(len(seq))]
        for dist in range(1, max_distance + 1):
            for i in range(len(feats) - dist):
                sums[dist - 1] += cosine(feats[i], feats[i + dist])
                counts[dist - 1] += 1
    return [(d + 1, float(sums[d] / counts[d])) for d in range(max_distance)]


def sample_similarity_gaps(config: EngineConfig, trees: int = 1000) -> np.ndarray:
    """|stride-1 minus stride-2| path similarity of each random tree with
    two or more paths; the measurement behind the frozen stride tolerance."""
    config.validate()
    gaps = []
    target, draft = make_model_pair(config)
    for run in range(trees):
        cfg = replace(config, run=config.run + run)
        streams = _Streams(cfg)
        prompt = _make_prompt(cfg, streams["prompt"])
        feat = target.feature_at(prompt, len(prompt) - 1)
        tree = build_tree(draft, feat, prompt, cfg.branching, cfg.depth,
                          cfg.budget, rng=streams["draft"])
        paths = enumerate_paths(tree)
        s1 = path_similarity(paths, target.codebook, cfg.alpha, stride=1)
        s2 = path_similarity(paths, target.codebook, cfg.alpha, stride=2)
        if not s1.degenerate and not s2.degenerate:
            gaps.append(abs(s1.value - s2.value))
    return np.array(gaps)
