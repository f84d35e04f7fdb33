"""Experiment runner: config files, Cartesian sweeps, analysis measurements,
and CSV emission with a stable schema.

Config and spec files are flat ``key = value`` text; unknown keys are
errors, so a spec file pins a run bit-exactly.  Outputs are CSV plus a
plain-text summary table; plotting is left to external tools.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .engine import (FRESH, EngineConfig, GenerationTrace, Metrics, _Streams,
                     compute_metrics, speculative_decode, vanilla_ar, vvs_generate)
from .errors import DegenerateVector, RejectedInput
from .models import make_model_pair
from .schedule import path_similarity
from .tree import DraftTree, build_tree, enumerate_paths

# One schema for every experiment type.  The last column, extra, is written
# empty so that sweep CSVs keep their layout.
CSV_FIELDS = ["name", "cell", "rep", "seed", "pipeline", "n_tok", "n_fwd",
              "tpf", "mal", "skip_fraction", "quality_proxy", "extra"]

_CONFIG_KEYS = frozenset(f.name for f in fields(EngineConfig))


@dataclass
class ExperimentSpec:
    name: str
    base: EngineConfig
    axes: dict[str, list] = field(default_factory=dict)
    repetitions: int = 1
    output: str | None = None

    def __post_init__(self):
        for key, values in self.axes.items():
            if key not in _CONFIG_KEYS:
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
    metrics: Metrics

    def as_csv(self) -> list:
        m = self.metrics
        return [self.name, self.cell, self.rep, self.seed, self.pipeline,
                m.n_tok, m.n_fwd, f"{m.tpf:.10g}", f"{m.mal:.10g}",
                f"{m.skip_fraction:.10g}", f"{m.quality_proxy:.10g}", ""]


def parse_kv_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise RejectedInput(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise RejectedInput(f"{path} is not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RejectedInput(f"{path}:{lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key in values:
            raise RejectedInput(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = raw.strip()
    return values


def config_from_mapping(values: dict) -> EngineConfig:
    """Build a config from string-keyed values, rejecting unknown keys by
    name (the contract behind the flat config-file schema)."""
    kwargs = {}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise RejectedInput(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, raw)
    return EngineConfig(**kwargs)


def _coerce(key: str, raw):
    """Convert config text to the type of the field's default; text that
    does not parse is rejected.  Tuple text separates its elements by
    commas or whitespace.  A value that is not text, and the text of an
    unknown key, pass through unchanged, for the config to reject by type
    or the caller by name."""
    if not isinstance(raw, str):
        return raw
    default = getattr(EngineConfig, key, None)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise RejectedInput(f"bad boolean for {key!r}: {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(int(part) for part in raw.replace(",", " ").split())
    except ValueError:
        raise RejectedInput(f"bad value for {key!r}: {raw!r}") from None
    return raw


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
    models = make_model_pair(config)
    return ResultRow(name=name, cell=cell_label, rep=rep, seed=config.seed,
                     pipeline="sd" if config.policy == "never" else "vvs",
                     metrics=compute_metrics(vvs_generate(config, models), models[0]))


def _label_value(value) -> str:
    # A tuple is labelled in its axis syntax, so a cell label holds no comma.
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _tasks(spec: ExperimentSpec) -> list[tuple]:
    """One (name, cell label, config, rep) task per generation of the full
    Cartesian sweep, in cell order; a cell with an invalid setting is
    rejected as its config is built, before any cell runs.  Only the checks
    that read model parameters (``make_model_pair``'s) wait for the cell's
    run."""
    axis_names = sorted(spec.axes)
    combos = list(itertools.product(*(spec.axes[k] for k in axis_names))) or [()]
    tasks = []
    for cell_index, combo in enumerate(combos):
        overrides = dict(zip(axis_names, combo))
        cell_label = ";".join(f"{k}={_label_value(v)}" for k, v in overrides.items())
        for rep in range(spec.repetitions):
            config = replace(spec.base, seed=_cell_seed(spec.base.seed, cell_index, rep),
                             **overrides)
            tasks.append((spec.name, cell_label, config, rep))
    return tasks


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Full Cartesian sweep, deterministic given the spec.  The output CSV,
    if any, is opened before the first cell runs, so an unwritable path
    fails at once, and each row is written and flushed in cell order as
    its cell completes (single writer)."""
    if jobs < 1:
        raise RejectedInput("jobs must be >= 1")
    tasks = _tasks(spec)
    rows = []
    with contextlib.ExitStack() as stack:
        if spec.output:
            fh = stack.enter_context(open_output(spec.output))
            writer = _csv_writer(fh)
            fh.flush()
        if jobs > 1:
            # The pool forks all its workers at once: no more than tasks,
            # nor than the CPUs this process may use.
            workers = min(jobs, len(tasks), _usable_cpus())
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_run_cell, tasks)
        else:
            results = map(_run_cell, tasks)
        for row in results:
            rows.append(row)
            if spec.output:
                writer.writerow(row.as_csv())
                fh.flush()
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the host's where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def open_output(path):
    """Open a CSV output file; a path that cannot be written is rejected
    input."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise RejectedInput(f"cannot write {path}: {exc.strerror}") from None


def _csv_writer(fh):
    """A CSV writer on `fh`, its header row written."""
    writer = csv.writer(fh)
    writer.writerow(CSV_FIELDS)
    return writer


def summary_table(rows: list[ResultRow]) -> str:
    """Plain-text per-cell means of the speed and quality columns."""
    cells: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        cells.setdefault((row.name, row.cell), []).append(row)
    lines = [f"{'name':<20} {'cell':<38} {'tpf':>7} {'mal':>7} {'skip%':>7} {'quality':>9}"]
    for (name, cell), group in cells.items():
        tpf = np.mean([r.metrics.tpf for r in group])
        mal = np.mean([r.metrics.mal for r in group])
        sf = np.mean([r.metrics.skip_fraction for r in group])
        q = np.mean([r.metrics.quality_proxy for r in group])
        lines.append(f"{name:<20} {cell:<38} {tpf:>7.3f} {mal:>7.3f} {sf:>7.3f} {q:>9.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drafting-stage analysis measurements
# ---------------------------------------------------------------------------

def _sd_trees(trace: GenerationTrace, models) -> Iterator[DraftTree]:
    """The trees an SD run built, in order, rebuilt from its trace: tree k
    is drawn on the context before iteration k, from the feature at the end
    of the context that iteration k - 1's ``feature_source`` names.  Under
    the never policy only tree builds read the draft stream, so a fresh one
    draws them again."""
    target, draft = models
    config = trace.config
    rng = _Streams(config)["draft"]
    seq = trace.prompt + trace.tokens.tokens
    ends = [len(trace.prompt)]      # each context's length, the prompt's first
    source = FRESH                  # an underflow fallback is recorded as FRESH
    for it in trace.iterations:
        # ends[-1] is this tree's context, ends[-2 - s] the one s + 1 back.
        feature = target.feature_at(seq, ends[-2 - source] - 1)
        yield build_tree(draft, feature, seq[:ends[-1]], config.branching,
                         config.depth, config.budget, rng=rng)
        ends.append(ends[-1] + it.emitted)
        source = it.feature_source


def measure_path_similarity_distribution(config: EngineConfig, runs: int = 50) -> dict:
    """Per-iteration stride-1 path similarity across seeded SD runs, of the
    trees each run's records rebuild: a 20-bin histogram over [-1, 1] plus
    the fraction above 0.7.  A one-path tree counts as degenerate."""
    if runs < 1:
        raise RejectedInput("runs must be >= 1")
    if not 0.0 < config.alpha <= 1.0:
        raise RejectedInput("alpha must lie in (0, 1]")
    edges = np.linspace(-1.0, 1.0, 21)
    values = []
    degenerate = 0
    models = make_model_pair(config)     # a run never changes the parameters
    codebook = models[0].codebook
    for run in range(runs):
        trace = speculative_decode(replace(config, run=config.run + run), models=models)
        for tree in _sd_trees(trace, models):
            sim = path_similarity(enumerate_paths(tree), codebook, config.alpha, stride=1)
            if sim.degenerate:
                degenerate += 1
            else:
                values.append(sim.value)
    counts, _ = np.histogram(values, bins=edges)
    frac = float(np.mean([v > 0.7 for v in values])) if values else float("nan")
    return {"bin_edges": edges, "counts": counts, "degenerate": degenerate,
            "fraction_above_0.7": frac, "iterations": len(values)}


def measure_feature_similarity(config: EngineConfig, max_distance: int,
                               runs: int = 8) -> list[tuple[int, float]]:
    """Mean cosine between target features of token pairs at each positional
    distance 1..max_distance over seeded generations, each of which has
    window + max_new_tokens positions."""
    if runs < 1:
        raise RejectedInput("runs must be >= 1")
    longest = config.window + config.max_new_tokens - 1
    if not 1 <= max_distance <= longest:
        raise RejectedInput(f"max distance must lie in [1, {longest}], "
                            "within one generation's positions")
    sums = np.zeros(max_distance)
    counts = np.zeros(max_distance, dtype=int)
    target, _ = make_model_pair(config)  # a run never changes the parameters
    for run in range(runs):
        trace = vanilla_ar(replace(config, run=config.run + run), models=(target, None))
        seq = trace.prompt + trace.final_tokens()
        feats = np.array([target.feature_at(seq, i) for i in range(len(seq))])
        norms = np.linalg.norm(feats, axis=1)
        if not norms.all():
            raise DegenerateVector("cosine of a zero-norm vector is undefined")
        unit = feats / norms[:, None]
        # Diagonal k of the Gram matrix holds the cosines at distance k.
        gram = np.clip(unit @ unit.T, -1.0, 1.0)
        for dist in range(1, max_distance + 1):
            cosines = np.diagonal(gram, dist)
            sums[dist - 1] += cosines.sum()
            counts[dist - 1] += len(cosines)
    return [(d + 1, float(sums[d] / counts[d])) for d in range(max_distance)]


def sample_similarity_gaps(config: EngineConfig, trees: int = 1000) -> np.ndarray:
    """|stride-1 minus stride-2| path similarity of each random tree with
    two or more paths, the first tree of a one-token SD run; the
    measurement behind the frozen stride tolerance."""
    gaps = []
    models = make_model_pair(config)
    codebook = models[0].codebook
    for run in range(trees):
        cfg = replace(config, run=config.run + run, max_new_tokens=1)
        tree = next(_sd_trees(speculative_decode(cfg, models=models), models))
        paths = enumerate_paths(tree)
        s1 = path_similarity(paths, codebook, cfg.alpha, stride=1)
        s2 = path_similarity(paths, codebook, cfg.alpha, stride=2)
        if not s1.degenerate and not s2.degenerate:
            gaps.append(abs(s1.value - s2.value))
    return np.array(gaps)
