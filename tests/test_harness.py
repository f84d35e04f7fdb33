"""Experiment harness: config/spec parsing, sweeps, analysis, CLI."""

import hashlib
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specskip import cli, engine, harness
from specskip.cli import main
from specskip.engine import FRESH, EngineConfig, speculative_decode
from specskip.errors import RejectedInput, SpecskipError
from specskip.harness import (ExperimentSpec, _tasks,
                              measure_feature_similarity,
                              measure_path_similarity_distribution,
                              parse_config_file, parse_kv_file,
                              parse_spec_file, run_experiment,
                              sample_similarity_gaps, summary_table)
from specskip.models import make_model_pair

SMALL = dict(max_new_tokens=16)
README = Path(__file__).resolve().parents[1] / "README.md"


def write_rows(path, rows):
    """The whole sweep CSV of `rows` in one write: the reference that the
    streamed output of ``run_experiment`` is checked against."""
    with harness.open_output(path) as fh:
        harness._csv_writer(fh).writerows(row.as_csv() for row in rows)


class TestParsing:
    def test_kv_file_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nvocab_size = 32\ndelta=0.1  # inline\n\n")
        assert parse_kv_file(path) == {"vocab_size": "32", "delta": "0.1"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vocab_size 32\n")
        with pytest.raises(RejectedInput, match="key = value"):
            parse_kv_file(path)

    def test_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vocab_size = 32\nepsilon = 0.5\n")
        cfg = parse_config_file(path)
        assert cfg.vocab_size == 32 and cfg.epsilon == 0.5

    def test_unknown_config_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(RejectedInput, match="warp_factor"):
            parse_config_file(path)

    def test_spec_file(self, tmp_path):
        path = tmp_path / "e.spec"
        path.write_text("name = demo\nrepetitions = 2\nmax_new_tokens = 16\n"
                        "sweep.delta = 0.1, 0.2\nsweep.interval = 2,3\n")
        spec = parse_spec_file(path)
        assert spec.name == "demo" and spec.repetitions == 2
        assert spec.axes == {"delta": [0.1, 0.2], "interval": [2, 3]}
        assert spec.base.max_new_tokens == 16

    def test_unknown_sweep_param_rejected(self):
        with pytest.raises(RejectedInput, match="hyperdrive"):
            ExperimentSpec(name="x", base=EngineConfig(),
                           axes={"hyperdrive": [1]})

    def test_seed_axis_rejected(self):
        with pytest.raises(RejectedInput, match="seed"):
            ExperimentSpec(name="x", base=EngineConfig(), axes={"seed": [1, 2]})

    def test_tuple_axis_values(self, tmp_path):
        path = tmp_path / "e.spec"
        path.write_text("max_new_tokens = 12\n"
                        "sweep.feature_schedule = -1, 0, 3, -1 0, 0 0\n")
        spec = parse_spec_file(path)
        schedules = [(-1,), (0,), (3,), (-1, 0), (0, 0)]
        assert spec.axes == {"feature_schedule": schedules}
        rows = run_experiment(spec)
        assert [r.cell for r in rows] == [
            "feature_schedule=-1", "feature_schedule=0", "feature_schedule=3",
            "feature_schedule=-1 0", "feature_schedule=0 0"]
        assert [cfg.feature_schedule for _, _, cfg, _ in _tasks(spec)] == schedules

    def test_tuple_config_value_takes_commas(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("feature_schedule = -1,0\n")
        assert parse_config_file(path).feature_schedule == (-1, 0)

    def test_readme_spec_blocks_parse(self, tmp_path):
        section = README.read_text().split("### Experiment spec files", 1)[1]
        section = section.split("\n## ", 1)[0]
        blocks = re.findall(r"```\n(.*?)```", section, re.S)
        assert len(blocks) >= 6
        for i, block in enumerate(blocks):
            path = tmp_path / f"{i}.spec"
            path.write_text(block)
            assert _tasks(parse_spec_file(path))


_FIELDS = [f.name for f in fields(EngineConfig)]
# No surrogates (they cannot be written to a file) and no line breaks (a
# value is one line).
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\r\n"), max_size=10)
_VALUES = st.one_of(
    _TEXT,
    st.sampled_from(["nan", "-inf", "inf", "1e400", "", "-1", "0", "1", "2",
                     "0.5", "true", "maybe", "-1 0", "-2", "3,4", "strict",
                     "uniform", "dynamic", "max_confidence"]),
    st.integers(-3, 300).map(str),
    st.floats().map(repr))
# Text with no decimal digit never parses as a count, so no spec builds
# more than a handful of cells.
_REPETITIONS = st.one_of(
    st.integers(-2, 3).map(str),
    st.text(st.characters(blacklist_categories=("Cs", "Nd"),
                          blacklist_characters="\r\n"), max_size=6))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.dictionaries(st.sampled_from(_FIELDS), _VALUES, max_size=4))
def test_config_text_parses_or_rejects(tmp_path, values):
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    try:
        parse_config_file(path)
    except SpecskipError:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(axes=st.dictionaries(st.sampled_from(_FIELDS), _VALUES, max_size=3),
       repetitions=_REPETITIONS)
def test_spec_text_parses_or_rejects(tmp_path, axes, repetitions):
    path = tmp_path / "e.spec"
    path.write_text(f"repetitions = {repetitions}\n" + "".join(
        f"sweep.{k} = {v}\n" for k, v in axes.items()))
    try:
        _tasks(parse_spec_file(path))
    except SpecskipError:
        pass


class TestRunExperiment:
    def test_rows_cover_grid(self):
        spec = ExperimentSpec(name="grid", base=EngineConfig(**SMALL),
                              axes={"interval": [2, 3], "policy": ["uniform"]},
                              repetitions=2)
        rows = run_experiment(spec)
        assert len(rows) == 4
        assert {r.cell for r in rows} == {"interval=2;policy=uniform",
                                          "interval=3;policy=uniform"}

    def test_rerun_byte_identical(self, tmp_path):
        # A rerun writes the same bytes, serially or from two workers.
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, jobs in ((out1, 1), (out2, 2)):
            spec = ExperimentSpec(name="rep", base=EngineConfig(**SMALL),
                                  axes={"delta": [0.0, 0.2]}, repetitions=2,
                                  output=str(out))
            run_experiment(spec, jobs=jobs)
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_csv_golden(self, tmp_path):
        # Pins the sweep bytes for a fixed spec: a change that moves rng
        # consumption, tokens or the schema must re-record this digest.
        out = tmp_path / "golden.csv"
        spec = ExperimentSpec(name="golden", base=EngineConfig(max_new_tokens=24),
                              axes={"policy": ["never", "uniform"]}, repetitions=2,
                              output=str(out))
        run_experiment(spec)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "9231103fe26b88c6e832452959b24b84caf8551d8ff727b8fd8d596b57b746d8"

    def test_unwritable_output_fails_before_any_cell(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_run_cell", calls.append)
        spec = ExperimentSpec(name="nodir", base=EngineConfig(**SMALL),
                              axes={"interval": [2, 3]},
                              output=str(tmp_path / "missing" / "x.csv"))
        with pytest.raises(RejectedInput, match="cannot write"):
            run_experiment(spec)
        assert calls == []

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of each pool run_experiment makes, through an
        executor stand-in that maps serially and starts no process."""
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        return made

    @pytest.mark.parametrize("jobs, workers", [(8, 2), (2, 2), (3, 2)])
    def test_jobs_capped_at_task_count(self, monkeypatch, pools, jobs, workers):
        """The pool forks all its workers at the first submit, so it gets
        no more workers than there are tasks, on a host of any size."""
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        spec = ExperimentSpec(name="cap", base=EngineConfig(max_new_tokens=4),
                              axes={"interval": [2, 3]}, repetitions=1)
        rows = run_experiment(spec, jobs=jobs)
        assert pools == [workers]
        assert [row.as_csv() for row in rows] == \
            [row.as_csv() for row in run_experiment(spec, jobs=1)]

    @pytest.mark.parametrize("jobs, cpus, workers", [(8, 2, 2), (8, 1, 1), (3, 8, 3)])
    def test_jobs_capped_at_usable_cpus(self, monkeypatch, pools, jobs, cpus, workers):
        """Nor more workers than the CPUs the process may use: 4 tasks."""
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        spec = ExperimentSpec(name="cpus", base=EngineConfig(max_new_tokens=4),
                              axes={"interval": [2, 3, 4, 5]}, repetitions=1)
        assert len(run_experiment(spec, jobs=jobs)) == 4
        assert pools == [workers]

    def test_usable_cpus_from_affinity_else_cpu_count(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
        assert harness._usable_cpus() == 2
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness._usable_cpus() == 6
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_one_model_pair_per_cell(self, monkeypatch):
        """A cell builds its model pair once and hands it to the generation
        and to its metrics, which build none of their own."""
        seeds, real = [], harness.make_model_pair

        def spy(config):
            seeds.append(config.seed)
            return real(config)

        monkeypatch.setattr(harness, "make_model_pair", spy)
        monkeypatch.setattr(engine, "make_model_pair", spy)
        spec = ExperimentSpec(name="pairs", base=EngineConfig(**SMALL),
                              axes={"policy": ["never", "uniform"]}, repetitions=2)
        rows = run_experiment(spec)
        assert len(rows) == 4 and seeds == [row.seed for row in rows]

    def test_rows_stream_in_cell_order(self, tmp_path, monkeypatch):
        """When a cell runs, the output already holds the header and one
        line per earlier cell; the file ends as write_rows writes the
        returned rows."""
        out, seen = tmp_path / "stream.csv", []
        run_cell = harness._run_cell

        def spy(task):
            seen.append(len(out.read_text().splitlines()))
            return run_cell(task)

        monkeypatch.setattr(harness, "_run_cell", spy)
        spec = ExperimentSpec(name="stream", base=EngineConfig(**SMALL),
                              axes={"interval": [2, 3]}, repetitions=2,
                              output=str(out))
        rows = run_experiment(spec)
        assert seen == [1, 2, 3, 4]
        write_rows(tmp_path / "whole.csv", rows)
        assert out.read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_summary_table_mentions_cells(self):
        spec = ExperimentSpec(name="sum", base=EngineConfig(**SMALL),
                              axes={"interval": [2]}, repetitions=1)
        rows = run_experiment(spec)
        table = summary_table(rows)
        assert "interval=2" in table and "tpf" in table


class TestAnalysisOps:
    def test_path_similarity_distribution(self):
        out = measure_path_similarity_distribution(
            EngineConfig(**SMALL), runs=4)
        assert out["counts"].sum() == out["iterations"]
        assert len(out["bin_edges"]) == 21
        assert 0.0 <= out["fraction_above_0.7"] <= 1.0

    def test_path_similarity_counts_one_path_trees_as_degenerate(self):
        # A point-mass drafter draws one child per node, so every tree is a
        # single path; none may land in the histogram at the 1.0 sentinel.
        cfg = EngineConfig(logit_scale=1e6, noise_scale=1e6, epsilon=0.0, **SMALL)
        out = measure_path_similarity_distribution(cfg, runs=5)
        assert out["degenerate"] == 15 and out["iterations"] == 0

    @pytest.mark.parametrize("kwargs, digest", [
        ({}, "b6ad26a15e28f36b18a36b057b6a5a9418d60867108a89664801a5a7cfac2add"),
        (dict(feature_schedule=(-1, 0, 1)),
         "1f010e9c82d80aa6f0c4214978f65df9dded31a9fcc0868c8f01310920e92785"),
        # The stale lookup underflows and falls back to the fresh feature on
        # each run's first two verifies, 24 times in the 12 runs.
        (dict(window=1, feature_schedule=(2, 0)),
         "1104c22f35079378b8abc24dfcd2cb770c52999e42af6304e0708e56fec6f6e1"),
        # A point-mass drafter: all but 2 of the 264 trees have one path.
        (dict(logit_scale=1e6, noise_scale=1e6, epsilon=0.0),
         "ddc42462836efa52055bae0d2088294e8db5ee27ba7b0a1a289dc1525949e54b")],
        ids=["default", "stale", "underflow", "one-path"])
    def test_path_similarity_distribution_golden(self, kwargs, digest):
        # Pins every value of the analysis: the trees it scores, in order,
        # and how each is counted.
        out = measure_path_similarity_distribution(EngineConfig(**kwargs), runs=12)
        key = repr((out["bin_edges"].tolist(), out["counts"].tolist(), out["degenerate"],
                    out["fraction_above_0.7"], out["iterations"]))
        assert hashlib.sha256(key.encode()).hexdigest() == digest

    def test_similarity_gaps_golden(self):
        gaps = sample_similarity_gaps(EngineConfig(), trees=300)
        assert len(gaps) == 300
        assert hashlib.sha256(gaps.tobytes()).hexdigest() == (
            "e231d33ec751ea16b585ade9f15f01eb165dec4c01a8646179a579d70af0ee4e")

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_path_similarity_rejects_alpha_before_any_run(self, monkeypatch, alpha):
        monkeypatch.setattr(harness, "speculative_decode", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(RejectedInput, match=re.escape("alpha must lie in (0, 1]")):
            measure_path_similarity_distribution(EngineConfig(alpha=alpha), runs=1)

    @pytest.mark.parametrize("kwargs", [
        dict(feature_schedule=(-1, 0, 1)), dict(window=1, feature_schedule=(2, 0))],
        ids=["stale", "underflow"])
    def test_rebuilt_trees_are_the_engines(self, monkeypatch, kwargs):
        """The trees rebuilt from an SD run's trace are those the run built,
        bit for bit, through stale lookups and their underflow fallbacks."""
        built, real = [], engine.build_tree
        monkeypatch.setattr(engine, "build_tree",
                            lambda *a, **k: built.append(real(*a, **k)) or built[-1])
        cfg = EngineConfig(max_new_tokens=48, **kwargs)
        models = make_model_pair(cfg)
        trace = speculative_decode(cfg, models=models)
        monkeypatch.undo()
        sources = [it.feature_source for it in trace.iterations]
        assert FRESH in sources and set(sources) - {FRESH}
        rebuilt = list(harness._sd_trees(trace, models))
        assert len(rebuilt) == len(built) == len(trace.iterations)
        for ours, theirs in zip(rebuilt, built):
            assert ours.shape is theirs.shape
            for a, b in [(ours.tokens, theirs.tokens), (ours.probs, theirs.probs),
                         (ours.root_dist, theirs.root_dist),
                         *zip(ours.dists, theirs.dists)]:
                assert (a is None) == (b is None)
                assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes())

    def test_feature_similarity_decays(self):
        table = measure_feature_similarity(EngineConfig(max_new_tokens=24),
                                           max_distance=8, runs=4)
        assert table[0][0] == 1 and table[-1][0] == 8
        assert table[0][1] > table[-1][1]

    def test_feature_similarity_rejects_runs_below_one(self):
        with pytest.raises(RejectedInput, match="runs"):
            measure_feature_similarity(EngineConfig(**SMALL), max_distance=2, runs=0)

    def test_staleness_sweep_rows(self):
        spec = ExperimentSpec(name="staleness",
                              base=EngineConfig(max_new_tokens=32),
                              axes={"feature_schedule": [(FRESH,), (0,)]},
                              repetitions=3)
        rows = run_experiment(spec)
        assert len(rows) == 6
        assert {r.cell for r in rows} == {"feature_schedule=-1",
                                          "feature_schedule=0"}
        assert {r.pipeline for r in rows} == {"sd"}

    def test_blending_sweep_rows(self):
        spec = ExperimentSpec(name="blending",
                              base=EngineConfig(max_new_tokens=24),
                              axes={"feature_schedule": [(FRESH, 0)]},
                              repetitions=2)
        rows = run_experiment(spec)
        assert len(rows) == 2 and rows[0].cell == "feature_schedule=-1 0"

    def test_pareto_row_count(self):
        deltas, intervals, thresholds, reps = [0.0, 0.1], [2, 3], [0.7], 2
        fixed = [0.1, 0.2]
        specs = [
            ExperimentSpec(name="pareto", base=EngineConfig(**SMALL),
                           axes={"delta": deltas}, repetitions=reps),
            ExperimentSpec(name="pareto",
                           base=EngineConfig(policy="uniform", **SMALL),
                           axes={"delta": fixed, "interval": intervals},
                           repetitions=reps),
            ExperimentSpec(name="pareto",
                           base=EngineConfig(policy="dynamic", **SMALL),
                           axes={"delta": fixed, "threshold": thresholds},
                           repetitions=reps)]
        rows = [row for spec in specs for row in run_experiment(spec)]
        expect = reps * (len(deltas) + 2 * len(intervals) + 2 * len(thresholds))
        assert len(rows) == expect
        assert any(r.pipeline == "sd" for r in rows)
        assert any(r.pipeline == "vvs" for r in rows)

    def test_write_rows_schema(self, tmp_path):
        spec = ExperimentSpec(name="staleness", base=EngineConfig(**SMALL),
                              axes={"feature_schedule": [(FRESH,)]})
        rows = run_experiment(spec)
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        header, first = path.read_text().splitlines()[:2]
        assert header == ("name,cell,rep,seed,pipeline,n_tok,n_fwd,tpf,mal,"
                          "skip_fraction,quality_proxy,extra")
        assert first.endswith(",")


class TestCli:
    def test_generate(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 12\n")
        trace_out = tmp_path / "trace.csv"
        code = main(["generate", "--config", str(cfg),
                     "--output", str(trace_out)])
        assert code == 0
        assert "tpf=" in capsys.readouterr().out
        assert trace_out.read_text().startswith("index,kind")

    @pytest.mark.parametrize("vanilla", [[], ["--vanilla"]], ids=["vvs", "vanilla"])
    def test_generate_unwritable_output_fails_before_generating(self, capsys, tmp_path,
                                                                monkeypatch, vanilla):
        calls = []
        monkeypatch.setattr(cli, "vvs_generate", calls.append)
        monkeypatch.setattr(cli, "vanilla_ar", calls.append)
        out = tmp_path / "no" / "such" / "dir.csv"
        assert main(["generate", "--output", str(out), *vanilla]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")

    @pytest.mark.parametrize("vanilla", [[], ["--vanilla"]], ids=["vvs", "vanilla"])
    def test_generate_builds_one_model_pair(self, capsys, monkeypatch, vanilla):
        seeds, real = [], cli.make_model_pair

        def spy(config):
            seeds.append(config.seed)
            return real(config)

        monkeypatch.setattr(cli, "make_model_pair", spy)
        monkeypatch.setattr(engine, "make_model_pair", spy)
        assert main(["generate", "--seed", "3", *vanilla]) == 0
        assert "tpf=" in capsys.readouterr().out
        assert seeds == [3]

    def test_generate_budget_above_the_full_tree(self, capsys, tmp_path):
        # Budgets at and far above the default full tree (1364 nodes) run
        # the same generation.
        outputs = []
        for budget in (1364, 10 ** 12):
            cfg = tmp_path / f"{budget}.cfg"
            cfg.write_text(f"max_new_tokens = 12\nbudget = {budget}\n")
            trace_out = tmp_path / f"{budget}.csv"
            assert main(["generate", "--config", str(cfg), "--output", str(trace_out)]) == 0
            outputs.append((capsys.readouterr().out, trace_out.read_text()))
        assert outputs[0] == outputs[1]

    def test_generate_tree_above_the_node_limit(self, capsys, tmp_path, monkeypatch):
        # 2 + 4 + ... + 2**40 nodes do not fit the budget, so it is not
        # clamped, and no tree that large can be built: the config is
        # rejected as it is built, before anything runs.
        calls = []
        monkeypatch.setattr(cli, "vvs_generate", calls.append)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("branching = 2\ndepth = 40\nbudget = 1000000000000\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert "node limit" in err[0]

    def test_generate_vanilla(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 8\n")
        assert main(["generate", "--config", str(cfg), "--vanilla"]) == 0
        assert "tpf=1.0000" in capsys.readouterr().out

    def test_generate_vanilla_ignores_policy(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 8\npolicy = dynamic\n")
        assert main(["generate", "--config", str(cfg), "--vanilla"]) == 0
        assert "tpf=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    def test_generate_long_skips_need_one_cached_feature(self, capsys, tmp_path, seed):
        # With window = 1 the prompt caches one feature, and an untruncated
        # skip emits up to depth = 8 tokens.  The drafter needs only the
        # latest feature, so the skip must not ask the cache for more.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window = 1\ndepth = 8\nbudget = 32\nepsilon = 1.0\n"
                       "policy = uniform\ninterval = 2\ntruncate = false\n")
        assert main(["generate", "--config", str(cfg), "--seed", str(seed)]) == 0
        out, err = capsys.readouterr()
        assert "error:" not in out + err
        assert float(out.split("skip_fraction=")[1].split()[0]) > 0.0

    def test_sweep(self, capsys, tmp_path):
        spec = tmp_path / "e.spec"
        spec.write_text("name = cli\nmax_new_tokens = 12\nsweep.interval = 2\n"
                        "policy = uniform\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", str(spec), "--output", str(out)]) == 0
        assert out.exists()
        assert "cli" in capsys.readouterr().out

    def test_sweep_output_precedence(self, tmp_path, monkeypatch):
        # --output, else the spec's output, else results.csv in the working
        # directory; the same rows whichever path they go to.
        monkeypatch.chdir(tmp_path)
        body = "name = cli\nmax_new_tokens = 12\n"
        Path("plain.spec").write_text(body)
        Path("named.spec").write_text(body + "output = named.csv\n")
        assert main(["sweep", "plain.spec"]) == 0
        assert main(["sweep", "named.spec"]) == 0
        assert main(["sweep", "named.spec", "--output", "flag.csv"]) == 0
        texts = [Path(name).read_text()
                 for name in ("results.csv", "named.csv", "flag.csv")]
        assert texts[0] == texts[1] == texts[2] and texts[0].count("\n") == 2

    def test_analyze_feature_similarity(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 12\n")
        assert main(["analyze", "feature-similarity", "--config", str(cfg),
                     "--max-distance", "3"]) == 0
        assert "distance=1" in capsys.readouterr().out

    def test_feature_similarity_takes_runs(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 12\n")
        assert main(["analyze", "feature-similarity", "--config", str(cfg),
                     "--max-distance", "3", "--runs", "2"]) == 0
        expect = measure_feature_similarity(EngineConfig(max_new_tokens=12), 3, runs=2)
        assert capsys.readouterr().out.splitlines() == \
            [f"distance={d} mean_cosine={sim:.4f}" for d, sim in expect]

    def test_feature_similarity_reaches_the_longest_distance(self, capsys, tmp_path):
        # max_new_tokens = 4 after a 4-token prompt: 8 positions, so 7 is
        # the longest distance with a pair and 8 has none.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 4\n")
        assert main(["analyze", "feature-similarity", "--config", str(cfg),
                     "--max-distance", "7"]) == 0
        out = capsys.readouterr().out
        assert "distance=7" in out and "nan" not in out
        for distance in ("8", "10"):
            assert main(["analyze", "feature-similarity", "--config", str(cfg),
                         "--max-distance", distance]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: RejectedInput")
            assert "max distance" in err[0]

    @pytest.mark.parametrize("args, name", [
        (["analyze", "path-similarity", "--runs", "0"], "runs"),
        (["analyze", "path-similarity", "--runs", "-3"], "runs"),
        (["sweep", "SPEC", "--jobs", "0"], "jobs"),
        (["sweep", "SPEC", "--jobs", "-2"], "jobs"),
        (["analyze", "feature-similarity", "--runs", "0"], "runs")])
    def test_count_below_one_is_one_error_line(self, capsys, tmp_path, args, name):
        spec = tmp_path / "e.spec"
        spec.write_text(f"name = cli\nmax_new_tokens = 8\noutput = {tmp_path / 'r.csv'}\n")
        assert main([str(spec) if a == "SPEC" else a for a in args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "r.csv").exists()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert name in err[0]

    def test_path_similarity_alpha_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1.5\n")
        assert main(["analyze", "path-similarity", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: RejectedInput: alpha must lie in (0, 1]"]

    def test_stride_is_no_config_key(self, capsys, tmp_path):
        """The dynamic rule's stride is a constant of the scheduler."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("policy = dynamic\nstride = 2\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == \
            ["error: RejectedInput: unknown config key 'stride'"]

    def test_error_exit_code_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("no_such_knob = 1\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: RejectedInput")

    def test_pool_larger_than_vocabulary_is_one_error_line(self, capsys, tmp_path):
        # The default relaxed pool_k = 8 exceeds the smallest allowed vocabulary.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("vocab_size = 4\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert "pool_k" in err[0]
        cfg.write_text("vocab_size = 4\naccept_mode = strict\nmax_new_tokens = 4\n")
        assert main(["generate", "--config", str(cfg)]) == 0

    def test_bad_number_in_config_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = abc\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert "max_new_tokens" in err[0]

    @pytest.mark.parametrize("axis, name", [("sweep.truncate = maybe", "truncate"),
                                            ("sweep.interval = 2, x", "interval"),
                                            ("sweep.seed = 1, 2", "seed"),
                                            ("sweep.feature_schedule = x",
                                             "feature_schedule"),
                                            ("sweep.hyperdrive = 1", "hyperdrive")])
    def test_bad_sweep_axis_is_one_error_line(self, capsys, tmp_path, axis, name):
        spec = tmp_path / "e.spec"
        spec.write_text(f"name = cli\nmax_new_tokens = 12\n{axis}\n")
        assert main(["sweep", str(spec), "--output", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert name in err[0]

    def test_seed_override_changes_output(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 12\n")
        main(["generate", "--config", str(cfg), "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["generate", "--config", str(cfg), "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1 != out2

    def test_bad_repetitions_is_one_error_line(self, capsys, tmp_path):
        spec = tmp_path / "e.spec"
        spec.write_text("name = cli\nrepetitions = abc\n")
        assert main(["sweep", str(spec), "--output", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert "repetitions" in err[0]

    @pytest.mark.parametrize("line, name", [("logit_scale = nan", "logit_scale"),
                                            ("noise_scale = inf", "noise_scale")])
    def test_non_finite_float_is_one_error_line(self, capsys, tmp_path, line, name):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"max_new_tokens = 12\n{line}\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert name in err[0]

    @pytest.mark.parametrize("vanilla", [[], ["--vanilla"]])
    @pytest.mark.parametrize("lines, name", [
        ("noise_scale = 1e308", "noise_scale"),
        ("logit_scale = 1e10\ntemperature = 1e-300", "logit_scale"),
        ("concentration = 1e200", "concentration")])
    def test_overflowing_scale_is_one_error_line(self, capsys, tmp_path, lines, name, vanilla):
        """Finite settings whose logits or codebook norms overflow float64
        are rejected before anything runs, under either pipeline: the
        noise head's when the models are built, the others when the config
        is."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"max_new_tokens = 12\n{lines}\n")
        assert main(["generate", "--config", str(cfg), *vanilla]) == 2
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert name in err[0] and "overflows float64" in err[0]

    def test_overflowing_sweep_cell_fails_before_any_cell(self, capsys, tmp_path):
        """An overflow reads only settings, so the cell's config rejects it
        before the first cell runs and writes its row."""
        spec = tmp_path / "e.spec"
        spec.write_text("name = cli\nmax_new_tokens = 8\nsweep.concentration = 1.0, 1e200\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", str(spec), "--output", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.splitlines() == \
            ["error: RejectedInput: concentration=1e+200 overflows float64 codebook norms"]
        assert not out.exists() or out.read_text().count("\n") <= 1

    @pytest.mark.parametrize("args, name", [
        (["generate", "--config", "MISSING"], "MISSING"),
        (["generate", "--config", "LATIN1"], "LATIN1"),
        (["sweep", "MISSING"], "MISSING"),
        (["generate", "--config", "CFG", "--output", "NODIR"], "NODIR"),
        (["sweep", "SPEC", "--output", "NODIR"], "NODIR")])
    def test_file_errors_are_one_error_line(self, capsys, tmp_path, args, name):
        """An unreadable config or spec, a config that is not UTF-8 and an
        output path in a missing directory each end in one error line
        naming the path, not a traceback."""
        paths = {"MISSING": tmp_path / "missing.cfg", "LATIN1": tmp_path / "latin1.cfg",
                 "CFG": tmp_path / "c.cfg", "SPEC": tmp_path / "e.spec",
                 "NODIR": tmp_path / "no" / "such" / "dir.csv"}
        paths["LATIN1"].write_bytes("max_new_tokens = 8 # caf\xe9\n".encode("latin-1"))
        paths["CFG"].write_text("max_new_tokens = 8\n")
        paths["SPEC"].write_text("name = cli\nmax_new_tokens = 8\n")
        assert main([str(paths[a]) if a in paths else a for a in args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert str(paths[name]) in err[0]
