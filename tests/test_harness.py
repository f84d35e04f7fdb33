"""Experiment harness: config/spec parsing, sweeps, analysis, CLI."""

import numpy as np
import pytest

from specskip.cli import main
from specskip.engine import FRESH, EngineConfig
from specskip.errors import RejectedInput
from specskip.harness import (ExperimentSpec, blending_sweep,
                              measure_feature_similarity,
                              measure_path_similarity_distribution,
                              parse_config_file, parse_kv_file,
                              parse_spec_file, pareto_sweep, run_experiment,
                              staleness_sweep, summary_table, write_rows)

SMALL = dict(max_new_tokens=16)


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
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            spec = ExperimentSpec(name="rep", base=EngineConfig(**SMALL),
                                  axes={"delta": [0.0, 0.2]}, repetitions=2,
                                  output=str(out))
            run_experiment(spec)
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_feature_similarity_decays(self):
        table = measure_feature_similarity(EngineConfig(max_new_tokens=24),
                                           max_distance=8, runs=4)
        assert table[0][0] == 1 and table[-1][0] == 8
        assert table[0][1] > table[-1][1]

    def test_staleness_sweep_reports_ratio(self):
        rows = staleness_sweep(EngineConfig(max_new_tokens=32),
                               offsets=[FRESH, 0], reps=3)
        assert len(rows) == 6
        fresh = [r for r in rows if r.cell == "s=-1"]
        assert all("mal_ratio_vs_fresh=1" in r.extra for r in fresh)

    def test_blending_sweep_rows(self):
        rows = blending_sweep(EngineConfig(max_new_tokens=24),
                              pairs=[(FRESH, 0)], reps=2)
        assert len(rows) == 2 and rows[0].cell == "s1=-1;s2=0"

    def test_pareto_row_count(self):
        deltas, intervals, thresholds, reps = [0.0, 0.1], [2, 3], [0.7], 2
        rows = pareto_sweep(EngineConfig(**SMALL), deltas, intervals,
                            thresholds, reps=reps)
        expect = reps * (len(deltas) + 2 * len(intervals) + 2 * len(thresholds))
        assert len(rows) == expect
        assert any(r.pipeline == "sd" for r in rows)
        assert any(r.pipeline == "vvs" for r in rows)

    def test_write_rows_schema(self, tmp_path):
        rows = staleness_sweep(EngineConfig(**SMALL), offsets=[FRESH], reps=1)
        path = tmp_path / "rows.csv"
        write_rows(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == ("name,cell,rep,seed,pipeline,n_tok,n_fwd,tpf,mal,"
                          "skip_fraction,quality_proxy,extra")


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

    def test_generate_vanilla(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 8\n")
        assert main(["generate", "--config", str(cfg), "--vanilla"]) == 0
        assert "tpf=1.0000" in capsys.readouterr().out

    def test_sweep(self, capsys, tmp_path):
        spec = tmp_path / "e.spec"
        spec.write_text("name = cli\nmax_new_tokens = 12\nsweep.interval = 2\n"
                        "policy = uniform\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", str(spec), "--output", str(out)]) == 0
        assert out.exists()
        assert "cli" in capsys.readouterr().out

    def test_analyze_feature_similarity(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = 12\n")
        assert main(["analyze", "feature-similarity", "--config", str(cfg),
                     "--max-distance", "3"]) == 0
        assert "distance=1" in capsys.readouterr().out

    def test_error_exit_code_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("no_such_knob = 1\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: RejectedInput")

    def test_bad_number_in_config_is_one_error_line(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_new_tokens = abc\n")
        assert main(["generate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: RejectedInput")
        assert "max_new_tokens" in err[0]

    @pytest.mark.parametrize("axis, name", [("sweep.truncate = maybe", "truncate"),
                                            ("sweep.interval = 2, x", "interval"),
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
