"""Tests of the benchmark itself: metric names, tracer hygiene, the
traced/untraced agreement and the oracle's power.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OracleCheck, check_trace, run_config  # noqa: E402

from specskip import engine, verify  # noqa: E402
from specskip.core import sample_index  # noqa: E402
from specskip.models import make_model_pair  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
    units = [u for _, u, _ in run.END_TO_END + run.PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in units)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(w) for w in WORKLOADS)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_wrappers_are_removed_after_the_traced_run():
    def lookup():
        return {(p, a): vars(tracing._owner(p))[a] for p, a, _ in tracing.WRAPPED}

    before = lookup()
    workload = WORKLOADS["vvs-v1024-stale"]
    models = make_model_pair(workload.config)
    tracer = tracing.Tracer()
    with tracer:
        assert all(lookup()[key] is not fn for key, fn in before.items())
        tracer.request(0, workload.request, run_config(workload, 0), models)
    assert lookup() == before
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("inside a traced block")
    assert all(lookup()[key] is fn for key, fn in before.items())


def test_traced_tokens_match_untraced_and_self_times_add_up():
    workload = replace(WORKLOADS["vvs-dynamic"], block=2,
                       config=replace(WORKLOADS["vvs-dynamic"].config, max_new_tokens=24))
    models = make_model_pair(workload.config)
    bench_run = run.Run(workload, models, seed=3)
    tracer = tracing.Tracer()
    counts = run.run_traced(bench_run, 0.0, tracer)
    metrics, closure_ns = run.per_layer(bench_run, tracer, counts, 1.0)
    assert bench_run.failed == 0 and bench_run.attempted == 4
    assert closure_ns == 0
    assert metrics["schedule.path_similarity.calls"] > 0
    assert metrics["tree.nodes_per_tree"] <= workload.config.budget
    assert set(metrics) == {n for n, _, _ in run.PER_LAYER}


def test_check_trace_catches_a_tampered_record():
    workload = WORKLOADS["vvs-v1024-stale"]
    models = make_model_pair(workload.config)
    (trace,), _ = workload.request(run_config(workload, 5), models)
    assert check_trace(trace) == []
    trace.iterations[2].kind = "skip"
    assert "two consecutive skips" in check_trace(trace)


def _oracle(n):
    workload = WORKLOADS["sd-tiny-pairs"]
    models = make_model_pair(workload.config)
    oracle = OracleCheck(models[0], workload.config.max_new_tokens)
    for run_index in workload.runs(seed=2)[:n]:
        (ar, sd), _ = workload.request(run_config(workload, run_index), models)
        oracle.add(sd.prompt, ar.final_tokens(), sd.final_tokens())
    return oracle


def test_oracle_passes_the_lossless_sampler():
    assert _oracle(2000).passed()


def test_biased_sampler_stub_fails_the_oracle(monkeypatch):
    def biased(dist, rng):
        # One draw in ten returns the least likely token with any mass.
        if rng.random() < 0.1:
            return int(np.argmin(np.where(dist > 0, dist, np.inf)))
        return sample_index(dist, rng)

    monkeypatch.setattr(verify, "sample_index", biased)
    oracle = _oracle(2000)
    assert not oracle.passed()
    assert engine.sample_index is sample_index   # AR, the noise floor, is untouched
