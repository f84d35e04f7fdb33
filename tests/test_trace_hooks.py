"""Every function the benchmark's tracer wraps must still exist where the
tracer looks it up, and the layers the benchmark reports must still be
called through those names, so a refactor of a hot path cannot silently
break ``bench/run.py --trace 1``."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import specskip.engine
from specskip.engine import EngineConfig, vanilla_ar, vvs_generate

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


@pytest.mark.parametrize("path, attr, name", tracing.WRAPPED,
                         ids=[f"{p}.{a}" for p, a, _ in tracing.WRAPPED])
def test_wrapped_attribute_resolves(path, attr, name):
    # The tracer reads vars(owner)[attr]: the name must be bound on the
    # module or class itself, not merely reachable by attribute lookup.
    owner = tracing._owner(path)
    assert callable(vars(owner).get(attr)), f"{path} no longer binds {attr} ({name})"


def test_traced_runs_record_every_layer():
    # A name that stays bound but is no longer called would make its
    # per-layer metric read 0 without failing the check above.
    cfg = EngineConfig(policy="uniform", interval=2, feature_schedule=(-1, 0),
                       max_new_tokens=32)
    plain = [vvs_generate(cfg).tokens.tokens, vanilla_ar(cfg).tokens.tokens]
    tracer = tracing.Tracer()
    with tracer:
        traced = [vvs_generate(cfg).tokens.tokens, vanilla_ar(cfg).tokens.tokens]
    spans = Counter(tracer.names[i] for i in tracer.name_ids)
    for name in ("cache.retrieve", "cache.update", "tree.build_tree",
                 "models.draft_next_dist", "models.target_forward"):
        assert spans[name] > 0, name
    assert traced == plain


def test_positions_count_scored_tokens(monkeypatch):
    # The tracer reads the masked forward's third positional argument as
    # the tree tokens one verify pass scores (skip-accepted tokens are
    # context, not positions); a signature change would corrupt
    # models.target_forward_masked.positions without failing anything else.
    lengths = []
    linearize = specskip.engine.linearize

    def recording(tree):
        linear = linearize(tree)
        lengths.append(len(linear.tokens))
        return linear

    monkeypatch.setattr(specskip.engine, "linearize", recording)
    cfg = EngineConfig(policy="uniform", interval=2, max_new_tokens=32)
    tracer = tracing.Tracer()
    with tracer:
        trace = vvs_generate(cfg)
    assert len(lengths) == trace.n_fwd > 0
    assert trace.skip_count > 0
    assert tracer.counts["models.positions"] == sum(lengths)
