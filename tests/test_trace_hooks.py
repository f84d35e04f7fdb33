"""Every function the benchmark's tracer wraps must still exist where the
tracer looks it up, and the layers the benchmark reports must still be
called through those names, so a refactor of a hot path cannot silently
break ``bench/run.py --trace 1``."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import specskip.engine
from specskip.engine import EngineConfig, vanilla_ar, vvs_generate

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MODULES = sorted(p for p in (ROOT / "src" / "specskip").glob("*.py") if p.name != "__init__.py")
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


def test_traced_dynamic_runs_record_the_skip_layers():
    # The dynamic pipeline's decision, path scoring, enumeration, selection
    # and truncation each have a per-layer metric; path_similarity is
    # recorded only through its specskip.schedule binding.
    cfg = EngineConfig(policy="dynamic", threshold=0.5, max_new_tokens=64)
    plain = vvs_generate(cfg)
    tracer = tracing.Tracer()
    with tracer:
        traced = vvs_generate(cfg)
    spans = Counter(tracer.names[i] for i in tracer.name_ids)
    assert traced.skip_count > 0
    for name in ("schedule.decide", "schedule.path_similarity", "tree.enumerate_paths",
                 "select.select_path", "select.truncate_path"):
        assert spans[name] > 0, name
    assert traced.tokens.tokens == plain.tokens.tokens


def test_underflow_count_is_the_recorded_fallbacks():
    # cache.underflow counts the stale lookups that fell back to the fresh
    # feature: here the first s = 3 of 16 verifies.
    cfg = EngineConfig(seed=11, max_new_tokens=64, feature_schedule=(3,))
    tracer = tracing.Tracer()
    with tracer:
        trace = vvs_generate(cfg)
    fallbacks = sum(it.feature_source == -1 for it in trace.iterations)
    assert (fallbacks, trace.n_fwd) == (3, 16)
    assert tracer.counts["cache.underflow"] == fallbacks


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


def _unread_imports(path: Path) -> set[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unread_import_but_a_traced_name(path):
    # An import the module never reads is dead, unless the tracer wraps the
    # name there; once its WRAPPED row goes, this names the import to delete.
    module = f"specskip.{path.stem}"
    traced = {attr for owner, attr, _ in tracing.WRAPPED if owner == module}
    dead = _unread_imports(path) - traced
    assert not dead, f"{module} imports {sorted(dead)} and never reads them"
