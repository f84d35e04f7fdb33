"""Every function the benchmark's tracer wraps must still exist where the
tracer looks it up, so a refactor of a hot path cannot silently break
``bench/run.py --trace 1``."""

import sys
from pathlib import Path

import pytest

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
