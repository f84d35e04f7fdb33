"""Spans around the public functions of specskip's layers, installed from
outside the package.

Each function is replaced where its caller looks it up (the engine imports
by name, so ``specskip.engine.build_tree`` is the one to wrap, not
``specskip.tree.build_tree``).  A span records its name, start, end, parent
span and request id; spans stay in memory until ``write``.  A span's self
time is its duration minus its direct children's durations, so the self
times of one request add up to the request's duration exactly.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from specskip.errors import CacheUnderflow

REQUEST = "engine.request"

# (module or module:Class, attribute, span name)
WRAPPED = [
    ("specskip.engine", "rng_stream", "core.rng_stream"),
    ("specskip.engine", "sample_index", "core.sample_index"),
    ("specskip.tree", "sample_index", "core.sample_index"),
    ("specskip.verify", "sample_index", "core.sample_index"),
    ("specskip.schedule", "cosine", "core.cosine"),
    ("specskip.verify", "nearest_neighbors", "core.nearest_neighbors"),
    ("specskip.models:DraftModel", "next_dist", "models.draft_next_dist"),
    ("specskip.verify", "target_forward_masked", "models.target_forward_masked"),
    ("specskip.engine", "target_forward", "models.target_forward"),
    ("specskip.engine", "build_tree", "tree.build_tree"),
    ("specskip.engine", "enumerate_paths", "tree.enumerate_paths"),
    ("specskip.engine", "linearize", "tree.linearize"),
    ("specskip.engine", "verify_tree", "verify.verify_tree"),
    ("specskip.verify", "pooled_mass", "verify.pooled_mass"),
    ("specskip.engine", "decide", "schedule.decide"),
    ("specskip.engine", "path_similarity", "schedule.path_similarity"),
    ("specskip.schedule", "path_similarity", "schedule.path_similarity"),
    ("specskip.engine", "select_path", "select.select_path"),
    ("specskip.engine", "truncate_path", "select.truncate_path"),
    ("specskip.engine", "update", "cache.update"),
    ("specskip.engine", "retrieve_latest", "cache.retrieve"),
    ("specskip.engine", "retrieve_with_offset", "cache.retrieve"),
    ("specskip.engine", "compute_metrics", "engine.compute_metrics"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _count_request(args, result, counts):
    counts["engine.iterations"] += sum(len(t.iterations) for t in result[0])


def _count_verify(args, result, counts):
    counts["verify.nodes_scored"] += len(args[0].tree.nodes)
    counts["verify.accepted"] += result.accept_length
    counts["verify.bonus"] += result.terminal_origin == "bonus"


def _count_truncate(args, result, counts):
    counts["select.selected"] += len(args[0])
    counts["select.kept"] += len(result)


# Work counts for the ratios, taken at the span that does the work.
OBSERVERS = {
    REQUEST: _count_request,
    "tree.build_tree": lambda a, r, c: c.update({"tree.nodes": len(r.nodes)}),
    "tree.enumerate_paths": lambda a, r, c: c.update({"tree.paths": len(r)}),
    "models.target_forward_masked":
        lambda a, r, c: c.update({"models.positions": len(a[2])}),
    "verify.verify_tree": _count_verify,
    "schedule.decide": lambda a, r, c: c.update({"schedule.skips": int(r)}),
    "select.truncate_path": _count_truncate,
}


class Tracer:
    """Span store.  Each ``with tracer:`` block installs the wrappers and
    restores the originals on exit, whatever happens inside; spans and
    counts accumulate across blocks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._request = -1
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]
        tracer = self
        counts = self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer._stack[-1])
            tracer.requests.append(tracer._request)
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except CacheUnderflow:
                counts["cache.underflow"] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if observe is not None:
                observe(args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for path, attr, name in WRAPPED:
                owner = _owner(path)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._originals.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def request(self, request_id: int, fn, *args):
        """Run one request as the root span of `request_id`."""
        self._request = request_id
        try:
            return self._wrap(REQUEST, fn)(*args)
        finally:
            self._request = -1

    def self_times(self, first: int = 0, stop: int | None = None,
                   scale: dict[int, float] | None = None
                   ) -> tuple[dict[str, float], dict[str, int], int]:
        """Per span name: self time in ns and call count over the spans of
        requests with ids in [first, stop), plus those requests' total
        duration in ns.  `scale` maps request ids to a factor applied to
        the self times of their spans."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        requests = np.frombuffer(self.requests, dtype=np.int64)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size).astype(np.int64)
        own = dur - child
        keep = requests >= first
        if stop is not None:
            keep &= requests < stop
        weights = own[keep].astype(np.float64)
        if scale is not None:
            weights *= np.array([scale[r] for r in requests[keep]])
        self_ns = np.bincount(names[keep], weights=weights, minlength=len(self.names))
        calls = np.bincount(names[keep], minlength=len(self.names))
        root = keep & ~has_parent
        total = int(dur[root].sum())
        return ({n: float(self_ns[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)}, total)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request=np.frombuffer(self.requests, dtype=np.int64))
