"""Per-layer timing from outside the program: wrap public calls, fold spans.

The benchmark never edits ``src/``.  Instead :func:`install` replaces each
layer's public functions with thin wrappers *where the caller looks them
up*: the engine imported its sampling and scheduling kernels by name, so
they are patched as ``repro.sim.engine.<name>``; ``simulate_network`` is
patched in every module that bound it; cache and session methods are
patched on their classes.  Every wrapped call appends one span to an
in-memory list; :meth:`Tracer.fold` turns the spans into per-layer counts,
busy time (sum of call durations) and self time (duration minus the time
covered by wrapped calls made inside it) once the run is over.

Span stacks are thread-local because ``repro serve`` evaluates requests on
compute threads.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    """In-memory span recorder with thread-local parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.since = 0.0
        self._memo_at_mark = (0, 0)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds
        counters to the span (tiles scheduled, hit or miss, ...)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, extra))

        return wrapper

    def mark(self) -> None:
        """Forget what happened so far: fold only spans that start later."""
        self.since = time.perf_counter()
        self._memo_at_mark = _pass_memo_counts()

    def fold(self) -> dict[str, float]:
        """Per-layer counters from the recorded spans (see README.md)."""
        spans = [s for s in self.spans if s[3] >= self.since]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, extra in spans:
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time.get(span_id, 0.0)
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value

        out: dict[str, float] = {}
        for name in ("sparsity.weight_field", "sparsity.act_field",
                     "sparsity.tile_mask", "engine.network_key",
                     "cache.get", "cache.put", "cache.get_network",
                     "cache.put_network", "surrogate.predict_network"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        for name in ("sched.compact_batch", "sched.dual_batch"):
            tiles = counts[f"{name}.tiles"]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.tiles"] = tiles
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.us_per_tile"] = busy[name] / tiles * 1e6 if tiles else 0.0
        for name in ("engine.simulate_network", "engine.simulate_layer",
                     "dse.evaluate_design", "api.evaluate"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["api.search.calls"] = calls["api.search"]
        out["api.search.busy_s"] = busy["api.search"]
        out["api.search.evaluated"] = counts["api.search.evaluated"]
        out["api.search.screened"] = counts["api.search.screened"]

        hits, misses = _pass_memo_counts()
        hits -= self._memo_at_mark[0]
        misses -= self._memo_at_mark[1]
        out["engine.memo_hit_ratio"] = _ratio(hits, hits + misses)
        out["cache.layer_hit_ratio"] = _ratio(
            counts["cache.get.hit"], calls["cache.get"]
        )
        out["cache.network_hit_ratio"] = _ratio(
            counts["cache.get_network.hit"], calls["cache.get_network"]
        )
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _pass_memo_counts() -> tuple[int, int]:
    """Hits and misses of the engine's in-process sampled-pass memo."""
    from repro.sim import engine

    info = engine._sampled_passes.cache_info()
    return info.hits, info.misses


def _tiles(args, result) -> dict:
    return {"tiles": len(args[0])}


def _hit(args, result) -> dict:
    return {"hit": int(result is not None)}


def _search_counts(args, result) -> dict:
    return {"evaluated": result.evaluated, "screened": result.screened}


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every public layer call through ``tracer``; returns a function
    that puts the original callables back."""
    import repro.api as api
    import repro.dse.evaluate as dse_evaluate
    import repro.sim.engine as engine
    from repro.runtime.cache import PersistentLayerCache
    from repro.surrogate.model import SurrogateModel

    originals: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(owner, attr, name, attrs=None):
        wrapped = tracer.wrap(name, getattr(owner, attr), attrs)
        replace(owner, attr, wrapped)
        return wrapped

    patch(engine, "sample_weight_field", "sparsity.weight_field")
    patch(engine, "sample_act_field", "sparsity.act_field")
    patch(engine, "weight_tile_mask", "sparsity.tile_mask")
    patch(engine, "activation_tile_mask", "sparsity.tile_mask")
    patch(engine, "compact_schedule_batch", "sched.compact_batch", _tiles)
    patch(engine, "dual_sparse_cycles_batch", "sched.dual_batch", _tiles)
    patch(engine, "network_key", "engine.network_key")
    patch(engine, "simulate_layer", "engine.simulate_layer")
    simulate_network = patch(engine, "simulate_network", "engine.simulate_network")
    # Both callers bound simulate_network by name at import time.
    replace(dse_evaluate, "simulate_network", simulate_network)
    replace(api, "simulate_network", simulate_network)

    patch(PersistentLayerCache, "get", "cache.get", _hit)
    patch(PersistentLayerCache, "put", "cache.put")
    patch(PersistentLayerCache, "get_network", "cache.get_network", _hit)
    patch(PersistentLayerCache, "put_network", "cache.put_network")

    # Session._evaluate_serial calls evaluate_design as bound in repro.api.
    patch(api, "evaluate_design", "dse.evaluate_design")
    patch(api.Session, "evaluate", "api.evaluate")
    patch(api.Session, "search", "api.search", _search_counts)
    patch(SurrogateModel, "predict_network", "surrogate.predict_network")

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall


def disk_usage(root: str | os.PathLike) -> tuple[int, int]:
    """Entry files and their total bytes under a cache directory."""
    files = 0
    size = 0
    for path in Path(root).rglob("*.json"):
        files += 1
        size += path.stat().st_size
    return files, size
