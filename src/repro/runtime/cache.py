"""Content-addressed, two-tier persistent cache of simulation results.

Layer simulations are pure functions of the :func:`repro.sim.engine.simulation_key`
inputs, so their results can be stored on disk and reused across processes
and sessions: a design-space sweep that re-runs after a crash, a warm
re-generation of a figure, or a pool of worker processes all hit the same
store.  The store has two tiers:

* the **layer tier** holds one :class:`~repro.sim.engine.LayerSimResult`
  per :func:`~repro.sim.engine.simulation_key`;
* the **network tier** holds one :class:`~repro.sim.engine.NetworkSimResult`
  per :func:`~repro.sim.engine.network_key`, so a warm full-figure run
  resolves each network in a single read (zero layer simulations, zero
  layer-tier lookups) and falls back to the layer tier -- and then to
  simulation -- on a miss or a corrupt entry.

Entries are one JSON file per key, sharded by key prefix::

    <root>/layers/<key[:2]>/<key>.json      # layer tier
    <root>/networks/<key[:2]>/<key>.json    # network tier

Writes are atomic (temp file + rename) so concurrent workers may race on
the same key without corrupting it -- last writer wins and every winner
wrote identical bytes.  Unreadable or corrupt entries are treated as misses
and recomputed (and counted in :attr:`CacheStats.errors`).

The root directory defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Delete the directory (or call :meth:`PersistentLayerCache.clear`) to
invalidate; the engine also versions keys with
:data:`repro.sim.engine.SIMULATION_KEY_VERSION` and
:data:`repro.sim.engine.NETWORK_KEY_VERSION`, so stale schema entries are
simply never looked up again (network keys embed the layer keys, hence a
simulation-semantics bump invalidates both tiers at once).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.config import ModelCategory
from repro.gemm.layers import GemmShape
from repro.obs import trace as obs
from repro.sim.engine import GemmSimResult, LayerSimResult, NetworkSimResult

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk layer-entry schema version (independent of the key versions).
ENTRY_VERSION = 1

#: On-disk network-entry schema version.
NETWORK_ENTRY_VERSION = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Counters of one cache's activity (or an aggregate over workers).

    ``hits`` / ``misses`` / ``puts`` / ``errors`` are **unified totals
    across both tiers**; the ``network_*`` fields record the network-tier
    share of each, so the layer-tier share is always the difference (also
    exposed as the ``layer_*`` properties).  Keeping one flat object makes
    the tier breakdown survive every existing aggregation path -- worker
    chunk deltas, session accumulation, sweep outcomes -- unchanged.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    network_hits: int = 0
    network_misses: int = 0
    network_puts: int = 0
    network_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none happened)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def layer_hits(self) -> int:
        return self.hits - self.network_hits

    @property
    def layer_misses(self) -> int:
        return self.misses - self.network_misses

    @property
    def layer_puts(self) -> int:
        return self.puts - self.network_puts

    @property
    def layer_errors(self) -> int:
        return self.errors - self.network_errors

    @property
    def layer_lookups(self) -> int:
        return self.layer_hits + self.layer_misses

    @property
    def network_lookups(self) -> int:
        return self.network_hits + self.network_misses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.errors += other.errors
        self.network_hits += other.network_hits
        self.network_misses += other.network_misses
        self.network_puts += other.network_puts
        self.network_errors += other.network_errors

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.puts, self.errors,
            self.network_hits, self.network_misses,
            self.network_puts, self.network_errors,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Activity that happened after ``since`` was snapshotted."""
        return CacheStats(
            self.hits - since.hits,
            self.misses - since.misses,
            self.puts - since.puts,
            self.errors - since.errors,
            self.network_hits - since.network_hits,
            self.network_misses - since.network_misses,
            self.network_puts - since.network_puts,
            self.network_errors - since.network_errors,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "network_hits": self.network_hits,
            "network_misses": self.network_misses,
            "network_puts": self.network_puts,
            "network_errors": self.network_errors,
        }

    @staticmethod
    def from_dict(data: dict[str, int]) -> "CacheStats":
        return CacheStats(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            puts=int(data.get("puts", 0)),
            errors=int(data.get("errors", 0)),
            network_hits=int(data.get("network_hits", 0)),
            network_misses=int(data.get("network_misses", 0)),
            network_puts=int(data.get("network_puts", 0)),
            network_errors=int(data.get("network_errors", 0)),
        )


def _gemm_shape_to_dict(shape: GemmShape) -> dict:
    return {
        "m": shape.m,
        "k": shape.k,
        "n": shape.n,
        "repeats": shape.repeats,
        "weight_is_dynamic": shape.weight_is_dynamic,
        "channels": shape.channels,
    }


#: Distinct shapes one cache instance interns before starting over (a
#: bound on memory for a long-lived server fed ever-new workloads).
_SHAPE_INTERN_LIMIT = 4096


def _gemm_shape_from_dict(data: dict, shapes: dict[tuple, GemmShape]) -> GemmShape:
    """Decode one shape, interned in ``shapes`` by its raw value tuple.

    A network entry repeats a few distinct shapes many times, and building
    plus validating a :class:`GemmShape` dominated decoding.  With an
    intern table each distinct tuple is converted and validated once; a
    repeat returns the same (immutable) shape.  Raw values that compare
    equal convert to equal shapes, so interning never changes a result;
    an unhashable raw value (a tampered entry) raises ``TypeError`` and
    the entry counts as corrupt.
    """
    raw = (
        data["m"], data["k"], data["n"],
        data["repeats"], data["weight_is_dynamic"], data["channels"],
    )
    shape = shapes.get(raw)
    if shape is None:
        if len(shapes) >= _SHAPE_INTERN_LIMIT:
            shapes.clear()
        shape = shapes[raw] = GemmShape(
            m=int(raw[0]),
            k=int(raw[1]),
            n=int(raw[2]),
            repeats=int(raw[3]),
            weight_is_dynamic=bool(raw[4]),
            channels=int(raw[5]),
        )
    return shape


def _check_entry(data: object, version: int, what: str) -> None:
    """Reject a decoded entry that is not an object of ``version``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is a JSON {type(data).__name__}, not an object")
    if data.get("v") != version:
        raise ValueError(f"unsupported {what} version: {data.get('v')!r}")


def result_to_dict(result: LayerSimResult) -> dict:
    """JSON-serializable form of a layer result (exact float round-trip)."""
    return {
        "v": ENTRY_VERSION,
        "name": result.name,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "gemms": [
            {
                "shape": _gemm_shape_to_dict(g.shape),
                "cycles": g.cycles,
                "dense_cycles": g.dense_cycles,
                "sampled_passes": g.sampled_passes,
            }
            for g in result.gemms
        ],
    }


def result_from_dict(
    data: dict, shapes: dict[tuple, GemmShape] | None = None
) -> LayerSimResult:
    """Inverse of :func:`result_to_dict`; raises on any malformed entry.

    ``shapes`` is an intern table for the decoded GEMM shapes that callers
    may share across calls (see :func:`_gemm_shape_from_dict`).
    """
    _check_entry(data, ENTRY_VERSION, "cache entry")
    shapes = {} if shapes is None else shapes
    gemms = tuple(
        GemmSimResult(
            shape=_gemm_shape_from_dict(g["shape"], shapes),
            cycles=float(g["cycles"]),
            dense_cycles=int(g["dense_cycles"]),
            sampled_passes=int(g["sampled_passes"]),
        )
        for g in data["gemms"]
    )
    return LayerSimResult(
        name=str(data["name"]),
        cycles=float(data["cycles"]),
        dense_cycles=int(data["dense_cycles"]),
        gemms=gemms,
    )


def network_result_to_dict(result: NetworkSimResult) -> dict:
    """JSON-serializable form of a network result (exact float round-trip)."""
    return {
        "v": NETWORK_ENTRY_VERSION,
        "network": result.network,
        "config": result.config,
        "category": result.category.value,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "layers": [result_to_dict(layer) for layer in result.layers],
    }


def network_result_from_dict(
    data: dict, shapes: dict[tuple, GemmShape] | None = None
) -> NetworkSimResult:
    """Inverse of :func:`network_result_to_dict`; raises on malformed entries."""
    _check_entry(data, NETWORK_ENTRY_VERSION, "network cache entry")
    shapes = {} if shapes is None else shapes
    return NetworkSimResult(
        network=str(data["network"]),
        config=str(data["config"]),
        category=ModelCategory(data["category"]),
        cycles=float(data["cycles"]),
        dense_cycles=int(data["dense_cycles"]),
        layers=tuple(result_from_dict(layer, shapes) for layer in data["layers"]),
    )


class _CorruptEntry(Exception):
    """Internal: a cache file existed but did not decode."""


class PersistentLayerCache:
    """Disk-backed two-tier result cache.

    Implements both engine protocols: the
    :class:`~repro.sim.engine.LayerResultCache` tier (``get`` / ``put``)
    and the :class:`~repro.sim.engine.NetworkResultCache` tier
    (``get_network`` / ``put_network``).  Both tiers share the root
    directory, the atomic-write discipline, and one unified
    :class:`CacheStats` object (tier shares in its ``network_*`` /
    ``layer_*`` views).
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        self._shapes: dict[tuple, GemmShape] = {}

    @property
    def layers_dir(self) -> Path:
        return self.root / "layers"

    @property
    def networks_dir(self) -> Path:
        return self.root / "networks"

    def path_for(self, key: str) -> Path:
        return self.layers_dir / key[:2] / f"{key}.json"

    def network_path_for(self, key: str) -> Path:
        return self.networks_dir / key[:2] / f"{key}.json"

    def _read(self, path: Path, decode) -> object | None:
        """One tier-agnostic lookup.

        Returns the decoded result, ``None`` for a plain miss (absent or
        unreadable file), or raises ``_CorruptEntry`` after unlinking a
        malformed file so callers can count the error against the right
        tier.
        """
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return decode(json.loads(text), self._shapes)
        except (ValueError, KeyError, TypeError, OverflowError):
            # Corrupt or stale-schema entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            raise _CorruptEntry from None

    def _write(self, path: Path, payload: str, key: str) -> bool:
        """Atomic write; ``False`` (never an exception) on disk errors."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk never fails the simulation.
            return False
        return True

    # ------------------------------------------------------------------
    # Layer tier.
    # ------------------------------------------------------------------

    def get(self, key: str) -> LayerSimResult | None:
        if not obs.ACTIVE.enabled:
            return self._get(key)
        with obs.ACTIVE.span("cache.layer.get", key=key) as span:
            result = self._get(key)
            span.set(hit=result is not None)
        return result

    def _get(self, key: str) -> LayerSimResult | None:
        try:
            result = self._read(self.path_for(key), result_from_dict)
        except _CorruptEntry:
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: LayerSimResult) -> None:
        if not obs.ACTIVE.enabled:
            return self._put(key, result)
        with obs.ACTIVE.span("cache.layer.put", key=key):
            self._put(key, result)

    def _put(self, key: str, result: LayerSimResult) -> None:
        payload = json.dumps(result_to_dict(result), separators=(",", ":"))
        if self._write(self.path_for(key), payload, key):
            self.stats.puts += 1
        else:
            self.stats.errors += 1

    # ------------------------------------------------------------------
    # Network tier.
    # ------------------------------------------------------------------

    def get_network(self, key: str) -> NetworkSimResult | None:
        if not obs.ACTIVE.enabled:
            return self._get_network(key)
        with obs.ACTIVE.span("cache.network.get", key=key) as span:
            result = self._get_network(key)
            span.set(hit=result is not None)
        return result

    def _get_network(self, key: str) -> NetworkSimResult | None:
        try:
            result = self._read(self.network_path_for(key), network_result_from_dict)
        except _CorruptEntry:
            self.stats.errors += 1
            self.stats.network_errors += 1
            self.stats.misses += 1
            self.stats.network_misses += 1
            return None
        if result is None:
            self.stats.misses += 1
            self.stats.network_misses += 1
            return None
        self.stats.hits += 1
        self.stats.network_hits += 1
        return result

    def put_network(self, key: str, result: NetworkSimResult) -> None:
        if not obs.ACTIVE.enabled:
            return self._put_network(key, result)
        with obs.ACTIVE.span("cache.network.put", key=key):
            self._put_network(key, result)

    def _put_network(self, key: str, result: NetworkSimResult) -> None:
        payload = json.dumps(network_result_to_dict(result), separators=(",", ":"))
        if self._write(self.network_path_for(key), payload, key):
            self.stats.puts += 1
            self.stats.network_puts += 1
        else:
            self.stats.errors += 1
            self.stats.network_errors += 1

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total entries on disk across both tiers."""
        total = 0
        for tier in (self.layers_dir, self.networks_dir):
            if tier.is_dir():
                total += sum(1 for _ in sorted(tier.glob("*/*.json")))
        return total

    def clear(self) -> int:
        """Delete every cached entry (both tiers); returns how many."""
        removed = 0
        for tier in (self.layers_dir, self.networks_dir):
            if not tier.is_dir():
                continue
            for entry in sorted(tier.glob("*/*.json")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
