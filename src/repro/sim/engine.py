"""End-to-end cycle simulation of networks on borrowing architectures.

The engine follows the paper's methodology (Sec. V): every layer is lowered
to GEMMs and blocked onto the core (Figure 1); weight blocks are
preprocessed and activation blocks skipped on the fly per the configured
borrowing distances; cycles per block include stalls from output
synchronization, SRAM bank conflicts and buffer fullness; end-to-end latency
sums the blocks.

Because repeated passes of one GEMM are statistically identical, the engine
samples a configurable number of passes per GEMM (including edge passes)
and extrapolates -- the same block-sampling the paper's own
PyTorch-fed simulator performs.  Everything is deterministic in the option
seed, and layer results are memoized on the full simulation key.

Persistent caching is two-tiered: layer results store under
:func:`simulation_key` (:data:`SIMULATION_KEY_VERSION`), and whole-network
results under :func:`network_key` (:data:`NETWORK_KEY_VERSION`), so a warm
:func:`simulate_network` is a single read.  The engine only knows the
:class:`LayerResultCache` / :class:`NetworkResultCache` protocols; the
disk-backed implementation lives in :mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config import ArchConfig, ModelCategory, sparse_a, sparse_b
from repro.core.overhead import overhead_of
from repro.obs import trace as obs
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import TileGrid, tile_grid
from repro.memory.dram import dram_stall_factor, layer_traffic_bytes
from repro.memory.sram import SramModel
from repro.sim.compaction import compact_schedule_batch
from repro.sim.dual import dual_sparse_cycles_batch
from repro.sim.shuffle import rotation_shuffle
from repro.workloads.models import (
    Network,
    NetworkLayer,
    RawGemmSpec,
    gemm_content,
)
from repro.workloads.sparsity import (
    ActFactorField,
    SparsityProfile,
    WeightFactorField,
    act_profile,
    activation_tile_mask,
    sample_act_field,
    sample_weight_field,
    weight_profile,
    weight_tile_mask,
)


@dataclass(frozen=True)
class SimulationOptions:
    """Sampling and stall-modeling knobs.

    ``passes_per_gemm`` output tiles are simulated per GEMM (edge tiles are
    sampled with their natural probability); K dimensions longer than
    ``max_t_steps`` time steps are sampled as segments and scaled.
    ``pipeline_drain`` models the output-synchronization flush between
    passes of a sparse run (capped at a quarter of the tile's depth so
    shallow tiles are not swamped).  ``include_dram`` enables the off-chip
    bandwidth check; the paper provisions 50 GB/s precisely so DRAM never
    throttles (Sec. V), so it is off by default and available for ablation.
    """

    passes_per_gemm: int = 6
    max_t_steps: int = 128
    seed: int = 2022
    pipeline_drain: int = 2
    include_stalls: bool = True
    include_dram: bool = False

    def __post_init__(self) -> None:
        if self.passes_per_gemm < 1:
            raise ValueError("passes_per_gemm must be >= 1")
        if self.max_t_steps < 4:
            raise ValueError("max_t_steps must be >= 4")

    def to_dict(self) -> dict:
        """JSON-serializable form (the spec files' ``options`` shape)."""
        return {
            "passes_per_gemm": self.passes_per_gemm,
            "max_t_steps": self.max_t_steps,
            "seed": self.seed,
            "pipeline_drain": self.pipeline_drain,
            "include_stalls": self.include_stalls,
            "include_dram": self.include_dram,
        }

    @staticmethod
    def from_dict(data: dict, defaults: dict | None = None) -> "SimulationOptions":
        """Build options from a mapping, rejecting unknown keys.

        ``defaults`` (same key set) fills in anything the mapping omits --
        what the declarative spec loaders use for their lighter default
        sampling.
        """
        known = set(SimulationOptions().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown simulation options {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return SimulationOptions(**{**(defaults or {}), **data})


@dataclass(frozen=True)
class TileResult:
    """Cycles for one output tile (pass)."""

    cycles: int
    dense_cycles: int
    executed_ops: int
    borrowed_ops: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class GemmSimResult:
    """Extrapolated result for one GEMM (all passes, all repeats)."""

    shape: GemmShape
    cycles: float
    dense_cycles: int
    sampled_passes: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class LayerSimResult:
    """Simulated cycles for one network layer."""

    name: str
    cycles: float
    dense_cycles: int
    gemms: tuple[GemmSimResult, ...]

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class NetworkSimResult:
    """End-to-end latency of a network on an architecture."""

    network: str
    config: str
    category: ModelCategory
    cycles: float
    dense_cycles: int
    layers: tuple[LayerSimResult, ...]

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


def simulate_tile(
    config: ArchConfig,
    a_mask: np.ndarray | None = None,
    b_mask: np.ndarray | None = None,
    t_steps: int | None = None,
) -> TileResult:
    """Schedule one output tile.

    Pass the activation mask ``[T, L, M]`` and/or weight mask ``[T, L, N]``
    for the sides the architecture should skip; a missing side is treated
    as dense.  With both masks the dual-sparse seven-step pipeline runs;
    with one, the corresponding single-sparse compaction; with none, the
    tile costs exactly ``T`` dense cycles.  A batch of one of
    :func:`_tile_cycles_batch`.
    """
    if t_steps is None:
        source = a_mask if a_mask is not None else b_mask
        if source is None:
            raise ValueError("t_steps is required when no mask is given")
        t_steps = source.shape[0]
    if a_mask is None and b_mask is None:
        return TileResult(t_steps, t_steps, 0, 0)
    ((tile,),) = _tile_cycles_batch([config], [(a_mask, b_mask)])
    return replace(tile, dense_cycles=t_steps)


def _tile_cycles_batch(
    configs: "Sequence[ArchConfig]",
    pairs: "Sequence[tuple[np.ndarray | None, np.ndarray | None]]",
) -> list[list[TileResult]]:
    """Schedule one family of sampled passes for every config in one kernel call.

    Returns one list of tile results per config, in ``pairs`` order.  The
    pairs come unshuffled from the pass memo; they are shuffled once, for
    all the configs that shuffle, and every (config, pass) tile then goes
    through a single ``compact_schedule_batch`` call (per-tile distances)
    or ``dual_sparse_cycles_batch`` call (per-tile configs), so the
    scheduler's per-cycle dispatch is paid once per GEMM, not once per
    (GEMM, design).  Within one family every pass has the same sparse
    sides, so the first pair picks the pipeline.  Each result equals
    :func:`simulate_tile` on that config and pair.
    """
    if not configs or not pairs:
        return [[] for _ in configs]
    shuffled = pairs
    if any(config.shuffle for config in configs):
        shuffled = [
            tuple(rotation_shuffle(m) if m is not None else None for m in pair)
            for pair in pairs
        ]
    tile_pairs = [
        pair for config in configs for pair in (shuffled if config.shuffle else pairs)
    ]
    tile_configs = [config for config in configs for _ in pairs]
    first_a, first_b = pairs[0]
    if first_a is not None and first_b is not None:
        tiles = [
            TileResult(r.cycles, a.shape[0], r.executed_pairs, r.borrowed_ops)
            for r, (a, _) in zip(
                dual_sparse_cycles_batch(tile_pairs, tile_configs), tile_pairs
            )
        ]
    else:
        side = "b" if first_b is not None else "a"
        masks = [b if side == "b" else a for a, b in tile_pairs]
        d1, d2, d3 = zip(*(getattr(c, side).as_tuple() for c in tile_configs))
        tiles = [
            TileResult(r.cycles, m.shape[0], r.executed_ops, r.borrowed_ops)
            for r, m in zip(compact_schedule_batch(masks, d1, d2, d3), masks)
        ]
    n = len(pairs)
    return [tiles[j * n : (j + 1) * n] for j in range(len(configs))]


def _layer_seed(*parts: object) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class _GemmSparsity:
    """Which sides of one GEMM the simulation should treat as sparse."""

    weights: SparsityProfile | None
    activations: SparsityProfile | None

    @property
    def any(self) -> bool:
        return self.weights is not None or self.activations is not None


def _effective_sparsity(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
) -> _GemmSparsity:
    """Combine model category, tensor properties and datapath support."""
    w_density = layer.weight_density if (
        category.weights_sparse and not gemm.weight_is_dynamic
    ) else 1.0
    a_density = layer.act_density if category.activations_sparse else 1.0
    use_b = config.supports_b_sparsity and w_density < 1.0
    use_a = config.supports_a_sparsity and a_density < 1.0
    weights = weight_profile(w_density) if use_b else None
    activations = act_profile(a_density) if use_a else None
    return _GemmSparsity(weights, activations)


def _scheduling_config(config: ArchConfig, sparsity: _GemmSparsity) -> ArchConfig:
    """The borrowing distances actually exercised on this GEMM.

    A ``Sparse.AB`` datapath running single-sparse data *downgrades*
    (Table III): with dense A the per-PE pair arbitration degenerates to
    the preprocessing reach ``Sparse.B(db1, db2, db3)``; with dense B the
    lane/row coordination is lost, leaving ``Sparse.A(da1, 0, 0)``.
    """
    if config.family != "Sparse.AB":
        return config
    use_b = sparsity.weights is not None
    use_a = sparsity.activations is not None
    if use_b and not use_a:
        return sparse_b(
            config.b.d1, config.b.d2, config.b.d3,
            shuffle=config.shuffle, geometry=config.geometry,
        )
    if use_a and not use_b:
        return sparse_a(
            config.a.d1, 0, 0, shuffle=config.shuffle, geometry=config.geometry
        )
    return config


@lru_cache(maxsize=512)
def _sampled_passes(
    seed: int,
    weights: SparsityProfile | None,
    activations: SparsityProfile | None,
    gemm: GemmShape,
    geometry: "CoreGeometry",
    passes_per_gemm: int,
    max_t_steps: int,
) -> tuple:
    """Sampled pass tiles ``(single, dual)`` for one GEMM, memoized.

    Each family is a tuple of ``(a_mask, b_mask)`` pairs.  With
    ``weights``, ``single`` is the weight-only family and ``dual`` the
    dual-sparse family over ``activations`` -- the *layer's* activation
    profile, whichever category asked -- or ``None`` when the layer's
    activations are dense.  Without ``weights``, ``single`` is the
    activation-only family and ``dual`` is ``None``.

    The whole draw sequence -- factor fields, pass selection, tile masks
    -- is a pure function of these arguments and crucially does *not*
    depend on the scheduling config or the model category, so every
    design point and category re-visiting a GEMM reads the same entry.
    The weight factor field (up to millions of gamma variates) is drawn
    once per entry: the generator's state is saved after the draw and
    rewound before the dual family, so each family is byte-identical to
    an independent draw from ``default_rng(seed)``.  The rng and the
    fields are local, so a miss leaves neither a stream nor a field
    behind.  The cached masks are read-only: one entry serves both
    families and every design.
    """
    rng = np.random.default_rng(seed)
    draw = partial(_draw_passes, rng, gemm, geometry, passes_per_gemm, max_t_steps)
    if weights is None:
        a_field = sample_act_field(
            rng, activations, gemm.k, gemm.m, gemm.k_channels, k0=geometry.k0
        )
        return draw(activations=activations, a_field=a_field), None

    w_field = sample_weight_field(
        rng, weights, gemm.k, gemm.n, gemm.k_channels, k0=geometry.k0
    )
    after_weights = rng.bit_generator.state
    single = draw(weights=weights, w_field=w_field)
    if activations is None:
        return single, None
    rng.bit_generator.state = after_weights
    a_field = sample_act_field(
        rng, activations, gemm.k, gemm.m, gemm.k_channels, k0=geometry.k0
    )
    dual = draw(
        weights=weights, w_field=w_field, activations=activations, a_field=a_field
    )
    return single, dual


def _draw_passes(
    rng: np.random.Generator,
    gemm: GemmShape,
    geometry: "CoreGeometry",
    passes_per_gemm: int,
    max_t_steps: int,
    weights: SparsityProfile | None = None,
    w_field: WeightFactorField | None = None,
    activations: SparsityProfile | None = None,
    a_field: ActFactorField | None = None,
) -> tuple:
    """Pick the sampled passes and draw their read-only tile masks."""
    grid = tile_grid(gemm, geometry)
    n_passes = grid.m_tiles * grid.n_tiles
    samples = min(passes_per_gemm, n_passes)
    pass_ids = rng.choice(n_passes, size=samples, replace=False)

    full_t = grid.t_steps
    seg_t = min(full_t, max_t_steps)

    pairs = []
    for pass_id in pass_ids:
        mi, ni = divmod(int(pass_id), grid.n_tiles)
        k_start = 0
        if seg_t < full_t:
            k_start = int(rng.integers(0, full_t - seg_t + 1)) * geometry.k0
        a_mask = None
        b_mask = None
        if weights is not None:
            b_mask = weight_tile_mask(
                rng, weights, w_field,
                t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                n_offset=ni * geometry.n0, n_tile=geometry.n0, n_total=gemm.n,
            )
            b_mask.setflags(write=False)
        if activations is not None:
            a_mask = activation_tile_mask(
                rng, activations, a_field,
                t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                m_offset=mi * geometry.m0, m_tile=geometry.m0, m_total=gemm.m,
            )
            a_mask.setflags(write=False)
        pairs.append((a_mask, b_mask))
    return tuple(pairs)


def _simulate_gemm_batch(
    gemm: GemmShape,
    layer: NetworkLayer,
    configs: "Sequence[ArchConfig]",
    category: ModelCategory,
    options: SimulationOptions,
) -> list[GemmSimResult]:
    """One GEMM on many configs, one scheduler call per pass family.

    Configs that see the same sparse sides on the same geometry read the
    same sampled passes, so they are stacked into one
    :func:`_tile_cycles_batch` call.  Each result equals what the GEMM
    gives on that config alone.
    """
    results: list[GemmSimResult | None] = [None] * len(configs)
    families: dict[tuple, list[int]] = {}
    for j, config in enumerate(configs):
        sparsity = _effective_sparsity(gemm, layer, config, category)
        if not sparsity.any:
            grid = tile_grid(gemm, config.geometry)
            results[j] = GemmSimResult(gemm, float(grid.dense_cycles), grid.dense_cycles, 0)
        else:
            families.setdefault((config.geometry, sparsity), []).append(j)
    if not families:
        return results  # type: ignore[return-value]

    seed = _layer_seed(options.seed, gemm, layer.weight_density, layer.act_density)
    for (geometry, sparsity), members in families.items():
        # A weight-sparse GEMM keys its entry on the layer's activations, so
        # the weight-only and dual-sparse families share one weight draw.
        entry_acts = sparsity.activations
        if sparsity.weights is not None:
            entry_acts = act_profile(layer.act_density) if layer.act_density < 1.0 else None
        with obs.ACTIVE.span("engine.sample_passes", gemm=f"{gemm.m}x{gemm.k}x{gemm.n}"):
            single, dual = _sampled_passes(
                seed, sparsity.weights, entry_acts, gemm, geometry,
                options.passes_per_gemm, options.max_t_steps,
            )
        both_sides = sparsity.weights is not None and sparsity.activations is not None
        pairs = dual if both_sides else single
        samples = len(pairs)
        grid = tile_grid(gemm, geometry)
        n_passes = grid.m_tiles * grid.n_tiles
        full_t = grid.t_steps
        seg_t = min(full_t, options.max_t_steps)
        scale_t = full_t / seg_t
        drain = min(options.pipeline_drain, max(0, seg_t // 4))
        sched_configs = [_scheduling_config(configs[j], sparsity) for j in members]
        with obs.ACTIVE.span("engine.tile_batch", passes=samples, configs=len(members)):
            scheduled = _tile_cycles_batch(sched_configs, pairs)
        for j, sched_config, tiles in zip(members, sched_configs, scheduled):
            total_cycles = 0.0
            for tile in tiles:
                total_cycles += (tile.cycles + drain) * scale_t
            mean_cycles = total_cycles / samples
            cycles = mean_cycles * n_passes * gemm.repeats
            cycles = min(
                max(cycles, _min_cycles(grid, sched_config)), float(grid.dense_cycles)
            )
            results[j] = GemmSimResult(gemm, cycles, grid.dense_cycles, samples)
    return results  # type: ignore[return-value]


def _min_cycles(grid: TileGrid, config: ArchConfig) -> float:
    """Hard floor: the combined window caps speedup at the ABUF depth."""
    cap = (1 + config.a.d1) * (1 + config.b.d1)
    return grid.dense_cycles / cap


def _apply_stalls(
    cycles: float,
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    dense_cycles: int,
    options: SimulationOptions,
) -> float:
    """SRAM bank-conflict and DRAM-bandwidth stalls for one GEMM."""
    geometry = config.geometry
    speedup = dense_cycles / cycles if cycles else 1.0
    # Both operand streams advance at the compacted schedule rate, so both
    # SRAMs are provisioned to the design's ideal speedup (Sec. V).
    provisioned = float((1 + config.a.d1) * (1 + config.b.d1))
    sram = SramModel(bw_scale_a=provisioned, bw_scale_b=provisioned)
    frac = sram.stall_fraction(a_fetch_rate=speedup, b_fetch_rate=speedup)
    cycles *= 1.0 + frac
    if options.include_dram:
        w_density = layer.weight_density if category.weights_sparse else 1.0
        meta_bits = overhead_of(config).metadata_bits
        traffic = layer_traffic_bytes(
            gemm.m, gemm.k, gemm.n, w_density, metadata_bits=meta_bits
        ) * gemm.repeats
        cycles *= dram_stall_factor(traffic, cycles, geometry.frequency_mhz)
    return cycles


class LayerResultCache(Protocol):
    """A persistent store for simulated layers, keyed by :func:`simulation_key`.

    ``get`` returns ``None`` on a miss (including unreadable or corrupt
    entries -- the engine then recomputes and overwrites).  Implementations
    live outside the engine (see :mod:`repro.runtime.cache`); the engine only
    knows this protocol so the dependency points runtime -> sim.
    """

    def get(self, key: str) -> LayerSimResult | None: ...

    def put(self, key: str, result: LayerSimResult) -> None: ...


@runtime_checkable
class NetworkResultCache(Protocol):
    """The optional second cache tier: whole-network results.

    Keyed by :func:`network_key`, which hashes the per-layer simulation
    keys together with the display names the stored result carries, so a
    warm :func:`simulate_network` resolves in a single read instead of one
    lookup (plus re-aggregation) per layer.  A persistent cache that also
    implements this protocol (``get_network`` / ``put_network`` -- checked
    by attribute at runtime, see :func:`_network_tier`) gets the network
    tier for free; one that only implements :class:`LayerResultCache`
    keeps working layer-by-layer.
    """

    def get_network(self, key: str) -> "NetworkSimResult | None": ...

    def put_network(self, key: str, result: "NetworkSimResult") -> None: ...


_persistent_cache: LayerResultCache | None = None

#: Version tag of the simulation-key schema.  Bump whenever the simulation
#: semantics change in a way that invalidates previously cached results.
#: (v2: workload-side content serializes through the shared
#: :func:`repro.workloads.models.gemm_content` canonical form that also
#: feeds workload fingerprints.)
SIMULATION_KEY_VERSION = "layer-sim-v2"

#: Version tag of the network-key schema.  Bump when the *aggregation* of
#: layer results into a network result changes (the layer tier is covered
#: separately: network keys embed the per-layer simulation keys, so a
#: ``SIMULATION_KEY_VERSION`` bump invalidates both tiers at once).
#: (v2: keys embed the workload content fingerprint, so user-defined
#: networks -- which share neither a registry name nor a factory -- cache
#: correctly and can never collide on display names.)
NETWORK_KEY_VERSION = "network-sim-v2"


def _design_key_part(
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> str:
    """The design half of a simulation key: config, category, options."""
    geometry = config.geometry
    return "|".join((
        f"a={config.a.as_tuple()}",
        f"b={config.b.as_tuple()}",
        f"shuffle={int(config.shuffle)}",
        f"geom={geometry.k0},{geometry.n0},{geometry.m0},"
        f"{geometry.frequency_mhz!r},{geometry.precision_bits}",
        category.value,
        f"opts={options.passes_per_gemm},{options.max_t_steps},{options.seed},"
        f"{options.pipeline_drain},{int(options.include_stalls)},{int(options.include_dram)}",
    ))


def _hash_simulation_key(
    gemms: str, weight_density: float, act_density: float, design_part: str
) -> str:
    """The one place the layer-key string is written and hashed.

    ``gemms`` is the layer's :func:`~repro.workloads.models.gemm_content`
    and ``design_part`` its :func:`_design_key_part`.
    """
    text = (
        f"{SIMULATION_KEY_VERSION}|{gemms}"
        f"|{float(weight_density)!r}|{float(act_density)!r}|{design_part}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


def simulation_key(
    gemms: tuple[GemmShape, ...],
    weight_density: float,
    act_density: float,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> str:
    """Content-addressed key of one layer simulation.

    Covers exactly the inputs the simulation depends on: the GEMM shapes,
    the layer densities, the borrowing configuration (distances, shuffle,
    geometry -- but *not* the display name), the model category and the
    sampling options.  Stable across processes and sessions, so it doubles
    as the on-disk key of the persistent result cache.
    """
    return _hash_simulation_key(
        gemm_content(gemms),
        weight_density,
        act_density,
        _design_key_part(config, category, options),
    )


def network_key(
    network: Network,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> str:
    """Content-addressed key of one whole-network simulation.

    Derived from the workload's content fingerprint
    (:func:`repro.workloads.models.network_fingerprint` -- layer specs plus
    the per-layer density assignments, so user-defined networks can never
    collide on a display name) and the per-layer :func:`simulation_key`
    sequence -- which inherits every input the layer simulations depend on,
    including :data:`SIMULATION_KEY_VERSION` -- plus exactly the display
    metadata the cached :class:`NetworkSimResult` carries: the network
    name, the layer names in order, and the configuration label (which the
    layer keys deliberately exclude).

    A warm lookup costs ``1 + L`` sha256 hashes of short strings for ``L``
    layers and no GEMM lowering: the fingerprint and each layer's GEMM
    content come from the network's memoized
    :attr:`~repro.workloads.models.Network.key_content`, and the design
    part of the layer keys is formatted once per call.
    """
    content = network.key_content
    design_part = _design_key_part(config, category, options)
    parts = [
        NETWORK_KEY_VERSION,
        network.name,
        f"fp={content.fingerprint}",
        config.label,
        category.value,
    ]
    parts.extend(
        f"{layer.name}="
        + _hash_simulation_key(
            layer.gemms, layer.weight_density, layer.act_density, design_part
        )
        for layer in content.layers
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def set_persistent_cache(cache: LayerResultCache | None) -> LayerResultCache | None:
    """Install (or remove, with ``None``) the persistent layer-result cache.

    Returns the previously installed cache so callers can restore it.
    """
    global _persistent_cache
    previous = _persistent_cache
    _persistent_cache = cache
    return previous


def get_persistent_cache() -> LayerResultCache | None:
    return _persistent_cache


@contextmanager
def persistent_cache(
    cache: LayerResultCache | None,
) -> Iterator[LayerResultCache | None]:
    """Scoped installation of the persistent layer-result cache.

    Installs ``cache`` (or explicitly none) for the duration of the block
    and restores the previously installed cache afterwards, even on error.
    This is how :class:`repro.api.Session` keeps its cache session-scoped
    instead of mutating global state permanently.
    """
    previous = set_persistent_cache(cache)
    try:
        yield cache
    finally:
        set_persistent_cache(previous)


@lru_cache(maxsize=32768)
def _layer_memo(
    gemms: tuple[GemmShape, ...],
    weight_density: float,
    act_density: float,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> list:
    """The in-process memo cell of one layer simulation: ``[result]``.

    Keyed on every simulation input.  A batch takes each config's cell
    before it computes the misses together, so a cell starts empty
    (``[None]``) and is filled once the result exists; ``cache_info()``
    counts a first look-up as a miss and every later one as a hit, like a
    memoized function.
    """
    return [None]


def clear_memo_cache() -> None:
    """Drop the in-process layer memoization (not the persistent cache)."""
    _layer_memo.cache_clear()
    _sampled_passes.cache_clear()


def _resolve_batch(
    identities: "Sequence[object]",
    lookup: "Callable[[int], object | None]",
    compute: "Callable[[list[int]], list]",
    store: "Callable[[int, object], None]",
) -> list:
    """Look every item up, compute the misses together, store them.

    Equivalent to handling the items one at a time in order: an item
    whose identity repeats an earlier one waits for a later wave, by which
    time the earlier one's result is stored -- so it makes the same
    lookups, and gets the same hits, as a one-at-a-time loop, and a
    result is computed and written once.
    """
    results: list = [None] * len(identities)
    todo = list(range(len(identities)))
    while todo:
        wave: list[int] = []
        later: list[int] = []
        seen = set()
        for i in todo:
            (later if identities[i] in seen else wave).append(i)
            seen.add(identities[i])
        misses = []
        for i in wave:
            results[i] = lookup(i)
            if results[i] is None:
                misses.append(i)
        if misses:
            for i, result in zip(misses, compute(misses)):
                store(i, result)
                results[i] = result
        todo = later
    return results


def _totals(results: "Sequence[GemmSimResult | LayerSimResult]") -> tuple[float, int]:
    """Cycles and dense cycles, summed in order (never a compensated sum)."""
    cycles = 0.0
    dense = 0
    for res in results:
        cycles += res.cycles
        dense += res.dense_cycles
    return cycles, dense


def _compute_layer_batch(
    gemms: tuple[GemmShape, ...],
    weight_density: float,
    act_density: float,
    configs: "Sequence[ArchConfig]",
    category: ModelCategory,
    options: SimulationOptions,
) -> list[LayerSimResult]:
    layer = NetworkLayer(
        spec=RawGemmSpec(name="layer", shapes=gemms),
        weight_density=weight_density,
        act_density=act_density,
    )
    per_config: list[list[GemmSimResult]] = [[] for _ in configs]
    with obs.ACTIVE.span("engine.compute_layer", gemms=len(gemms), configs=len(configs)):
        for gemm in gemms:
            batch = _simulate_gemm_batch(gemm, layer, configs, category, options)
            for results, config, res in zip(per_config, configs, batch):
                if options.include_stalls and res.cycles < res.dense_cycles:
                    gemm_cycles = _apply_stalls(
                        res.cycles, gemm, layer, config, category, res.dense_cycles, options
                    )
                    gemm_cycles = min(gemm_cycles, float(res.dense_cycles))
                    res = GemmSimResult(gemm, gemm_cycles, res.dense_cycles, res.sampled_passes)
                results.append(res)
    return [
        LayerSimResult("layer", *_totals(results), gemms=tuple(results))
        for results in per_config
    ]


def _simulate_layer_batch(
    layer: NetworkLayer,
    configs: "Sequence[ArchConfig]",
    category: ModelCategory,
    options: SimulationOptions,
) -> list[LayerSimResult]:
    """One layer on many configs: memo, then the layer tier, then one computation.

    Configs that differ only in their display name share a simulation key:
    the first computes and writes it, the others hit its entry.
    """
    gemms = tuple(layer.spec.gemms())
    inputs = (gemms, layer.weight_density, layer.act_density)
    cache = _persistent_cache
    keys: dict[int, str] = {}

    cells = [_layer_memo(*inputs, config, category, options) for config in configs]

    def lookup(i: int) -> LayerSimResult | None:
        if cells[i][0] is None and cache is not None:
            keys[i] = simulation_key(*inputs, configs[i], category, options)
            cells[i][0] = cache.get(keys[i])
        return cells[i][0]

    def store(i: int, result: LayerSimResult) -> None:
        if cache is not None:
            cache.put(keys[i], result)
        cells[i][0] = result

    results = _resolve_batch(
        [(c.a, c.b, c.shuffle, c.geometry) for c in configs],
        lookup,
        lambda misses: _compute_layer_batch(
            *inputs, [configs[i] for i in misses], category, options
        ),
        store,
    )
    return [
        result if result.name == layer.name else replace(result, name=layer.name)
        for result in results
    ]


def simulate_layer(
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions | None = None,
) -> LayerSimResult:
    """Simulate one layer; results are memoized on the full key.

    The cache key deliberately excludes the layer *name*, so topologically
    repeated blocks (ResNet stages, BERT encoders) simulate once; the
    returned result nevertheless carries the layer's real display name.
    """
    options = options or SimulationOptions()
    return _simulate_layer_batch(layer, [config], category, options)[0]


def _network_tier(cache: LayerResultCache | None) -> NetworkResultCache | None:
    """The installed cache, if it also implements the network tier.

    Checked by attribute: ``isinstance`` against the runtime-checkable
    protocol costs about 10 us per call on Python 3.11, paid on every
    :func:`simulate_network`, warm or not.
    """
    if hasattr(cache, "get_network") and hasattr(cache, "put_network"):
        return cache  # type: ignore[return-value]
    return None


def simulate_network(
    network: Network,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions | None = None,
) -> NetworkSimResult:
    """End-to-end latency of a network on an architecture configuration.

    A batch of one of :func:`simulate_network_batch`.
    """
    return simulate_network_batch(network, [config], category, options)[0]


def simulate_network_batch(
    network: Network,
    configs: "Sequence[ArchConfig]",
    category: ModelCategory,
    options: SimulationOptions | None = None,
) -> list[NetworkSimResult]:
    """End-to-end latency of one network on many configurations.

    Resolution is tiered: if the installed persistent cache implements
    :class:`NetworkResultCache`, each config's network is looked up under
    its :func:`network_key` first -- a warm run answers in one read per
    config with zero layer simulations.  The misses simulate together
    through the layer tier (each GEMM's pass family is scheduled for all
    of them in one kernel call), and each aggregated result is written
    back to the network tier for the next run.  Results, cache reads and
    cache writes equal those of :func:`simulate_network` on each config in
    turn.
    """
    options = options or SimulationOptions()
    tier = _network_tier(_persistent_cache)
    if tier is not None:
        keys: list = [network_key(network, c, category, options) for c in configs]
    else:
        keys = list(range(len(configs)))

    def compute(misses: list[int]) -> list[NetworkSimResult]:
        batch = [configs[i] for i in misses]
        with obs.ACTIVE.span(
            "engine.network_compute",
            network=network.name,
            configs=len(batch),
            layers=len(network.layers),
        ):
            per_layer = [
                _simulate_layer_batch(layer, batch, category, options)
                for layer in network.layers
            ]
        return [
            NetworkSimResult(
                network.name, config.label, category, *_totals(layers), layers=layers
            )
            for config, layers in zip(batch, map(tuple, zip(*per_layer)))
        ]

    return _resolve_batch(
        keys,
        lambda i: tier.get_network(keys[i]) if tier is not None else None,
        compute,
        lambda i, result: tier.put_network(keys[i], result) if tier is not None else None,
    )
