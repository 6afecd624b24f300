"""Closed-form analytical surrogate of the cycle-accurate engine.

The surrogate answers the question the exact engine answers -- end-to-end
network cycles of a borrowing configuration on a model category -- in
microseconds instead of seconds, so a search can *screen* a whole design
space and spend the exact engine only on the predicted frontier
(``fidelity: "multi"``, see ``docs/surrogate.md``).

Per GEMM the prediction is ``base * exp(theta . phi)``, clamped to the
same ``[min_cycles, dense_cycles]`` envelope the engine enforces:

* the **base** term mirrors every deterministic piece of the engine's
  :func:`~repro.sim.engine._simulate_gemm_batch` arithmetic exactly -- effective
  sparsity, Sparse.AB downgrades, tile-segment scaling, pipeline drain,
  the speedup floor/cap clamps, and the SRAM stall model -- and replaces
  only the *sampled* mean tile cycles with a closed form: the expected
  per-window maximum of the compacted occupancy, a rectified-Gaussian
  smooth-max of the work bound over the window floor with a Gumbel-style
  tail for the slot-max (the constant-density analogue of
  :mod:`repro.sim.analytical`, with no RNG anywhere);
* the **correction** ``exp(theta . phi)`` absorbs what the closed form
  abstracts away (factor-field imbalance, shuffle rebalancing, borrowing
  interactions): a log-linear basis over borrowing distances x tensor
  density x tile depth, with one fitted coefficient vector per sampling
  regime x *effective* scheduling family x calibration workload.  The
  family is the one the point actually schedules as (``b`` / ``a`` /
  ``ab`` -- Sparse.AB points running single-sparse data downgrade per
  Table III); the per-workload vectors absorb the config x layer-mix
  interaction that a suite-global fit cannot (a pooled per-family
  fallback covers workloads outside the calibration suite, at unrecorded
  error).  The constants are fitted against the persistent cache's exact
  results (:mod:`repro.surrogate.calibrate`) and committed as a golden
  keyed by :data:`~repro.sim.engine.SIMULATION_KEY_VERSION`.

Dense GEMMs (no exploitable sparsity) are predicted exactly -- the engine
returns ``dense_cycles`` for them without sampling -- so the ``DNN.dense``
category is exact by construction and calibration error concentrates where
sampling actually happens.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.config import ArchConfig, ModelCategory
from repro.core.metrics import geometric_mean
from repro.dse.evaluate import (
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    as_design,
)
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import tile_grid
from repro.sim.engine import (
    SimulationOptions,
    _apply_stalls,
    _effective_sparsity,
    _min_cycles,
    _scheduling_config,
)
from repro.surrogate.store import (
    ANY_WORKLOAD,
    FamilyConstants,
    SurrogateConstants,
    load_constants,
)
from repro.workloads.models import Network, NetworkLayer
from repro.workloads.registry import WorkloadLike, parse_workload


def options_key(options: SimulationOptions) -> str:
    """Canonical identity of a sampling-options point (regime matching)."""
    return json.dumps(options.to_dict(), sort_keys=True)

#: Hard ceiling of the calibration error budget: worst-case per-workload
#: relative network-cycles error across the Table IV workloads x the
#: Fig. 5-7 config grids, enforced per sampling regime by
#: ``repro surrogate check`` and by the error-budget test suite.
#: ``default`` is the declarative specs' production sampling (3 passes,
#: 64 time steps); ``quick`` is the smoke sampling (1 pass, 16 time
#: steps), where a single sampled tile of depth <=16 quantizes exact
#: per-GEMM cycles to ~1/18 granularity -- coarse enough that only the
#: per-workload correction vectors keep the worst case under the bar.
ERROR_BUDGET: dict[str, float] = {"default": 0.05, "quick": 0.05}

#: Ceiling applied to a regime not named above (e.g. a custom corpus).
DEFAULT_ERROR_BUDGET = 0.05


def smooth_max(mu: float, floor: float, sigma: float) -> float:
    """E[max(X, floor)] for X ~ N(mu, sigma^2) (rectified-Gaussian mean)."""
    if sigma <= 0.0:
        return max(mu, floor)
    z = (mu - floor) / sigma
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return floor + (mu - floor) * cdf + sigma * pdf


def tile_cycle_estimate(
    t_steps: float, density: float, d1: int, d2: int, d3: int, n_slots: int
) -> float:
    """Expected compacted cycles of one tile side at constant density.

    ``t_steps`` windows of width ``w = 1 + d1`` advance at the per-window
    maximum over ``n_slots`` slots of the compacted occupancy; grouping
    reach ``g = (1 + d2)(1 + d3)`` pools donors, averaging the slot field
    down to ``n_slots / g`` effective independents.  The mean rate is the
    work bound ``p`` plus a Gumbel-style tail for the slot max
    (``sqrt(2 v ln s_eff / (t g))``), smooth-maxed over the window floor
    ``1/w`` with the Gaussian width of the pooled window occupancy.
    """
    if t_steps <= 0:
        return 0.0
    window = 1 + d1
    group = (1 + d2) * (1 + d3)
    floor = 1.0 / window
    eff_slots = max(n_slots / group, 2.0)
    variance = max(density * (1.0 - density), 0.0)
    tail = math.sqrt(2.0 * variance * math.log(eff_slots) / (t_steps * group))
    sigma = math.sqrt(variance / max(window * group, 1))
    rate = smooth_max(density + tail, floor, sigma)
    return t_steps * min(max(rate, floor), 1.0)


# ---------------------------------------------------------------------------
# Correction feature basis (shared verbatim by fit and predict).
# ---------------------------------------------------------------------------


def _distance_basis(d1: int, d2: int, d3: int) -> list[tuple[str, float]]:
    lw, l2, l3 = math.log1p(d1), math.log1p(d2), math.log1p(d3)
    return [
        ("lw", lw), ("lw2", lw * lw),
        ("l2", l2), ("l3", l3), ("l22", l2 * l2), ("l32", l3 * l3),
        ("lwl2", lw * l2), ("lwl3", lw * l3), ("l2l3", l2 * l3),
    ]


def _density_basis(tag: str, density: float) -> list[tuple[str, float]]:
    lp = math.log(density)
    return [("1", 1.0), (f"lp{tag}", lp), (f"lp{tag}2", lp * lp)]


def _family_features(
    family: str,
    sched: ArchConfig,
    weight_density: float,
    act_density: float,
    seg_t: int,
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The (names, values) correction basis of one GEMM.

    The basis is a tensor product of a quadratic log-distance basis and a
    quadratic log-density basis, plus the tile-depth term, all duplicated
    under a shuffle interaction (shuffle rebalances the factor-field lanes
    and changes every coefficient's meaning, so it gets its own copy).
    """
    if family == "b":
        dist = _distance_basis(sched.b.d1, sched.b.d2, sched.b.d3)
        dens = _density_basis("w", weight_density)
    elif family == "a":
        dist = _distance_basis(sched.a.d1, sched.a.d2, sched.a.d3)
        dens = _density_basis("a", act_density)
    else:
        dist = _distance_basis(sched.b.d1, sched.b.d2, sched.b.d3)
        dist.append(("lwa", math.log1p(sched.a.d1)))
        lpa = math.log(act_density)
        dens = _density_basis("w", weight_density)
        dens.extend([("lpa", lpa), ("lpa2", lpa * lpa)])
    terms = list(dens)
    terms.extend(
        (f"{dn}*{pn}", dv * pv) for dn, dv in dist for pn, pv in dens
    )
    terms.append(("lseg", math.log(seg_t / 64.0)))
    shuffle = 1.0 if sched.shuffle else 0.0
    terms.extend((f"sh:{name}", shuffle * value) for name, value in terms[:])
    names = tuple(name for name, _ in terms)
    values = tuple(value for _, value in terms)
    return names, values


@dataclass(frozen=True)
class GemmTerms:
    """Everything the surrogate knows about one sparse GEMM.

    ``base`` is the full closed-form mirror of the engine's arithmetic
    (clamps and stalls included); the fitted correction multiplies it and
    the result is re-clamped to ``[min_cycles, dense_cycles]``.  ``None``
    from :func:`gemm_terms` means the GEMM runs dense and is predicted
    exactly as ``dense_cycles``.
    """

    family: str
    base: float
    min_cycles: float
    dense_cycles: int
    feature_names: tuple[str, ...]
    features: tuple[float, ...]


def gemm_terms(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> GemmTerms | None:
    """Base prediction + correction features of one GEMM (``None`` = dense)."""
    geometry = config.geometry
    grid = tile_grid(gemm, geometry)
    sparsity = _effective_sparsity(gemm, layer, config, category)
    if not sparsity.any:
        return None
    sched = _scheduling_config(config, sparsity)
    use_b = sparsity.weights is not None
    use_a = sparsity.activations is not None
    weight_density = sparsity.weights.density if use_b else 1.0
    act_density = sparsity.activations.density if use_a else 1.0

    seg_t = min(grid.t_steps, options.max_t_steps)
    scale_t = grid.t_steps / seg_t
    drain = min(options.pipeline_drain, max(0, seg_t // 4))
    k0, n0, m0 = geometry.k0, geometry.n0, geometry.m0

    if use_b and use_a:
        family = "ab"
        # Dual-sparse runs the two compaction stages back to back: the
        # B-side schedule sets the surviving depth the A side then packs.
        tile_b = tile_cycle_estimate(
            seg_t, weight_density, sched.b.d1, sched.b.d2, sched.b.d3, k0 * n0
        )
        tile = tile_cycle_estimate(
            tile_b, act_density, sched.a.d1, sched.a.d2, sched.a.d3, k0 * m0
        )
    elif use_b:
        family = "b"
        tile = tile_cycle_estimate(
            seg_t, weight_density, sched.b.d1, sched.b.d2, sched.b.d3, k0 * n0
        )
    else:
        family = "a"
        tile = tile_cycle_estimate(
            seg_t, act_density, sched.a.d1, sched.a.d2, sched.a.d3, k0 * m0
        )

    n_passes = grid.m_tiles * grid.n_tiles
    cycles = (tile + drain) * scale_t * n_passes * gemm.repeats
    floor = _min_cycles(grid, sched)
    cycles = min(max(cycles, floor), float(grid.dense_cycles))
    if options.include_stalls and cycles < grid.dense_cycles:
        cycles = _apply_stalls(
            cycles, gemm, layer, config, category, grid.dense_cycles, options
        )
        cycles = min(cycles, float(grid.dense_cycles))
    names, values = _family_features(
        family, sched, weight_density, act_density, seg_t
    )
    return GemmTerms(
        family=family,
        base=cycles,
        min_cycles=floor,
        dense_cycles=grid.dense_cycles,
        feature_names=names,
        features=values,
    )


def corrected_cycles(terms: GemmTerms, constants: FamilyConstants) -> float:
    """Apply a fitted correction to a base prediction, re-clamped."""
    if constants.feature_names != terms.feature_names:
        raise ValueError(
            f"surrogate constants for family {terms.family!r} were fitted "
            f"on a different feature basis ({len(constants.feature_names)} "
            f"features vs {len(terms.feature_names)} in this code); refit "
            f"with 'repro surrogate fit'"
        )
    exponent = 0.0
    for theta, phi in zip(constants.theta, terms.features):
        exponent += theta * phi
    cycles = terms.base * math.exp(exponent)
    return min(max(cycles, terms.min_cycles), float(terms.dense_cycles))


@dataclass(frozen=True)
class SurrogatePrediction:
    """Predicted end-to-end latency (the surrogate's ``NetworkSimResult``)."""

    network: str
    config: str
    category: ModelCategory
    cycles: float
    dense_cycles: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


class SurrogateModel:
    """A calibrated surrogate: fitted constants + the closed form above.

    The model is read-only and deterministic: predictions are pure float64
    arithmetic over the config, the layer specs, and the fitted constants
    -- no RNG, no sampling, no clock -- so screening decisions are bitwise
    reproducible across runs and worker counts.  Layer predictions are
    memoized per (layer content, config, category, options), mirroring the
    engine's layer-level memoization.
    """

    def __init__(self, constants: SurrogateConstants) -> None:
        self.constants = constants
        self._layer_memo: dict[tuple, tuple[float, int]] = {}
        regimes = dict(constants.corpus.get("regimes") or {})
        if not regimes:
            raise ValueError(
                "surrogate constants record no calibration regimes; refit "
                "with 'repro surrogate fit'"
            )
        self._regimes = {
            json.dumps(opts, sort_keys=True): name
            for name, opts in regimes.items()
        }

    def regime_for(self, options: SimulationOptions) -> str:
        """The calibration regime matching ``options`` exactly.

        The surrogate is a *calibrated* model: sampled cycle counts depend
        on every sampling knob (passes, segment depth, seed, stalls), so a
        prediction under options the corpus never measured would silently
        carry an unvalidated error.  Refusing is the honest failure mode.
        """
        regime = self._regimes.get(options_key(options))
        if regime is None:
            raise ValueError(
                f"surrogate is not calibrated for simulation options "
                f"{options.to_dict()}; calibrated regimes: "
                f"{sorted(self._regimes.values())}"
            )
        return regime

    @classmethod
    def load(cls, path=None) -> "SurrogateModel":
        """Load fitted constants (default: the committed golden)."""
        return cls(load_constants(path))

    @classmethod
    def load_default(cls) -> "SurrogateModel":
        return cls.load(None)

    def predict_layer(
        self,
        layer: NetworkLayer,
        config: ArchConfig,
        category: ModelCategory,
        options: SimulationOptions,
        regime: str,
        workload: str = ANY_WORKLOAD,
    ) -> tuple[float, int]:
        """Predicted (cycles, dense_cycles) of one layer, memoized."""
        key = (
            tuple(layer.spec.gemms()),
            layer.weight_density,
            layer.act_density,
            config,
            category,
            options,
            regime,
            workload,
        )
        hit = self._layer_memo.get(key)
        if hit is not None:
            return hit
        cycles = 0.0
        dense = 0
        for gemm in layer.spec.gemms():
            terms = gemm_terms(gemm, layer, config, category, options)
            if terms is None:
                grid = tile_grid(gemm, config.geometry)
                cycles += float(grid.dense_cycles)
                dense += grid.dense_cycles
                continue
            cycles += corrected_cycles(
                terms,
                self.constants.family(regime, terms.family, workload),
            )
            dense += terms.dense_cycles
        self._layer_memo[key] = (cycles, dense)
        return cycles, dense

    def predict_network(
        self,
        network: WorkloadLike,
        config: ArchConfig,
        category: ModelCategory,
        options: SimulationOptions | None = None,
    ) -> SurrogatePrediction:
        """Predicted end-to-end latency (mirrors ``simulate_network``)."""
        net = (
            network
            if isinstance(network, Network)
            else parse_workload(network).network
        )
        options = options or SimulationOptions()
        regime = self.regime_for(options)
        workload = net.fingerprint
        cycles = 0.0
        dense = 0
        for layer in net.layers:
            layer_cycles, layer_dense = self.predict_layer(
                layer, config, category, options, regime, workload
            )
            cycles += layer_cycles
            dense += layer_dense
        return SurrogatePrediction(
            network=net.name,
            config=config.label,
            category=category,
            cycles=cycles,
            dense_cycles=dense,
        )

    def category_speedup(
        self,
        config: ArchConfig,
        category: ModelCategory,
        settings: EvalSettings,
    ) -> float:
        """Predicted geomean suite speedup (mirrors ``category_speedup``)."""
        speedups = [
            self.predict_network(
                workload.network, config, category, settings.options
            ).speedup
            for workload in settings.suite(category)
        ]
        return geometric_mean(speedups)

    def evaluate_design(
        self,
        design: DesignLike,
        categories: tuple[ModelCategory, ...],
        settings: EvalSettings,
    ) -> DesignEvaluation:
        """Predicted score card (mirrors ``dse.evaluate.evaluate_design``).

        Efficiency points go through the *exact* cost model -- power and
        area are closed-form already -- so only the speedup axis is
        surrogate-predicted.
        """
        design = as_design(design)
        points = tuple(
            design.efficiency_point(
                category,
                self.category_speedup(
                    design.config_for(category), category, settings
                ),
            )
            for category in categories
        )
        return DesignEvaluation(label=design.label, points=points)
