"""The sampled-pass memo: one weight draw shared by both pass families.

A weight-sparse GEMM's memo entry holds the weight-only family *and* the
dual-sparse family, built from a single weight factor field by rewinding
the generator after the draw.  These tests pin each family against an
independent reference draw, count the weight-field draws of a real
evaluation, and check that cached masks are read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    GRIFFIN,
    SPARSE_A_STAR,
    SPARSE_AB_STAR,
    SPARSE_B_STAR,
    ModelCategory,
)
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import tile_grid
from repro.sim import engine
from repro.sim.engine import SimulationOptions, simulate_network
from repro.workloads.models import Network, NetworkLayer, RawGemmSpec, alexnet
from repro.workloads.sparsity import (
    act_profile,
    activation_tile_mask,
    sample_act_field,
    sample_weight_field,
    weight_profile,
    weight_tile_mask,
)

OPTIONS = SimulationOptions(passes_per_gemm=3, max_t_steps=16, seed=11)

#: An edge-tile shape (M, N not multiples of the core's M0, N0; K not a
#: multiple of K0) and a shape whose K needs segmentation (T > max_t_steps).
SHAPES = {
    "edge": GemmShape(m=21, k=200, n=37, channels=8),
    "k-segmented": GemmShape(m=8, k=16 * 40, n=32),
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    engine.clear_memo_cache()
    with engine.persistent_cache(None):
        yield
    engine.clear_memo_cache()


def _reference(seed, weights, activations, gemm, geometry, options):
    """An independent draw: fresh rng, weight field, optional activation
    field, then pass ids and tile masks -- the order every family had when
    each drew its own fields."""
    rng = np.random.default_rng(seed)
    grid = tile_grid(gemm, geometry)
    w_field = a_field = None
    if weights is not None:
        w_field = sample_weight_field(
            rng, weights, gemm.k, gemm.n, gemm.k_channels, k0=geometry.k0
        )
    if activations is not None:
        a_field = sample_act_field(
            rng, activations, gemm.k, gemm.m, gemm.k_channels, k0=geometry.k0
        )
    n_passes = grid.m_tiles * grid.n_tiles
    pass_ids = rng.choice(n_passes, size=min(options.passes_per_gemm, n_passes), replace=False)
    seg_t = min(grid.t_steps, options.max_t_steps)
    pairs = []
    for pass_id in pass_ids:
        mi, ni = divmod(int(pass_id), grid.n_tiles)
        k_start = 0
        if seg_t < grid.t_steps:
            k_start = int(rng.integers(0, grid.t_steps - seg_t + 1)) * geometry.k0
        a_mask = b_mask = None
        if weights is not None:
            b_mask = weight_tile_mask(
                rng, weights, w_field, t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                n_offset=ni * geometry.n0, n_tile=geometry.n0, n_total=gemm.n,
            )
        if activations is not None:
            a_mask = activation_tile_mask(
                rng, activations, a_field, t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                m_offset=mi * geometry.m0, m_tile=geometry.m0, m_total=gemm.m,
            )
        pairs.append((a_mask, b_mask))
    return pairs


def _assert_pairs_equal(got, want):
    assert len(got) == len(want)
    for (got_a, got_b), (want_a, want_b) in zip(got, want):
        for g, w in ((got_a, want_a), (got_b, want_b)):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and np.array_equal(g, w)


def _layer(gemm: GemmShape) -> NetworkLayer:
    return NetworkLayer(
        spec=RawGemmSpec(name="layer", shapes=(gemm,)),
        weight_density=0.3,
        act_density=0.6,
    )


def _scheduled_pairs(monkeypatch, gemm, config, category):
    """The pairs ``_simulate_gemm_batch`` hands to the scheduler."""
    seen = []
    real = engine._tile_cycles_batch

    def capture(sched_config, pairs):
        seen.append(pairs)
        return real(sched_config, pairs)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_tile_cycles_batch", capture)
        engine._simulate_gemm_batch(gemm, _layer(gemm), [config], category, OPTIONS)
    return seen[-1]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("first", ["weight-only", "dual"])
def test_each_family_equals_an_independent_draw(monkeypatch, shape, first):
    gemm = SHAPES[shape]
    layer = _layer(gemm)
    geometry = SPARSE_AB_STAR.geometry
    seed = engine._layer_seed(OPTIONS.seed, gemm, layer.weight_density, layer.act_density)
    weights = weight_profile(layer.weight_density)
    acts = act_profile(layer.act_density)
    # Sparse.AB* on DNN.B downgrades to a weight-only schedule; on DNN.AB
    # it runs the dual-sparse pipeline.
    requests = {
        "weight-only": (ModelCategory.B, _reference(seed, weights, None, gemm, geometry, OPTIONS)),
        "dual": (ModelCategory.AB, _reference(seed, weights, acts, gemm, geometry, OPTIONS)),
    }
    order = [first] + [name for name in requests if name != first]
    for name in order:
        category, want = requests[name]
        got = _scheduled_pairs(monkeypatch, gemm, SPARSE_AB_STAR, category)
        _assert_pairs_equal(got, want)
    info = engine._sampled_passes.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_activation_only_family_equals_an_independent_draw(monkeypatch, shape):
    gemm = SHAPES[shape]
    layer = _layer(gemm)
    geometry = SPARSE_A_STAR.geometry
    seed = engine._layer_seed(OPTIONS.seed, gemm, layer.weight_density, layer.act_density)
    want = _reference(seed, None, act_profile(layer.act_density), gemm, geometry, OPTIONS)
    got = _scheduled_pairs(monkeypatch, gemm, SPARSE_A_STAR, ModelCategory.A)
    _assert_pairs_equal(got, want)


def test_weight_only_entry_without_sparse_activations():
    gemm = SHAPES["edge"]
    geometry = SPARSE_B_STAR.geometry
    weights = weight_profile(0.3)
    single, dual = engine._sampled_passes(
        5, weights, None, gemm, geometry, OPTIONS.passes_per_gemm, OPTIONS.max_t_steps
    )
    assert dual is None
    _assert_pairs_equal(single, _reference(5, weights, None, gemm, geometry, OPTIONS))


def test_cached_masks_are_read_only():
    gemm = SHAPES["edge"]
    single, dual = engine._sampled_passes(
        5, weight_profile(0.3), act_profile(0.6), gemm, SPARSE_AB_STAR.geometry,
        OPTIONS.passes_per_gemm, OPTIONS.max_t_steps,
    )
    masks = [m for family in (single, dual) for pair in family for m in pair if m is not None]
    assert len(masks) == 3 * OPTIONS.passes_per_gemm
    for mask in masks:
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0] = True
        with pytest.raises(ValueError):
            mask |= True


def _count_weight_draws(monkeypatch) -> list[int]:
    calls = []
    real = engine.sample_weight_field

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "sample_weight_field", counting)
    return calls


def test_one_weight_draw_per_distinct_gemm_seed(monkeypatch):
    net = alexnet()
    calls = _count_weight_draws(monkeypatch)
    for category in (ModelCategory.B, ModelCategory.AB):
        for config in (SPARSE_B_STAR, GRIFFIN.config_for(category)):
            simulate_network(net, config, category, OPTIONS)
    seeds = {
        engine._layer_seed(OPTIONS.seed, gemm, layer.weight_density, layer.act_density)
        for layer in net.layers
        for gemm in layer.spec.gemms()
        if not gemm.weight_is_dynamic and layer.weight_density < 1.0
    }
    assert len(calls) == len(seeds)


def test_clear_memo_cache_makes_the_next_evaluation_redraw(monkeypatch):
    net = Network(name="two-gemm", layers=(_layer(SHAPES["edge"]), _layer(SHAPES["k-segmented"])))
    calls = _count_weight_draws(monkeypatch)
    first = simulate_network(net, SPARSE_AB_STAR, ModelCategory.AB, OPTIONS)
    assert len(calls) == 2
    simulate_network(net, SPARSE_AB_STAR, ModelCategory.AB, OPTIONS)
    assert len(calls) == 2
    engine.clear_memo_cache()
    again = simulate_network(net, SPARSE_AB_STAR, ModelCategory.AB, OPTIONS)
    assert len(calls) == 4
    assert again == first
