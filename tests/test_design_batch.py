"""A batch of designs equals the one-design-at-a-time loop, bit for bit.

``Session.evaluate`` hands the engine every design of a category at once,
and the engine schedules each GEMM's sampled passes for all of them in one
kernel call.  These tests pin what that must not change, on the Fig. 5
``b`` space plus Griffin and SparTen over DNN.B and DNN.dense:

* the evaluations equal a per-design loop of ``evaluate_design``;
* so do the cache counters of each tier (hits, misses, puts);
* designs that share a simulation compute once and write once;
* ``workers=2`` (one batch per chunk) equals the serial batch;
* stacking designs does not add kernel calls; spans and progress stay per
  design, and a serial run reports progress while it runs.
"""

import pytest

import repro.dse.evaluate as dse_evaluate

from repro.api import Session
from repro.config import GRIFFIN, SPARSE_B_STAR, ModelCategory, sparse_b
from repro.dse.evaluate import (
    PROGRESS_BATCHES,
    ConfigDesign,
    EvalSettings,
    GriffinDesign,
    evaluate_design,
)
from repro.dse.explorer import design_space
from repro.obs import Tracer, tracing
from repro.sim import engine

SETTINGS = EvalSettings(quick=True, networks=("BERT",))
CATS = (ModelCategory.B, ModelCategory.DENSE)
SWEEP = [ConfigDesign(c) for c in design_space("b")] + ["Griffin", "SparTen"]


@pytest.fixture(autouse=True)
def cold_engine():
    previous = engine.set_persistent_cache(None)
    engine.clear_memo_cache()
    yield
    engine.clear_memo_cache()
    engine.set_persistent_cache(previous)


def batched(designs, cache_dir, workers=0, categories=CATS):
    engine.clear_memo_cache()
    outcome = Session(workers=workers, cache_dir=cache_dir).evaluate(
        designs, categories, SETTINGS
    )
    return list(outcome.evaluations), outcome.cache_stats


def one_at_a_time(designs, cache_dir, categories=CATS):
    engine.clear_memo_cache()
    with Session(cache_dir=cache_dir) as session:
        evaluations = [evaluate_design(d, categories, SETTINGS) for d in designs]
        return evaluations, session.cache.stats.snapshot()


def tier_counts(stats):
    return {
        "network": (stats.network_hits, stats.network_misses, stats.network_puts),
        "layer": (stats.layer_hits, stats.layer_misses, stats.layer_puts),
        "errors": stats.errors,
    }


def test_sweep_batch_equals_loop_and_parallel(tmp_path):
    evaluations, stats = batched(SWEEP, tmp_path / "batch")
    loop_evaluations, loop_stats = one_at_a_time(SWEEP, tmp_path / "loop")
    assert evaluations == loop_evaluations
    assert tier_counts(stats) == tier_counts(loop_stats)
    parallel, _ = batched(SWEEP, tmp_path / "parallel", workers=2)
    assert parallel == evaluations
    # Warm: every network answers from its tier, nothing is recomputed.
    warm, warm_stats = batched(SWEEP, tmp_path / "batch")
    assert warm == evaluations
    assert warm_stats.network_hits == len(SWEEP) * len(CATS)
    assert warm_stats.layer_hits + warm_stats.layer_misses == 0


@pytest.mark.parametrize(
    "twins",
    [
        # On DNN.B: one ArchConfig, two design labels, one network key.
        [GriffinDesign(GRIFFIN), ConfigDesign(GRIFFIN.conf_b)],
        # ArchConfigs equal up to the display name: one simulation key.
        [ConfigDesign(SPARSE_B_STAR), ConfigDesign(sparse_b(4, 0, 1, shuffle=True))],
    ],
)
def test_twins_compute_once_and_write_once(tmp_path, monkeypatch, twins):
    computed = []
    real = engine._compute_layer_batch

    def counting(gemms, wd, ad, configs, category, options):
        computed.extend(configs)
        return real(gemms, wd, ad, configs, category, options)

    monkeypatch.setattr(engine, "_compute_layer_batch", counting)
    cats = (ModelCategory.B,)
    _, alone = batched(twins[:1], tmp_path / "alone", categories=cats)
    layers_alone = len(computed)
    assert layers_alone > 0
    computed.clear()
    evaluations, stats = batched(twins, tmp_path / "pair", categories=cats)
    assert len(computed) == layers_alone
    assert stats.layer_puts == alone.layer_puts
    speedups = [ev.speedup(ModelCategory.B) for ev in evaluations]
    assert speedups[0] == speedups[1]
    loop_evaluations, loop_stats = one_at_a_time(twins, tmp_path / "loop", cats)
    assert evaluations == loop_evaluations
    assert tier_counts(stats) == tier_counts(loop_stats)


def test_stacking_designs_adds_no_kernel_calls(tmp_path, monkeypatch):
    calls = []
    real = engine.compact_schedule_batch

    def counting(masks, *args, **kwargs):
        calls.append(len(masks))
        return real(masks, *args, **kwargs)

    monkeypatch.setattr(engine, "compact_schedule_batch", counting)
    designs = [ConfigDesign(c) for c in design_space("b")[:12]]
    batched(designs[:1], tmp_path / "one")
    one = list(calls)
    calls.clear()
    batched(designs, tmp_path / "many")
    assert len(calls) == len(one)
    assert sum(calls) == len(designs) * sum(one)


def test_spans_and_progress_stay_per_design(tmp_path):
    designs = SWEEP[:5]
    seen = []
    tracer = Tracer()
    with tracing(tracer):
        Session(cache_dir=tmp_path).evaluate(
            designs, CATS, SETTINGS, progress=lambda done, total: seen.append((done, total))
        )
    assert seen == [(i, len(designs)) for i in range(1, len(designs) + 1)]
    spans = [s for s in tracer.export() if s["name"] == "evaluate.design"]
    assert [s["attrs"]["index"] for s in spans] == list(range(len(designs)))
    assert [s["attrs"]["design"] for s in spans] == [
        d if isinstance(d, str) else d.label for d in designs
    ]


def test_serial_progress_ticks_as_batches_finish(tmp_path, monkeypatch):
    simulated = []
    real = dse_evaluate.simulate_network_batch

    def counting(network, configs, *args):
        simulated.extend(configs)
        return real(network, configs, *args)

    monkeypatch.setattr(dse_evaluate, "simulate_network_batch", counting)
    designs = SWEEP[:10]
    ticks = []
    outcome = Session(cache_dir=tmp_path).evaluate(
        designs, CATS, SETTINGS,
        progress=lambda done, total: ticks.append((done, total, len(simulated))),
    )
    # Each tick fires once its design's batch is simulated, not at the end.
    per_design = len(simulated) // len(designs)
    size = -(-len(designs) // PROGRESS_BATCHES)
    assert ticks == [
        (done, len(designs), min(-(-done // size) * size, len(designs)) * per_design)
        for done in range(1, len(designs) + 1)
    ]
    assert ticks[0][2] < len(simulated)
    # Batch boundaries change no result.
    engine.clear_memo_cache()
    unbatched = Session(cache_dir=tmp_path / "one").evaluate(designs, CATS, SETTINGS)
    assert outcome.evaluations == unbatched.evaluations
