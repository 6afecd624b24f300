"""Property-based invariants of ``compact_schedule`` over random masks.

These lock the scheduler's contract in for refactors:

* zero borrowing costs exactly ``T`` cycles for *any* mask, and a dense
  mask costs exactly ``T`` for any borrowing distances;
* borrowing never makes a tile slower than dense (``cycles <= T``);
* cycles are bounded below by the work (``ceil(ops / slots)``) and by the
  stream drain rate (``ceil(T / (1 + d1))``);
* growing any single distance is monotone non-increasing up to a one-cycle
  tolerance -- the greedy offset-priority arbiter can lose exactly one
  cycle to an unlucky donor claim, never more (verified over tens of
  thousands of schedules);
* the vectorized kernel agrees with the pure-Python reference oracle.

Masks are drawn as (shape, density, seed) and expanded with a seeded
generator, so examples are reproducible; with ``hypothesis`` installed the
search is driven by its shrinker (derandomized for CI stability), otherwise
a fixed seeded-random sweep covers the same ground.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.compaction import (
    compact_schedule,
    compact_schedule_batch,
    compact_schedule_reference,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the container always has it
    HAVE_HYPOTHESIS = False


def make_mask(t_steps: int, lanes: int, c1: int, c2: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    return rng.random((t_steps, lanes, c1, c2)) < density


def check_bounds(mask, d1: int, d2: int, d3: int) -> None:
    t_steps = mask.shape[0]
    slots = mask.shape[1] * mask.shape[2] * mask.shape[3]
    ops = int(mask.sum())
    res = compact_schedule(mask, d1, d2, d3)
    assert res.executed_ops == ops
    assert res.cycles <= t_steps, "borrowing must never be slower than dense"
    assert res.cycles >= math.ceil(ops / slots)
    assert res.cycles >= math.ceil(t_steps / (1 + d1))
    if d2 == 0 and d3 == 0:
        assert res.borrowed_ops == 0, "no lane/PE reach means no borrowed ops"
    assert res.busy_cycles <= res.cycles


def check_no_borrowing_is_dense(mask) -> None:
    res = compact_schedule(mask, 0, 0, 0)
    assert res.cycles == mask.shape[0]


def check_dense_mask_costs_t(shape, d1: int, d2: int, d3: int) -> None:
    dense = np.ones(shape, dtype=bool)
    res = compact_schedule(dense, d1, d2, d3)
    assert res.cycles == shape[0]
    assert res.executed_ops == int(dense.sum())


def check_near_monotone(mask, base: tuple[int, int, int]) -> None:
    for axis in range(3):
        distances = list(base)
        previous = None
        for value in range(4):
            distances[axis] = value
            cycles = compact_schedule(mask, *distances).cycles
            if previous is not None:
                assert cycles <= previous + 1, (
                    f"growing d{axis + 1} to {value} regressed {previous} -> "
                    f"{cycles} cycles (more than arbitration jitter)"
                )
            previous = cycles


def check_matches_reference(
    mask, d1: int, d2: int, d3: int, front_mode: str = "stream"
) -> None:
    fast = compact_schedule(
        mask, d1, d2, d3, return_schedule=True, front_mode=front_mode
    )
    slow = compact_schedule_reference(
        mask, d1, d2, d3, return_schedule=True, front_mode=front_mode
    )
    assert fast.cycles == slow.cycles
    assert fast.busy_cycles == slow.busy_cycles
    assert fast.executed_ops == slow.executed_ops
    assert fast.borrowed_ops == slow.borrowed_ops
    # The recorded schedules must be bit-identical, not just cycle-equal:
    # downstream dual-sparsity filtering replays them element by element.
    assert fast.schedule.shape == slow.schedule.shape
    assert np.array_equal(fast.schedule, slow.schedule)
    assert fast.schedule.dtype == slow.schedule.dtype


def check_batch_matches_sequential(
    masks, d1: int, d2: int, d3: int, lane_wrap: bool = True
) -> None:
    sequential = [
        compact_schedule(m, d1, d2, d3, lane_wrap=lane_wrap) for m in masks
    ]
    batched = compact_schedule_batch(masks, d1, d2, d3, lane_wrap=lane_wrap)
    assert len(batched) == len(sequential)
    for seq, bat in zip(sequential, batched):
        assert bat.cycles == seq.cycles
        assert bat.busy_cycles == seq.busy_cycles
        assert bat.executed_ops == seq.executed_ops
        assert bat.borrowed_ops == seq.borrowed_ops


if HAVE_HYPOTHESIS:
    mask_params = st.tuples(
        st.integers(2, 14),       # T
        st.integers(1, 6),        # L
        st.integers(1, 4),        # C1
        st.integers(1, 2),        # C2
        st.floats(0.02, 0.98),    # density
        st.integers(0, 2**31),    # seed
    )
    distance = st.integers(0, 3)
    prop = settings(max_examples=60, deadline=None, derandomize=True)

    class TestHypothesisProperties:
        @prop
        @given(mask_params, distance, distance, distance)
        def test_bounds(self, params, d1, d2, d3):
            check_bounds(make_mask(*params), d1, d2, d3)

        @prop
        @given(mask_params)
        def test_no_borrowing_is_dense(self, params):
            check_no_borrowing_is_dense(make_mask(*params))

        @prop
        @given(st.tuples(st.integers(2, 14), st.integers(1, 6), st.integers(1, 4),
                         st.integers(1, 2)), distance, distance, distance)
        def test_dense_mask_costs_t(self, shape, d1, d2, d3):
            check_dense_mask_costs_t(shape, d1, d2, d3)

        @prop
        @given(mask_params, distance, distance, distance)
        def test_near_monotone(self, params, b1, b2, b3):
            check_near_monotone(make_mask(*params), (b1, b2, b3))

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(
            st.tuples(st.integers(2, 8), st.integers(1, 4), st.integers(1, 3),
                      st.integers(1, 2), st.floats(0.05, 0.95), st.integers(0, 2**31)),
            distance, distance, distance,
            st.sampled_from(["stream", "unit", "tile"]),
        )
        def test_matches_reference(self, params, d1, d2, d3, front_mode):
            check_matches_reference(make_mask(*params), d1, d2, d3, front_mode)

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(
            st.lists(
                st.tuples(st.integers(1, 12), st.floats(0.0, 1.0),
                          st.integers(0, 2**31)),
                min_size=1, max_size=6,
            ),
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)),
            distance, distance, distance,
            st.booleans(),
        )
        def test_batch_matches_sequential(self, tiles, dims, d1, d2, d3, wrap):
            lanes, c1, c2 = dims
            masks = [
                make_mask(t, lanes, c1, c2, density, seed)
                for t, density, seed in tiles
            ]
            check_batch_matches_sequential(masks, d1, d2, d3, lane_wrap=wrap)


class TestSeededRandomProperties:
    """Seeded-random sweep of the same invariants (runs with or without
    hypothesis, so CI environments missing it keep the coverage)."""

    @pytest.mark.parametrize("trial", range(25))
    def test_invariants(self, trial):
        rng = np.random.default_rng(1000 + trial)
        t_steps = int(rng.integers(2, 14))
        lanes = int(rng.integers(1, 6))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 3))
        density = float(rng.uniform(0.02, 0.98))
        mask = make_mask(t_steps, lanes, c1, c2, density, seed=trial)
        base = tuple(int(rng.integers(0, 4)) for _ in range(3))
        check_bounds(mask, *base)
        check_no_borrowing_is_dense(mask)
        check_dense_mask_costs_t((t_steps, lanes, c1, c2), *base)
        check_near_monotone(mask, base)

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_reference(self, trial):
        rng = np.random.default_rng(2000 + trial)
        mask = make_mask(
            int(rng.integers(2, 8)), int(rng.integers(1, 4)),
            int(rng.integers(1, 3)), int(rng.integers(1, 2)),
            float(rng.uniform(0.05, 0.95)), seed=trial,
        )
        mode = ("stream", "unit", "tile")[trial % 3]
        check_matches_reference(
            mask, int(rng.integers(0, 3)), int(rng.integers(0, 3)),
            int(rng.integers(0, 3)), front_mode=mode,
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_batch_matches_sequential(self, trial):
        rng = np.random.default_rng(3000 + trial)
        lanes = int(rng.integers(1, 5))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 3))
        d1, d2, d3 = (int(rng.integers(0, 4)) for _ in range(3))
        wrap = bool(trial % 2)
        masks = []
        for i in range(int(rng.integers(1, 7))):
            t_steps = int(rng.integers(1, 16))
            # Force occasional all-zero tiles: the batch kernel short-cuts
            # them to the pure drain and must still agree with sequential.
            density = 0.0 if i % 4 == 3 else float(rng.uniform(0.0, 1.0))
            masks.append(make_mask(t_steps, lanes, c1, c2, density, seed=i))
        check_batch_matches_sequential(masks, d1, d2, d3, lane_wrap=wrap)

    def test_no_borrowing_fast_path_matches_reference(self):
        # d2 == d3 == 0 takes the closed-form path; pin it to the oracle
        # including the recorded schedule.
        for trial in range(6):
            rng = np.random.default_rng(4000 + trial)
            mask = make_mask(
                int(rng.integers(2, 12)), int(rng.integers(1, 5)),
                int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                float(rng.uniform(0.0, 1.0)), seed=trial,
            )
            check_matches_reference(mask, int(rng.integers(0, 4)), 0, 0)

    def test_batch_of_one_matches_single(self):
        mask = make_mask(9, 4, 3, 2, 0.4, seed=7)
        single = compact_schedule(mask, 2, 1, 1)
        (bat,) = compact_schedule_batch([mask], 2, 1, 1)
        assert (bat.cycles, bat.busy_cycles, bat.executed_ops, bat.borrowed_ops) == (
            single.cycles, single.busy_cycles, single.executed_ops,
            single.borrowed_ops,
        )

    def test_batch_empty_list(self):
        assert compact_schedule_batch([], 2, 1, 1) == []
        assert compact_schedule_batch([], (), (), (), record=True) == []


def check_batch_matches_reference(
    masks, distances, lane_wrap: bool = True, record: bool = False
) -> None:
    """One heterogeneous batch equals the oracle tile by tile, bit for bit."""
    d1, d2, d3 = zip(*distances)
    batched = compact_schedule_batch(
        masks, d1, d2, d3, lane_wrap=lane_wrap, record=record
    )
    assert len(batched) == len(masks)
    for mask, dist, got in zip(masks, distances, batched):
        want = compact_schedule_reference(
            mask, *dist, lane_wrap=lane_wrap, return_schedule=record
        )
        assert (got.cycles, got.busy_cycles, got.executed_ops, got.borrowed_ops) == (
            want.cycles, want.busy_cycles, want.executed_ops, want.borrowed_ops,
        ), (mask.shape, dist)
        if record:
            assert got.schedule.dtype == want.schedule.dtype
            assert got.schedule.shape == want.schedule.shape
            assert np.array_equal(got.schedule, want.schedule)
        else:
            assert got.schedule is None


def heterogeneous_batch(rng, lanes: int, c1: int, c2: int):
    """Ragged masks (some all-zero, some ``T == 0``, some shared objects)
    with per-tile distances that mix donor and no-donor tiles."""
    masks, distances = [], []
    for i in range(int(rng.integers(2, 8))):
        if i and rng.random() < 0.25:
            # The same array for another design: deduplicated by identity.
            masks.append(masks[int(rng.integers(0, i))])
        else:
            t_steps = 0 if i % 5 == 4 else int(rng.integers(1, 12))
            density = 0.0 if i % 4 == 3 else float(rng.uniform(0.0, 1.0))
            masks.append(make_mask(t_steps, lanes, c1, c2, density, seed=int(rng.integers(1 << 30))))
        d1 = int(rng.integers(0, 4))
        if i % 2:
            distances.append((d1, 0, 0))
        else:
            distances.append((d1, int(rng.integers(0, 4)), int(rng.integers(0, 4))))
    return masks, distances


class TestHeterogeneousBatches:
    """Per-tile distances: one kernel call, each tile equal to the oracle."""

    @pytest.mark.parametrize("trial", range(12))
    @pytest.mark.parametrize("record", [False, True])
    def test_matches_reference(self, trial, record):
        rng = np.random.default_rng(5000 + trial)
        lanes = int(rng.integers(1, 5))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 3))
        masks, distances = heterogeneous_batch(rng, lanes, c1, c2)
        check_batch_matches_reference(
            masks, distances, lane_wrap=bool(trial % 2), record=record
        )

    def test_shared_mask_equals_copies(self):
        # One mask under many designs' distances: each tile borrows only
        # along its own offsets, and sharing the array changes nothing.
        mask = make_mask(10, 4, 3, 2, 0.45, seed=11)
        distances = [(2, 1, 1), (2, 0, 0), (3, 2, 0), (1, 0, 2)]
        check_batch_matches_reference([mask] * 4, distances, record=True)
        d1, d2, d3 = zip(*distances)
        shared = compact_schedule_batch([mask] * 4, d1, d2, d3, record=True)
        copies = compact_schedule_batch(
            [mask.copy() for _ in distances], d1, d2, d3, record=True
        )
        for a, b in zip(shared, copies):
            assert (a.cycles, a.busy_cycles, a.borrowed_ops) == (
                b.cycles, b.busy_cycles, b.borrowed_ops,
            )
            assert np.array_equal(a.schedule, b.schedule)

    def test_scalar_distances_broadcast(self):
        masks = [make_mask(t, 3, 2, 1, 0.5, seed=t) for t in (4, 9, 7)]
        per_tile = compact_schedule_batch(masks, [2] * 3, [1] * 3, [1] * 3)
        scalar = compact_schedule_batch(masks, 2, 1, 1)
        assert per_tile == scalar

    def test_rejects_mismatched_geometry_and_distance_count(self):
        with pytest.raises(ValueError):
            compact_schedule_batch([make_mask(4, 2, 2, 1, 0.5, 0),
                                    make_mask(4, 3, 2, 1, 0.5, 0)])
        with pytest.raises(ValueError):
            compact_schedule_batch([make_mask(4, 2, 2, 1, 0.5, 0)] * 3, [1, 2])

    @pytest.mark.parametrize("shape", [(0, 3, 2, 1), (5, 0, 2, 1), (5, 3, 0, 1)])
    def test_empty_masks_schedule_only_on_request(self, shape):
        mask = np.zeros(shape, dtype=bool)
        plain = compact_schedule(mask, 2, 1, 1)
        assert (plain.cycles, plain.executed_ops) == (0, 0)
        assert plain.schedule is None
        recorded = compact_schedule(mask, 2, 1, 1, return_schedule=True)
        assert recorded.schedule is not None and recorded.schedule.size == 0
        if shape[0] == 0:
            want = compact_schedule_reference(mask, 2, 1, 1, return_schedule=True)
            assert recorded.schedule.shape == want.schedule.shape
            assert recorded.schedule.dtype == want.schedule.dtype


if HAVE_HYPOTHESIS:

    class TestHypothesisHeterogeneousBatches:
        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(
            st.integers(0, 2**31),
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)),
            st.booleans(),
            st.booleans(),
        )
        def test_matches_reference(self, seed, dims, wrap, record):
            rng = np.random.default_rng(seed)
            masks, distances = heterogeneous_batch(rng, *dims)
            check_batch_matches_reference(masks, distances, lane_wrap=wrap, record=record)
