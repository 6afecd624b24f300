"""Greedy windowed borrow-scheduling of blocked nonzero masks.

This kernel is the performance heart of the reproduction.  A GEMM tile is
blocked per Figure 1 into ``T`` time steps (K/K0 slices), ``L`` lanes (the
positions of the K0-wide dot-product unit), and a PE axis.  An effectual
operation at ``(t, l, c)`` may be *borrowed*: executed early by up to ``d1``
time steps, by a slot up to ``d2`` lanes away, or by a PE up to ``d3``
positions away (Definitions III.1 / III.2).

Execution semantics (Sec. 5 of DESIGN.md):

* Each dot-product unit (one ``C1 x C2`` group of ``L`` lanes) follows its
  own compressed stream with a *front pointer*; the window of reachable
  positions is ``[f, f + d1]`` and ``f`` advances by at most ``1 + d1`` per
  cycle (the buffer refill rate), which caps the ideal speedup at ``1 + d1``
  exactly as the paper states for ``db1``.  Lanes inside a unit share the
  front (they drain one stream); different units drift within the
  provisioned ABUF/BBUF -- residual overflow is charged separately by the
  engine's buffer-fullness stall model.
* Each output cycle every slot executes at most one remaining effectual op:
  first from its own stream (earliest first), otherwise from a donor stream
  at lane offset ``1..d2`` (wrapping inside the dot-product unit) and/or PE
  offset ``1..d3``, in increasing-distance priority -- the same priority
  mechanism as Bit-Tactical, which the paper adopts.  Donor reach is
  evaluated against the *donor's* front.
* Conflicting claims in a cycle are arbitrated in offset-priority rounds
  (one claim per donor stream per round), in slot order within a round --
  modeling a fixed-priority arbiter.
* A unit is done when all its effectual ops have executed *and* its front
  has drained past ``T`` (trailing zero slices still stream at window
  rate); the tile ends when the slowest unit finishes.

Masks are 4-D ``[T, L, C1, C2]``: lane borrowing (``d2``) acts along ``L``,
PE borrowing (``d3``) along ``C1``, and ``C2`` indexes independent slot
groups with no borrowing between them (used by the dual-sparse second phase,
where ``C1`` is the output-row axis and ``C2`` the output-column axis).

One kernel implements these semantics: :func:`compact_schedule_batch`
schedules a batch of same-geometry tiles, each under its own distances, in
one pass.  Per-stream effectual positions are computed once per *distinct*
mask, so a sweep that schedules one GEMM's sampled passes for many designs
pays for them once.  Tiles with donor offsets (``d2`` or ``d3`` nonzero)
share one cycle loop over the union of their offset rounds, with exact
idle-cycle skip-ahead and donor-side claim resolution (each offset is an
injective coordinate shift, so a donor can have at most one claimant per
round and no arbitration is ever needed); the ``unit``/``tile`` front
ablations run in the same loop.  Tiles without donors (``d2 == d3 == 0``)
take a closed-form per-stream recurrence instead, vectorized over the
whole batch.  Either path can record the per-cycle schedule.
:func:`compact_schedule` is a batch of one.
:func:`compact_schedule_reference` iterates element by element and is the
oracle: the kernel matches it cycle for cycle and schedule for schedule,
locked by ``tests/test_compaction_properties.py`` and the golden fixtures
in ``tests/test_engine_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

#: Padding past a stream's last op.  Positions are ``int32``: half the
#: memory of a batch-wide position table, and time steps stay far below it.
_INF = np.iinfo(np.int32).max // 2


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of scheduling one tile.

    ``cycles`` counts every output cycle including the trailing drain of the
    slowest unit.  ``busy_cycles`` counts cycles in which at least one op
    executed.  ``schedule`` (optional) maps ``[cycle, slot] -> flat original
    index`` into the ``(T, L, C1, C2)`` mask (or -1 for an idle slot); it
    stops at the last cycle that executed work.  ``borrowed_ops`` counts ops
    executed by a slot other than their own.
    """

    cycles: int
    busy_cycles: int
    executed_ops: int
    borrowed_ops: int
    schedule: np.ndarray | None = None

    @property
    def occupancy(self) -> float:
        """Executed ops per slot-cycle over the whole tile (utilization)."""
        if self.cycles == 0:
            return 0.0
        return self.executed_ops / self.cycles


@lru_cache(maxsize=None)
def _offset_priority(d2: int, d3: int) -> tuple[tuple[int, int], ...]:
    """Donor offsets (excluding the own stream) in borrowing priority order."""
    offsets = [
        (dd2, dd3)
        for dd2 in range(d2 + 1)
        for dd3 in range(d3 + 1)
        if (dd2, dd3) != (0, 0)
    ]
    offsets.sort(key=lambda o: (o[0] + o[1], o[0], o[1]))
    return tuple(offsets)


def _check_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim == 3:
        mask = mask[:, :, :, np.newaxis]
    if mask.ndim != 4:
        raise ValueError(f"mask must be 3-D or 4-D [T, L, C1(, C2)], got shape {mask.shape}")
    return mask.astype(bool, copy=False)


def compact_schedule_reference(
    mask: np.ndarray,
    d1: int = 0,
    d2: int = 0,
    d3: int = 0,
    lane_wrap: bool = True,
    return_schedule: bool = False,
    front_mode: str = "stream",
) -> CompactionResult:
    """Obviously-correct pure-Python scheduler used as a test oracle.

    Mirrors :func:`compact_schedule` exactly but iterates slots and donors
    element by element -- including, with ``return_schedule``, the recorded
    per-cycle schedule, so the property suite can assert the vectorized
    kernel's schedule array bit for bit.  Use only on small tiles.
    """
    mask = _check_mask(mask)
    t_steps, lanes, c1, c2 = mask.shape
    window = 1 + d1
    offsets = _offset_priority(d2, d3)
    if front_mode == "stream":
        def group_key(l: int, i: int, j: int) -> tuple:
            return (l, i, j)
    elif front_mode == "unit":
        def group_key(l: int, i: int, j: int) -> tuple:
            return (i, j)
    elif front_mode == "tile":
        def group_key(l: int, i: int, j: int) -> tuple:
            return ()
    else:
        raise ValueError(f"unknown front_mode {front_mode!r}")
    groups = sorted({group_key(l, i, j) for l in range(lanes) for i in range(c1) for j in range(c2)})

    remaining = {
        (t, l, i, j)
        for t in range(t_steps)
        for l in range(lanes)
        for i in range(c1)
        for j in range(c2)
        if mask[t, l, i, j]
    }

    def group_earliest(g: tuple) -> int:
        return min((t for (t, l, i, j) in remaining if group_key(l, i, j) == g), default=_INF)

    def earliest_in_window(l: int, i: int, j: int, front: int) -> tuple | None:
        for t in range(front, min(front + window, t_steps)):
            if (t, l, i, j) in remaining:
                return (t, l, i, j)
        return None

    def flat(l: int, i: int, j: int) -> int:
        return l * c1 * c2 + i * c2 + j

    n_slots = lanes * c1 * c2
    fronts = {g: 0 for g in groups}
    rows: list[list[int]] = []
    cycles = 0
    busy_cycles = 0
    borrowed = 0
    executed = 0
    while True:
        if not remaining:
            tail = max(
                int(np.ceil((t_steps - fronts[g]) / window)) if fronts[g] < t_steps else 0
                for g in groups
            )
            cycles += tail
            break
        cycles += 1
        cycle_busy = False
        row = [-1] * n_slots
        all_slots = [(l, i, j) for l in range(lanes) for i in range(c1) for j in range(c2)]

        # Phase 1: every slot claims the earliest element of its own stream.
        idle = []
        for l, i, j in all_slots:
            pick = earliest_in_window(l, i, j, fronts[group_key(l, i, j)])
            if pick is not None:
                remaining.discard(pick)
                row[flat(l, i, j)] = pick[0] * n_slots + flat(l, i, j)
                executed += 1
                cycle_busy = True
            else:
                idle.append((l, i, j))

        # Phase 2: offset rounds in priority order; one claim per donor per
        # round, arbitrated in slot order.  Donor reach uses the donor's
        # own front.
        for dd2, dd3 in offsets:
            claimed_donors: set[tuple[int, int, int]] = set()
            still_idle = []
            for l, i, j in idle:
                donor_l = (l + dd2) % lanes if lane_wrap else l + dd2
                donor_i = i + dd3
                donor = (donor_l, donor_i, j)
                pick = None
                if donor_l < lanes and donor_i < c1 and donor not in claimed_donors:
                    pick = earliest_in_window(donor_l, donor_i, j, fronts[group_key(donor_l, donor_i, j)])
                if pick is not None:
                    claimed_donors.add(donor)
                    remaining.discard(pick)
                    row[flat(l, i, j)] = pick[0] * n_slots + flat(*donor)
                    executed += 1
                    borrowed += 1
                    cycle_busy = True
                else:
                    still_idle.append((l, i, j))
            idle = still_idle
        rows.append(row)
        if cycle_busy:
            busy_cycles += 1
        for g in groups:
            fronts[g] = min(group_earliest(g), fronts[g] + window)

    schedule = None
    if return_schedule:
        schedule = np.array(rows, dtype=np.int64) if rows else np.array([], dtype=np.int64)
    return CompactionResult(
        cycles=cycles,
        busy_cycles=busy_cycles,
        executed_ops=executed,
        borrowed_ops=borrowed,
        schedule=schedule,
    )


def _stream_positions(
    masks: "list[np.ndarray]", n_slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stream sorted effectual positions of several masks, packed.

    Returns ``(positions, starts, counts)``.  Stream ``s`` of mask ``u`` is
    stream ``i = u * n_slots + s``: the time steps carrying its effectual
    ops, in increasing order, are ``positions[starts[i] :][: counts[i]]``,
    followed by one ``_INF``, so a pointer never runs into the next
    stream.  Packed rather than padded to the longest stream, the table
    stays the size of the ops themselves.  ``np.nonzero`` on the
    transpose yields entries already in (stream-major, time-ascending)
    order, and each entry's rank within its stream is pure arithmetic --
    no per-stream Python loop, no lexsort.
    """
    flats = [m.reshape(m.shape[0], n_slots) for m in masks]
    counts = np.concatenate([flat.sum(axis=0) for flat in flats])
    starts = np.cumsum(counts + 1) - (counts + 1)
    positions = np.full(int(counts.sum()) + len(counts), _INF, dtype=np.int32)
    for u, flat in enumerate(flats):
        s_sorted, t_sorted = np.nonzero(flat.T)
        own = counts[u * n_slots : (u + 1) * n_slots]
        rank = np.arange(len(s_sorted)) - np.repeat(np.cumsum(own) - own, own)
        positions[starts[u * n_slots + s_sorted] + rank] = t_sorted
    return positions, starts, counts


def _per_tile(value: "int | Sequence[int]", n_tiles: int) -> np.ndarray:
    """A distance given once for the whole batch or once per tile."""
    return np.broadcast_to(np.asarray(value, dtype=np.int64), (n_tiles,))


def compact_schedule_batch(
    masks: "Sequence[np.ndarray]",
    d1: "int | Sequence[int]" = 0,
    d2: "int | Sequence[int]" = 0,
    d3: "int | Sequence[int]" = 0,
    lane_wrap: bool = True,
    record: bool = False,
    front_mode: str = "stream",
) -> list[CompactionResult]:
    """Schedule a batch of same-geometry tile masks, each under its own distances.

    The one scheduling kernel: every result equals what
    :func:`compact_schedule_reference` gives for that mask and its
    distances, cycle for cycle and (with ``record``) schedule for schedule.
    Each of ``d1``, ``d2``, ``d3`` is one int for the whole batch or a
    sequence with one entry per mask.  Masks must agree on ``(L, C1, C2)``;
    time depths may differ (each tile keeps its own drain horizon).

    Masks are deduplicated by identity, so handing the same array for many
    designs computes its stream positions once.  Tiles with donor offsets
    run through one shared cycle loop (:func:`_schedule_borrowing`); tiles
    with ``d2 == d3 == 0`` take the closed form
    (:func:`_schedule_no_borrowing`).  With ``record`` each result carries
    its ``schedule`` (see :class:`CompactionResult`; an empty ``int64``
    array when no op executes); otherwise ``schedule`` is ``None``.
    ``front_mode`` ``"unit"`` or ``"tile"`` shares one front pointer per
    dot-product unit or per tile instead of per stream (ablation studies
    only; every tile then runs the cycle loop).
    """
    if front_mode not in ("stream", "unit", "tile"):
        raise ValueError(f"unknown front_mode {front_mode!r}")
    if not masks:
        return []
    n_tiles = len(masks)
    distinct: list[np.ndarray] = []
    seen: dict[int, int] = {}
    mask_of = np.empty(n_tiles, dtype=np.int64)
    for b, mask in enumerate(masks):
        u = seen.get(id(mask))
        if u is None:
            u = seen[id(mask)] = len(distinct)
            distinct.append(_check_mask(mask))
        mask_of[b] = u
    lanes, c1, c2 = distinct[0].shape[1:]
    for m in distinct[1:]:
        if m.shape[1:] != (lanes, c1, c2):
            raise ValueError(
                f"batched masks must agree on (L, C1, C2): "
                f"{m.shape[1:]} vs {(lanes, c1, c2)}"
            )
    n_slots = lanes * c1 * c2
    if n_slots == 0:
        empty = np.array([], dtype=np.int64) if record else None
        return [CompactionResult(0, 0, 0, 0, schedule=empty) for _ in masks]
    d1_t, d2_t, d3_t = (_per_tile(d, n_tiles) for d in (d1, d2, d3))

    depths = np.array([m.shape[0] for m in distinct], dtype=np.int64)
    positions, starts, counts = _stream_positions(distinct, n_slots)
    ops = counts.reshape(len(distinct), n_slots).sum(axis=1)[mask_of]

    results: list[CompactionResult] = [None] * n_tiles  # type: ignore[list-item]
    no_donors = (d2_t == 0) & (d3_t == 0) & (front_mode == "stream")
    for tiles in (np.flatnonzero(no_donors), np.flatnonzero(~no_donors)):
        if len(tiles) == 0:
            continue
        streams = (mask_of[tiles, np.newaxis] * n_slots + np.arange(n_slots)).ravel()
        depth = depths[mask_of[tiles]]
        if no_donors[tiles[0]]:
            out = _schedule_no_borrowing(
                positions, starts[streams], counts[streams], depth, d1_t[tiles],
                n_slots, record,
            )
        else:
            out = _schedule_borrowing(
                positions, starts[streams], int(ops[tiles].sum()), depth, d1_t[tiles],
                (lanes, c1, c2), _batch_rounds(d2_t[tiles], d3_t[tiles]),
                lane_wrap, record, front_mode,
            )
        for b, cycles, busy, borrowed, schedule in zip(tiles, *out):
            results[b] = CompactionResult(
                cycles=int(cycles),
                busy_cycles=int(busy),
                executed_ops=int(ops[b]),
                borrowed_ops=int(borrowed),
                schedule=schedule,
            )
    return results


def _schedule_no_borrowing(
    positions: np.ndarray,
    offsets: np.ndarray,
    stream_counts: np.ndarray,
    depth: np.ndarray,
    d1_tile: np.ndarray,
    n_slots: int,
    record: bool,
) -> tuple:
    """Closed-form scheduling for tiles with ``d2 == d3 == 0``.

    With no donor offsets the streams are fully independent, so the cycle
    loop collapses to a recurrence over each stream's op ranks, evaluated
    vectorized across every stream of every tile.  With window
    ``w = 1 + d1`` (per tile), the op of rank ``r`` at position ``p_r``
    executes at

        ``c_r = c_{r-1} + 1 + k_r``,  ``k_r = max(0, ceil((p_r - d1 - g_{r-1}) / w))``

    where ``g_r`` is the front right after the cycle that executed rank
    ``r``.  The front advances one window per cycle but caps at the next
    unexecuted position (the cycle loop's ``min(earliest, front + w)``):

        ``g_r = min(p_{r+1}, min(p_r, g_{r-1} + k_r * w) + w)``

    Dropping the inner cap undercounts whenever a long gap follows a dense
    prefix -- the front is *held* at the gap's start, it does not free-run.
    After a stream's last op its front does free-run at ``w`` per cycle, so
    the drain tail folds into ``c_s + ceil((T - g_s) / w)`` per stream,
    bounded below by the tile's last execution cycle.

    Stream ``s`` of the sub-batch starts at ``positions[offsets[s]]`` and
    holds ``stream_counts[s]`` ops.  Returns per-tile ``(cycles,
    busy_cycles, borrowed_ops, schedules)``.
    """
    n_tiles = len(depth)
    window = np.repeat(1 + d1_tile, n_slots)
    d1 = window - 1
    tile_of = np.repeat(np.arange(n_tiles), n_slots)
    local = np.tile(np.arange(n_slots, dtype=np.int32), n_tiles)
    cycles_of = np.zeros(len(offsets), dtype=np.int64)
    fronts = np.zeros(len(offsets), dtype=np.int64)
    # Execution cycles never exceed T (borrowing is never slower than
    # dense -- an invariant the property suite asserts for every draw), so
    # T-sized scatter targets cover every cycle index.
    t_max = int(depth.max())
    busy = np.zeros((n_tiles, t_max + 1), dtype=bool)
    schedule = np.full((n_tiles, t_max, n_slots), -1, dtype=np.int32) if record else None
    live = np.flatnonzero(stream_counts)
    rank = 0
    while len(live):
        at = offsets[live] + rank
        pos = positions[at]
        front = fronts[live]
        w = window[live]
        wait = np.maximum(-((d1[live] + front - pos) // w), 0)
        cyc = cycles_of[live] + 1 + wait
        cycles_of[live] = cyc
        held = np.minimum(pos, front + wait * w)
        fronts[live] = np.minimum(positions[at + 1], held + w)
        busy[tile_of[live], cyc] = True
        if record:
            schedule[tile_of[live], cyc - 1, local[live]] = pos * n_slots + local[live]
        rank += 1
        live = live[stream_counts[live] > rank]
    last = cycles_of.reshape(n_tiles, n_slots).max(axis=1)
    drained = cycles_of + np.maximum(-((fronts - np.repeat(depth, n_slots)) // window), 0)
    cycles = np.maximum(last, drained.reshape(n_tiles, n_slots).max(axis=1))
    if record:
        schedules = [
            schedule[b, : last[b]].astype(np.int64) if last[b] else np.array([], dtype=np.int64)
            for b in range(n_tiles)
        ]
    else:
        schedules = [None] * n_tiles
    return cycles, busy.sum(axis=1), np.zeros(n_tiles, dtype=np.int64), schedules


def _batch_rounds(
    d2_tile: np.ndarray, d3_tile: np.ndarray
) -> list[tuple[int, int, np.ndarray | None]]:
    """The donor rounds of a batch: the union of the tiles' offsets.

    Returns ``(dd2, dd3, has)`` in priority order, where ``has`` masks the
    tiles that own the offset (``None`` when all do).  The priority order
    is total, so every tile still sees its own offsets in its own order.
    """
    rounds = []
    for dd2, dd3 in _offset_priority(int(d2_tile.max()), int(d3_tile.max())):
        has = (d2_tile >= dd2) & (d3_tile >= dd3)
        if has.all():
            rounds.append((dd2, dd3, None))
        elif has.any():
            rounds.append((dd2, dd3, has[:, np.newaxis, np.newaxis, np.newaxis]))
    return rounds


def _shift(
    src: np.ndarray, out: np.ndarray, dd2: int, dd3: int, lane_wrap: bool, to_receiver: bool
) -> None:
    """Move per-slot values along one donor offset, on ``[B, L, C1, C2]`` views.

    Slot ``(l, i)`` borrows from donor ``(l + dd2, i + dd3)`` (the lane
    wrapping inside the unit under ``lane_wrap``).  With ``to_receiver``
    each receiver gets its donor's value; otherwise each donor gets its
    receiver's.  Slots without a partner get 0.  The offset is a
    coordinate shift, so this is two slice copies -- no gather.
    """
    lanes, c1 = src.shape[1], src.shape[2]
    out[...] = 0
    if dd3 >= c1 or (dd2 >= lanes and not lane_wrap):
        return
    shift = dd2 % lanes if lane_wrap else dd2
    recv = (slice(None), slice(0, lanes - shift), slice(0, c1 - dd3))
    donor = (slice(None), slice(shift, lanes), slice(dd3, c1))
    if to_receiver:
        out[recv] = src[donor]
    else:
        out[donor] = src[recv]
    if lane_wrap and shift:
        recv = (slice(None), slice(lanes - shift, lanes), slice(0, c1 - dd3))
        donor = (slice(None), slice(0, shift), slice(dd3, c1))
        if to_receiver:
            out[recv] = src[donor]
        else:
            out[donor] = src[recv]


def _schedule_borrowing(
    positions: np.ndarray,
    offsets: np.ndarray,
    total_ops: int,
    depth: np.ndarray,
    d1_tile: np.ndarray,
    geometry: tuple[int, int, int],
    rounds: list,
    lane_wrap: bool,
    record: bool,
    front_mode: str,
) -> tuple:
    """The cycle loop: tiles with donor offsets, or any front mode but ``stream``.

    Every per-cycle quantity is computed over all streams of all tiles at
    once, and donor claims are resolved on the *donor* side: a donor
    donates exactly when its receiver is idle and the donor's next op sits
    inside its own window -- the same test as its phase-1 condition.  So
    a donation implies phase-1 work in the same tile, a tile is busy in a
    cycle exactly when it has phase-1 work, and a cycle with no phase-1
    work anywhere is fully idle: whole runs of such cycles are jumped in
    closed form (the ``min(earliest, f + w)`` front advance is absorbing
    under composition).  Each offset is an injective coordinate shift, so
    a donor has at most one claimant per round and no arbitration is ever
    needed; the claims move between slots by slice copies (:func:`_shift`).

    Fronts are per stream, per dot-product unit (``unit``: the slots that
    share ``(C1, C2)``) or per tile; a front advances to the earliest
    unexecuted op of its group, capped at one window per cycle.

    All tiles start at cycle 0 and share the cycle counter, so a tile's
    cycle count is the last cycle it was busy in.  After that its fronts
    free-run at one window per cycle, which lets the drain tail be taken
    once at the end against each tile's own horizon.

    Stream ``s`` of the sub-batch starts at ``positions[offsets[s]]``.
    Returns per-tile ``(cycles, busy_cycles, borrowed_ops, schedules)``.
    """
    n_tiles = len(depth)
    n_streams = len(offsets)
    n_slots = n_streams // n_tiles
    grid = (n_tiles, *geometry)
    # Fronts per group: ``per_tile`` groups in each tile, stream s in group
    # ``group_of[s]`` (``None``: one group per stream).  Per-stream arrays
    # are few and mostly int32: at batch width each is 100 KB or more, and
    # the heap keeps a batch's working set resident after the call.
    per_tile = {"stream": n_slots, "unit": n_slots // geometry[0], "tile": 1}[front_mode]
    d1 = np.repeat(d1_tile, per_tile).astype(np.int32)
    group_of = None
    if per_tile != n_slots:
        slot = np.arange(n_streams)
        group_of = slot // n_slots * per_tile + slot % n_slots % per_tile
    local = np.tile(np.arange(n_slots, dtype=np.int32), n_tiles) if record else None

    def earliest() -> np.ndarray:
        if group_of is None:
            return next_pos
        first = np.full(len(d1), _INF, dtype=np.int32)
        np.minimum.at(first, group_of, next_pos)
        return first

    # ``idx`` (taking over ``offsets``) is each stream's pointer into the
    # packed ``positions``, so every pointer advance is one in-place add
    # and every stream lookup is one flat gather.  Cycle-frequency
    # intermediates live in preallocated buffers: at batch width the loop
    # is allocation-bound before it is compute-bound.
    idx = offsets
    next_pos = positions[idx]
    fronts = np.zeros(len(d1), dtype=np.int32)
    limit = np.empty(n_streams, dtype=np.int32)
    own = np.empty(n_streams, dtype=bool)
    ready = np.empty(n_streams, dtype=bool)
    idle = np.empty(n_streams, dtype=bool)
    donates = np.empty(n_streams, dtype=bool)
    received = np.empty(n_streams, dtype=bool)
    busy = np.zeros(n_tiles, dtype=np.int64)
    last = np.zeros(n_tiles, dtype=np.int64)
    borrowed = np.zeros(n_tiles, dtype=np.int64)
    pulled = np.empty(n_streams, dtype=np.int32) if record else None
    chunks: list[np.ndarray] = []
    cycle = 0
    remaining = total_ops
    while remaining:
        if group_of is None:
            np.add(fronts, d1, out=limit)
        else:
            np.take(fronts + d1, group_of, out=limit)
        np.less_equal(next_pos, limit, out=own)
        n_own = int(np.count_nonzero(own))
        if n_own == 0:
            # Every stream is idle: jump to the next cycle any group has
            # window work (exhausted streams sit at _INF).
            first = earliest()
            waiting = first < _INF
            gap = first - fronts
            gap -= d1
            jump = int((-((-gap[waiting]) // (d1[waiting] + 1))).min())
            cycle += jump
            fronts += d1 * jump
            fronts += jump
            np.minimum(first, fronts, out=fronts)
            if record:
                chunks.append(np.full((jump, n_streams), -1, dtype=np.int32))
            continue

        # Phase 1: every slot claims the earliest remaining op of its own
        # stream that lies inside its window.
        cycle += 1
        tile_busy = own.reshape(n_tiles, n_slots).any(axis=1)
        busy += tile_busy
        last[tile_busy] = cycle
        if record:
            row = np.where(own, next_pos * n_slots + local, -1)
        remaining -= n_own
        idx += own
        np.take(positions, idx, out=next_pos)
        np.less_equal(next_pos, limit, out=ready)
        np.logical_not(own, out=idle)

        # Phase 2: one donor claim per offset round, judged against the
        # donor's own front and its post-phase-1 stream position.
        for k, (dd2, dd3, has) in enumerate(rounds, start=1):
            _shift(idle.reshape(grid), donates.reshape(grid), dd2, dd3, lane_wrap, False)
            if has is not None:
                donates.reshape(grid)[...] &= has
            donates &= ready
            donors = np.flatnonzero(donates)
            if len(donors) == 0:
                continue
            remaining -= len(donors)
            borrowed += np.bincount(donors // n_slots, minlength=n_tiles)
            if record or k < len(rounds):
                _shift(donates.reshape(grid), received.reshape(grid), dd2, dd3, lane_wrap, True)
            if record:
                _shift(
                    (next_pos * n_slots + local).reshape(grid),
                    pulled.reshape(grid), dd2, dd3, lane_wrap, True,
                )
                np.copyto(row, pulled, where=received)
            idx[donors] += 1
            next_pos[donors] = positions[idx[donors]]
            ready[donors] = next_pos[donors] <= limit[donors]
            if k < len(rounds):
                np.logical_not(received, out=received)
                idle &= received

        if record:
            chunks.append(row[np.newaxis, :])
        # Front advance: up to the group's earliest unexecuted op, capped
        # at one window of refill per cycle.
        fronts += d1
        fronts += 1
        np.minimum(earliest(), fronts, out=fronts)

    # Trailing drain: rewind each tile's fronts to its last busy cycle,
    # then units behind T keep streaming zero slices at window rate and
    # the tile ends when the slowest one crosses T.  The tail is
    # ``ceil(behind / w)`` for the furthest-behind group, when positive.
    window = 1 + d1_tile
    min_front = fronts.reshape(n_tiles, per_tile).min(axis=1) - (cycle - last) * window
    cycles = last + np.maximum(-((min_front - depth) // window), 0)
    if record:
        rows = np.concatenate(chunks) if chunks else None
        schedules = [
            rows[: last[b], b * n_slots : (b + 1) * n_slots].astype(np.int64)
            if last[b]
            else np.array([], dtype=np.int64)
            for b in range(n_tiles)
        ]
    else:
        schedules = [None] * n_tiles
    return cycles, busy, borrowed, schedules


def compact_schedule(
    mask: np.ndarray,
    d1: int = 0,
    d2: int = 0,
    d3: int = 0,
    lane_wrap: bool = True,
    return_schedule: bool = False,
    front_mode: str = "stream",
) -> CompactionResult:
    """Schedule a tile mask under borrowing distances ``(d1, d2, d3)``.

    See the module docstring for the execution semantics.  A batch of one
    of :func:`compact_schedule_batch`, so it matches
    :func:`compact_schedule_reference` cycle for cycle.

    Args:
        mask: boolean effectual-op mask, shape ``[T, L, C1]`` or
            ``[T, L, C1, C2]``.
        d1: time lookahead (window depth ``1 + d1``).
        d2: lane lookaside distance (along ``L``).
        d3: neighbouring-PE distance (along ``C1``).
        lane_wrap: whether lane borrowing wraps around inside the
            dot-product unit (the rotation shuffler implies a ring).
        return_schedule: also record which original op each slot executed
            each cycle (needed by the dual-sparse preprocessing phase);
            without it ``schedule`` is ``None``.
        front_mode: ``"stream"`` (per-stream fronts, the model), or the
            ``"unit"``/``"tile"`` ablations.

    Returns:
        A :class:`CompactionResult`.
    """
    return compact_schedule_batch(
        [mask], d1, d2, d3,
        lane_wrap=lane_wrap, record=return_schedule, front_mode=front_mode,
    )[0]


def unpack_schedule(
    schedule: np.ndarray, shape: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split flat schedule entries back into ``(t, l, c1, c2)`` coordinates.

    Entries of -1 (idle) map to coordinate -1 in every component.
    """
    t_steps, lanes, c1, c2 = shape
    n_slots = lanes * c1 * c2
    idle = schedule < 0
    t = schedule // n_slots
    stream = schedule % n_slots
    lane = stream // (c1 * c2)
    i1 = (stream // c2) % c1
    i2 = stream % c2
    for arr in (t, lane, i1, i2):
        arr[idle] = -1
    return t, lane, i1, i2
