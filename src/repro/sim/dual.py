"""Dual-sparsity scheduling: the seven-step pipeline of Figure 3.

Supporting sparsity in both matrices composes the two single-sparse
mechanisms:

1. **Preprocess B** offline with the ``(db1, db2, db3)`` distances into a
   compressed schedule plus metadata (steps 1 of Fig. 3).
2. **Filter** the on-the-fly A zero mask through that schedule: an operation
   survives only if the B element occupying the compressed slot is matched
   by a nonzero A element at the *original* B coordinates (steps 2-3).
3. **Arbitrate and select** the surviving pairs on the fly with the
   ``(da1, da2, da3)`` distances over the compressed time axis (steps 4-7).

The ABUF reach of the composed design spans ``(1+da1)`` compressed steps,
each covering up to ``(1+db1)`` original positions -- hence the paper's ABUF
depth ``L = (1+da1)(1+db1)`` and the combined ideal speedup cap of ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import ArchConfig
from repro.sim.compaction import (
    CompactionResult,
    compact_schedule,
    compact_schedule_batch,
    unpack_schedule,
)


@dataclass(frozen=True)
class DualResult:
    """Cycle outcome of a dual-sparse tile."""

    cycles: int
    b_schedule_len: int
    executed_pairs: int
    borrowed_ops: int


def _check_pair(a_mask: np.ndarray, b_mask: np.ndarray) -> None:
    if b_mask.shape[0] != a_mask.shape[0] or b_mask.shape[1] != a_mask.shape[1]:
        raise ValueError(
            f"A {a_mask.shape} and B {b_mask.shape} masks disagree on (T, L)"
        )


def filtered_pair_mask(
    a_mask: np.ndarray, b_mask: np.ndarray, config: ArchConfig
) -> tuple[np.ndarray, int]:
    """Build the per-PE effectual-pair mask over B's compressed schedule.

    Args:
        a_mask: activation nonzero mask, shape ``[T, L, M]`` (identical for
            every output column).
        b_mask: weight nonzero mask, shape ``[T, L, N]`` (identical for
            every output row).
        config: architecture providing the ``db`` distances.

    Returns:
        ``(pair_mask, schedule_len)`` where ``pair_mask`` has shape
        ``[U, L, M, N]``: slot ``(l, m, n)`` at compressed step ``u`` is
        effectual iff the B element scheduled there is paired with a nonzero
        A element.
    """
    _check_pair(a_mask, b_mask)
    b_result = compact_schedule(
        b_mask[:, :, :, np.newaxis], *config.b.as_tuple(), return_schedule=True
    )
    return _pair_mask(a_mask, b_mask, b_result), b_result.cycles


def _pair_mask(
    a_mask: np.ndarray, b_mask: np.ndarray, b_result: CompactionResult
) -> np.ndarray:
    """Filter ``a_mask`` through B's recorded schedule (steps 2-3)."""
    t_steps, lanes, m_dim = a_mask.shape
    n_dim = b_mask.shape[2]
    schedule = b_result.schedule
    if len(schedule) == 0:
        # Nothing scheduled (all-zero B): the drain still streams.
        return np.zeros((b_result.cycles, lanes, m_dim, n_dim), dtype=bool)
    t_orig, l_orig, n_orig, _ = unpack_schedule(
        schedule, (t_steps, lanes, n_dim, 1)
    )
    u_steps = schedule.shape[0]
    # Slot layout of the B schedule is (lane, n); look the paired A element
    # up at B's original (t, lane) coordinates for every output row m.
    occupied = t_orig >= 0
    t_safe = np.where(occupied, t_orig, 0)
    l_safe = np.where(occupied, l_orig, 0)
    paired = a_mask[t_safe, l_safe]  # [U, L*N slots, M]
    paired &= occupied[:, :, np.newaxis]
    pair_mask = paired.reshape(u_steps, lanes, n_dim, m_dim).transpose(0, 1, 3, 2)
    if b_result.cycles > u_steps:
        # The B drain tail (trailing zero slices streaming at window rate)
        # still occupies compressed steps with no work in them.
        tail = np.zeros((b_result.cycles - u_steps,) + pair_mask.shape[1:], dtype=bool)
        pair_mask = np.concatenate([pair_mask, tail], axis=0)
    return pair_mask


def dual_sparse_cycles(
    a_mask: np.ndarray, b_mask: np.ndarray, config: ArchConfig
) -> DualResult:
    """Cycles to execute one dual-sparse tile under ``config``.

    The A-side compaction runs over the compressed time axis with the
    ``da`` distances: lane lookaside along ``L`` and neighbour borrowing
    along the output-row axis ``M`` (each output column ``n`` keeps its own
    stream; there is no ``da``-borrowing across columns).  A batch of one
    of :func:`dual_sparse_cycles_batch`.
    """
    return dual_sparse_cycles_batch([(a_mask, b_mask)], [config])[0]


def dual_sparse_cycles_batch(
    pairs: "Sequence[tuple[np.ndarray, np.ndarray]]",
    configs: "Sequence[ArchConfig]",
) -> list[DualResult]:
    """:func:`dual_sparse_cycles` over many same-geometry tiles at once.

    ``configs`` holds one architecture per pair.  Two kernel calls serve
    the whole batch: B preprocessing in record mode over the distinct
    (B mask, ``db``) tiles, then the A-side cycle loop over the
    ``[U, L, M, N]`` pair masks (the compressed depths ``U`` may differ
    per tile).  Pairs that share A and B masks and ``db``
    distances share one pair-mask object, so the A-side kernel computes
    its stream positions once.  Results are identical to mapping
    :func:`dual_sparse_cycles` over the pairs.
    """
    if len(configs) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(configs)} configs")
    if not pairs:
        return []
    jobs: dict[tuple, int] = {}
    b_views: dict[int, np.ndarray] = {}
    job_of = []
    for (a_mask, b_mask), cfg in zip(pairs, configs):
        _check_pair(a_mask, b_mask)
        job = (id(b_mask), cfg.b.as_tuple())
        if job not in jobs:
            jobs[job] = len(jobs)
            if id(b_mask) not in b_views:
                b_views[id(b_mask)] = b_mask[:, :, :, np.newaxis]
        job_of.append(jobs[job])
    db1, db2, db3 = zip(*(db for _, db in jobs))
    b_results = compact_schedule_batch(
        [b_views[b_id] for b_id, _ in jobs], db1, db2, db3, record=True
    )
    pair_masks: dict[tuple, np.ndarray] = {}
    masks = []
    for (a_mask, b_mask), job in zip(pairs, job_of):
        key = (id(a_mask), job)
        if key not in pair_masks:
            pair_masks[key] = _pair_mask(a_mask, b_mask, b_results[job])
        masks.append(pair_masks[key])
    da1, da2, da3 = zip(*(cfg.a.as_tuple() for cfg in configs))
    a_results = compact_schedule_batch(masks, da1, da2, da3)
    return [
        DualResult(
            cycles=res.cycles,
            b_schedule_len=b_results[job].cycles,
            executed_pairs=res.executed_ops,
            borrowed_ops=res.borrowed_ops,
        )
        for res, job in zip(a_results, job_of)
    ]
