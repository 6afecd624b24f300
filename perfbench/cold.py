"""The cold workloads: one experiment evaluated serially from an empty cache.

``fig8-cold`` is ``examples/experiments/fig8.json`` and ``sweep-b-cold`` is
``examples/experiments/fig5_sparse_b.json`` plus Griffin and SparTen (so its
paper error has a reference pair).  Both are copied here rather than read
from ``examples/`` so that the benchmark's input cannot drift with the
examples.  The workload seed shuffles the order in which the designs are
evaluated; the simulation seed stays the published one, so the simulated
results -- and with them ``paper_err_pct`` and the work per run -- do not
depend on the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass
from typing import Callable

from measure import HostSpeed, fresh_dir, median, peak_rss_mb, session_setup_s, tail

#: Sampling of both paper experiments (their ``options`` block).
PAPER_OPTIONS = {"passes_per_gemm": 3, "max_t_steps": 64, "seed": 2022}

#: Fig. 8: Griffin is this much more power-efficient than SparTen, per
#: category (the row tags of ``repro.dse.report.sweep_rows``).
PAPER_RATIOS = {"dense": 1.2, "B": 3.0, "A": 3.1, "AB": 1.4}


def fig8_spec(seed: int) -> dict:
    designs = ["Baseline", "Sparse.B*", "Sparse.A*", "Sparse.AB*",
               "Griffin", "BitTactical", "TensorDash", "SparTen"]
    random.Random(seed).shuffle(designs)
    return {
        "name": "fig8",
        "designs": designs,
        "categories": ["DNN.dense", "DNN.B", "DNN.A", "DNN.AB"],
        "quick": True,
        "options": PAPER_OPTIONS,
    }


def sweep_b_spec(seed: int) -> dict:
    from repro.dse.explorer import design_space

    designs = [config.label for config in design_space("b")] + ["Griffin", "SparTen"]
    random.Random(seed).shuffle(designs)
    return {
        "name": "fig5-sparse-b",
        "designs": designs,
        "categories": ["DNN.B", "DNN.dense"],
        "quick": True,
        "options": PAPER_OPTIONS,
    }


def paper_error_pct(rows: list[dict]) -> float:
    """Mean absolute % error of Griffin/SparTen TOPS/W against the paper,
    over the categories the rows carry."""
    by_label = {row["Config"]: row for row in rows}
    griffin, sparten = by_label["Griffin"], by_label["SparTen"]
    errors = []
    for tag, paper in PAPER_RATIOS.items():
        key = f"{tag} TOPS/W"
        if key in griffin:
            errors.append(abs(griffin[key] / sparten[key] - paper) / paper)
    return 100.0 * sum(errors) / len(errors)


def rows_digest(rows: list[dict]) -> str:
    """Digest of every simulated speedup and efficiency, full precision,
    independent of the design order."""
    ordered = sorted(rows, key=lambda row: row["Config"])
    payload = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check_fig8(rows: list[dict]) -> list[str]:
    """Griffin wins the worst-category minimax (benchmarks/test_fig8_overall)."""
    tags = [tag for tag in PAPER_RATIOS]
    best = {tag: max(row[f"{tag} TOPS/W"] for row in rows) for tag in tags}
    minimax = {
        row["Config"]: min(row[f"{tag} TOPS/W"] / best[tag] for tag in tags)
        for row in rows
    }
    failures = [
        f"Griffin's worst-category score {minimax['Griffin']:.3f} does not "
        f"beat {rival}'s {minimax[rival]:.3f}"
        for rival in ("Sparse.A*", "Sparse.AB*", "TensorDash", "SparTen", "Baseline")
        if not minimax["Griffin"] > minimax[rival]
    ]
    if not minimax["Griffin"] > 0.6:
        failures.append(f"Griffin's worst-category score {minimax['Griffin']:.3f} <= 0.6")
    return failures


def check_sweep_b(rows: list[dict]) -> list[str]:
    """The published Sparse.B* scores >= 0.85x the sweep's best (Table VI)."""
    def score(row):
        return row["B TOPS/W"] * row["dense TOPS/W"]

    swept = [row for row in rows if row["Config"].startswith("B(")]
    best = max(swept, key=score)
    star = next(row for row in swept if row["Config"] == "B(4,0,1,on)")
    if score(star) >= 0.85 * score(best):
        return []
    return [f"Sparse.B* scores {score(star):.1f} < 0.85 x {best['Config']}'s {score(best):.1f}"]


@dataclass(frozen=True)
class ColdWorkload:
    name: str
    spec: Callable[[int], dict]  # workload seed -> experiment spec
    check: Callable[[list[dict]], list[str]]  # rows -> failure messages


WORKLOADS = {
    "fig8-cold": ColdWorkload("fig8-cold", fig8_spec, check_fig8),
    "sweep-b-cold": ColdWorkload("sweep-b-cold", sweep_b_spec, check_sweep_b),
}


@dataclass
class Rep:
    seconds: float  # reference-host seconds (see measure.HostSpeed)
    wall_s: float
    rows: list[dict]
    cache_dir: str


def cold_rep(spec: dict, probed: bool = True, mark=None) -> Rep:
    """One evaluation from an empty cache directory and cleared memos.

    ``probed=False`` times plain wall seconds, so that no probe time lands
    in the spans of a traced repetition.  ``mark`` is called once the memos
    are cleared, just before the evaluation.
    """
    from repro.api import Session
    from repro.sim.engine import clear_memo_cache

    cache_dir = fresh_dir("cold")
    clear_memo_cache()
    session = Session(workers=0, cache_dir=cache_dir)
    if mark is not None:
        mark()
    if probed:
        with HostSpeed() as timer:
            result = session.run(spec)
        seconds, wall_s = timer.seconds, timer.wall_s
    else:
        start = time.perf_counter()
        result = session.run(spec)
        seconds = wall_s = time.perf_counter() - start
    rows = json.loads(json.dumps(result.rows()))
    return Rep(seconds, wall_s, rows, str(cache_dir))


def _verify(workload: ColdWorkload, reps: list[Rep], report) -> tuple[int, int]:
    """Checks over all reps: ``(attempted, failed)`` operations.

    Every design evaluation is one operation; so is each correctness check.
    """
    failures = []
    digests = {rows_digest(rep.rows) for rep in reps}
    if len(digests) != 1:
        failures.append(f"sim_digest differs across repetitions: {sorted(digests)}")
    for rep in reps:
        failures += workload.check(rep.rows)
    for message in failures:
        report(f"CHECK FAILED: {message}")
    attempted = sum(len(rep.rows) for rep in reps) + 1 + len(reps)
    report(f"sim_digest {sorted(digests)[0]} over {len(reps)} repetition(s)")
    return attempted, len(failures)


def run(name: str, seed: int, seconds: float, trace: bool, report) -> dict:
    """Measure one cold workload; returns the benchmark's result object."""
    workload = WORKLOADS[name]
    spec = workload.spec(seed)
    if trace:
        return _run_traced(workload, spec, report)
    setup, setup_wall = session_setup_s()
    reps: list[Rep] = []
    window = time.perf_counter()
    while not reps or time.perf_counter() - window < seconds:
        reps.append(cold_rep(spec))
        shutil.rmtree(reps[-1].cache_dir)
        if len(reps) == 1:
            rss_mb = peak_rss_mb()  # later repetitions reuse freed memory
    attempted, failed = _verify(workload, reps, report)

    latencies = [rep.seconds * 1000.0 for rep in reps]
    tail_ms, tail_pct, n = tail(latencies)
    designs = sum(len(rep.rows) for rep in reps)
    report(
        f"{name}: {len(reps)} cold repetition(s) of {len(reps[0].rows)} designs, "
        f"wall {', '.join(f'{rep.wall_s:.3f}' for rep in reps)} s, reference-host "
        f"{', '.join(f'{rep.seconds:.3f}' for rep in reps)} s; latency n={n}, "
        f"tail = p{tail_pct:.1f}; set-up wall {median(setup_wall):.3f} s (median of "
        f"{len(setup_wall)})"
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "run_s": (median([rep.seconds for rep in reps]), "s"),
            "p50_ms": (median(latencies), "ms"),
            "tail_ms": (tail_ms, "ms"),
            "slo_rps": (designs / sum(rep.seconds for rep in reps), "1/s"),
            "ok_pct": (100.0 * (attempted - failed) / attempted, "%"),
            "peak_rss_mb": (rss_mb, "MiB"),
            "paper_err_pct": (paper_error_pct(reps[0].rows), "%"),
        },
    }


def _run_traced(workload: ColdWorkload, spec: dict, report) -> dict:
    """Per-layer metrics from repetitions in the order untraced, traced,
    traced, untraced, all in wall seconds.

    The layers are folded over the second traced repetition only; the
    overhead compares the two traced repetitions with the two untraced ones
    around them, so a steady drift of the host's speed cancels out.
    """
    from layers import Tracer, disk_usage, install

    tracer = Tracer()
    first = cold_rep(spec, probed=False)
    uninstall = install(tracer)
    try:
        traced = [cold_rep(spec, probed=False)]
        traced.append(cold_rep(spec, probed=False, mark=tracer.mark))
    finally:
        uninstall()
    layers = tracer.fold()
    last = cold_rep(spec, probed=False)
    reps = [first, *traced, last]
    attempted, failed = _verify(workload, reps, report)
    files, size = disk_usage(traced[-1].cache_dir)
    layers["cache.disk_files"] = files
    layers["cache.disk_bytes"] = size
    plain_s = first.seconds + last.seconds
    traced_s = sum(rep.seconds for rep in traced)
    layers["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    report(
        f"{workload.name}: untraced {first.seconds:.3f} + {last.seconds:.3f} s, "
        f"traced {traced[0].seconds:.3f} + {traced[1].seconds:.3f} s"
    )
    return {"attempted": attempted, "failed": failed, "layers": layers}
