#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs the workload untraced and then traced and reports the
per-layer metrics (README.md lists both).  Human-readable lines come first;
the last line of standard output is the result object::

    {"correct": true, "attempted": 34, "failed": 0,
     "metrics": {"run_s": {"value": 9.87, "unit": "s"}, ...}}

The benchmark measures the program in the checkout it sits in: it exits
with status 2, printing no result, when ``src/repro`` is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

from measure import ROOT, core_probe_main, probe, remove_scratch

WORKLOADS = ("fig8-cold", "sweep-b-cold", "serve-mix")

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = [
    (f"{layer}.{stat}", unit, "lower")
    for layer in ("sparsity.weight_field", "sparsity.act_field", "sparsity.tile_mask")
    for stat, unit in (("calls", "count"), ("busy_s", "s"))
] + [
    (f"{layer}.{stat}", unit, "lower")
    for layer in ("sched.compact_batch", "sched.dual_batch")
    for stat, unit in (("calls", "count"), ("tiles", "count"), ("busy_s", "s"),
                       ("us_per_tile", "us"))
] + [
    (f"{layer}.{stat}", unit, "lower")
    for layer in ("engine.simulate_network", "engine.simulate_layer")
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("engine.network_key.calls", "count", "lower"),
    ("engine.network_key.busy_s", "s", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
] + [
    (f"cache.{op}.{stat}", unit, "lower")
    for op in ("get", "put", "get_network", "put_network")
    for stat, unit in (("calls", "count"), ("busy_s", "s"))
] + [
    ("cache.layer_hit_ratio", "ratio", "higher"),
    ("cache.network_hit_ratio", "ratio", "higher"),
    ("cache.disk_files", "count", "lower"),
    ("cache.disk_bytes", "bytes", "lower"),
] + [
    (f"{layer}.{stat}", unit, "lower")
    for layer in ("dse.evaluate_design", "api.evaluate")
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("api.search.calls", "count", "lower"),
    ("api.search.busy_s", "s", "lower"),
    ("api.search.evaluated", "count", "lower"),
    ("api.search.screened", "count", "lower"),
    ("surrogate.predict_network.calls", "count", "lower"),
    ("surrogate.predict_network.busy_s", "s", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.compute_ms", "ms", "lower"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.requests", "count", "higher"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.ok", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("loadgen.late_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def report(line: str) -> None:
    print(line, flush=True)


def _require_program() -> None:
    """Import the checkout's own ``repro`` or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)


def _finite(value: float) -> float:
    """Failed requests count as infinitely late; JSON needs a number."""
    return value if math.isfinite(value) else 1e9


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an error, so child processes get stopped."""
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    parser.add_argument("--core-probe", type=int, metavar="CPU", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.core_probe is not None:
        core_probe_main(args.core_probe)
        return 0
    _require_program()
    if args.probe:
        probe(args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        if args.workload == "serve-mix":
            import servemix

            result = servemix.run(args.seed, args.seconds, bool(args.trace), report)
        else:
            import cold

            result = cold.run(args.workload, args.seed, args.seconds, bool(args.trace), report)
    finally:
        remove_scratch()

    if args.trace:
        layers = result["layers"]
        metrics = {
            name: {"value": _finite(float(layers.get(name, 0.0))), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": _finite(float(value)), "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        }
    for name, metric in metrics.items():
        report(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
