"""Run ``repro serve`` in this process for the serve-mix workload.

Usage (started by ``servemix.py``, not by hand)::

    python3 perfbench/serve_main.py [--trace] -- <repro serve arguments>

With ``--trace`` the layer wrappers are installed before the server starts,
and a ``mark`` line on stdin restarts the per-layer record (answered by a
``marked`` line), so the pre-warm stays out of the warm-request numbers.
The process exits as soon as stdin closes.
When the server has shut down, one last stdout line ``perfbench <json>``
carries the process's peak RSS and, when traced, the folded layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import threading

from measure import ROOT, peak_rss_mb

sys.path.insert(0, str(ROOT / "src"))


def _control(tracer) -> None:
    """Serve ``mark`` lines; exit at once when the parent closes stdin or
    dies, so no server outlives its benchmark run."""
    for line in sys.stdin:
        if line.strip() == "mark" and tracer is not None:
            tracer.mark()
            sys.stdout.write("marked\n")
            sys.stdout.flush()
    os._exit(0)


def main(argv: list[str]) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        # All server threads share the last core, so handing the GIL
        # between them never waits for another virtual CPU to wake up; the
        # load generator keeps the other cores (see servemix.replay).
        os.sched_setaffinity(0, {cpus[-1]})
    traced = bool(argv) and argv[0] == "--trace"
    serve_args = argv[argv.index("--") + 1:]
    tracer = None
    if traced:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()

    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.fold() if tracer is not None else None,
    }
    sys.stdout.write("perfbench " + json.dumps(report) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
