"""Shared measuring helpers: order statistics, set-up probes, scratch space."""

from __future__ import annotations

import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every file the benchmark writes lives under this checkout-local directory
#: (listed in the root ``.gitignore``), never under ``~/.cache/repro`` or an
#: inherited ``$REPRO_CACHE_DIR``.
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up is measured this many times per run and reported as the median.
SETUP_SAMPLES = 7

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


#: The host-speed probe times this fixed pure-Python loop; on the reference
#: host it takes PROBE_REF_S.
PROBE_LOOP = 100_000
PROBE_REF_S = 0.010


def probe_loop(clock=time.perf_counter) -> float:
    """Seconds the fixed probe loop takes right now, on ``clock``."""
    start = clock()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return clock() - start


class HostSpeed:
    """Times a block of work in reference-host seconds.

    On a shared 2-vCPU virtual machine the host's speed drifts: over 100 s
    the 5 s means of a fixed loop ranged over 76-103 ms, and identical cold
    Fig. 8 repetitions a minute apart took 9.0 s and 13.6 s.  Over two sets
    of ten seeded runs, scaling narrowed the spread (IQR over median) of
    fig8-cold ``run_s`` from 24% and 13% to 8% and 3%, and of sweep-b-cold
    ``run_s`` from 15% and 18% to 6% and 5%.  Inside the block a ``SIGALRM``
    timer runs the probe loop every ``INTERVAL_S`` on the main thread,
    between the work's bytecodes, so it samples the speed of the core the
    work runs on; one more probe runs just before and just after the block.
    The block's wall time minus the probes' own time, scaled by
    ``PROBE_REF_S`` over the mean probe time, is :attr:`seconds`.  Only for
    work on the main thread of this process.
    """

    INTERVAL_S = 0.2

    def __enter__(self) -> "HostSpeed":
        self.took = [probe_loop()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        self.took.append(probe_loop())

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self.start
        work = self.wall_s - sum(self.took[1:])
        self.took.append(probe_loop())
        self.seconds = work * PROBE_REF_S / statistics.mean(self.took)


class CoreSpeed:
    """Host speed of one core, sampled while another process works on it.

    :class:`HostSpeed` cannot interrupt work that runs in another process,
    such as ``repro serve``.  Instead a child (``run.py --core-probe CPU``)
    pinned to the same core at ``SCHED_IDLE`` priority times the probe loop
    in its own CPU time whenever that core has nothing else to run, and
    prints ``<end time> <seconds>``; ``perf_counter`` is the system-wide
    monotonic clock on Linux, so its times compare with this process's.
    """

    INTERVAL_S = 0.1

    def __init__(self, cpu: int) -> None:
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--core-probe", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            end, took = line.split()
            self.samples.append((float(end), float(took)))

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()

    def factor(self, start: float, end: float) -> float:
        """``PROBE_REF_S`` over the mean probe time during ``[start, end]``,
        counting the nearest sample on each side too (1.0 without any)."""
        before = [took for t, took in self.samples if t < start][-1:]
        inside = [took for t, took in self.samples if start <= t <= end]
        after = [took for t, took in self.samples if t > end][:1]
        takes = before + inside + after
        return PROBE_REF_S / statistics.mean(takes) if takes else 1.0


def core_probe_main(cpu: int) -> None:
    """The ``--core-probe`` child: sample ``cpu`` until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while True:
        took = probe_loop(time.process_time)
        print(f"{time.perf_counter():.6f} {took:.6f}", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], CoreSpeed.INTERVAL_S)
        if ready and not sys.stdin.readline():
            return


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.

    Below ``2 * TAIL_BEYOND`` samples that percentile would fall under the
    median, so the maximum (p100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources, no cache
    directory inherited from the caller."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(label: str) -> Path:
    """A new, empty directory under :data:`SCRATCH`."""
    SCRATCH.mkdir(exist_ok=True)
    for index in range(1_000_000):
        path = SCRATCH / f"{os.getpid()}-{label}-{index}"
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path
    raise RuntimeError("no free scratch directory name")


def remove_scratch() -> None:
    """Delete this process's scratch directories (and the root if empty)."""
    if not SCRATCH.is_dir():
        return
    prefix = f"{os.getpid()}-"
    for path in SCRATCH.iterdir():
        if path.name.startswith(prefix):
            shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still uses it


def session_setup_s() -> tuple[list[float], list[float]]:
    """Process start to a constructed ``Session``, measured in children:
    ``(reference-host seconds, wall seconds)`` per sample.

    Each sample is scaled as :class:`HostSpeed` scales a repetition, by
    the probe loop timed three times just before and three times just after
    it (a start-up takes too little time for one loop each to be steady).
    """
    samples, walls = [], []
    for _ in range(SETUP_SAMPLES):
        cache_dir = fresh_dir("probe")
        took = [probe_loop() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", str(cache_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        line = proc.stdout.readline()
        walls.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe did not become ready")
        took += [probe_loop() for _ in range(3)]
        samples.append(walls[-1] * PROBE_REF_S / statistics.median(took))
    return samples, walls


def probe(cache_dir: str) -> None:
    """The ``--probe`` child: import the API, build a session, report."""
    from repro.api import Session

    Session(workers=0, cache_dir=cache_dir)
    print("ready", flush=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
