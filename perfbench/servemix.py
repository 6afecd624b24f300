"""serve-mix: an open-loop request mix replayed against a ``repro serve``.

The server runs in its own process (``serve_main.py``: serial session,
``--workers 0``, at most ``nproc`` compute threads) on a fresh cache
directory that set-up pre-warms with the warm specs.  One load-generator
process then replays a seeded schedule over a ladder of fixed rates with at
most ``nproc`` connections open at once.  Latency is timed from each
request's due time, so a stalled connection delays the requests queued
behind it; how late the generator sent is reported separately.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from cold import PAPER_OPTIONS, paper_error_pct, rows_digest
from measure import (
    HERE,
    ROOT,
    SETUP_SAMPLES,
    CoreSpeed,
    child_env,
    fresh_dir,
    median,
    tail,
)

#: The latency limit the ladder's tail is held to.
LIMIT_S = 1.0

#: Concurrent connections and server compute threads: sized for nproc = 2.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: ``(requests per second, share of --seconds)`` per rung; the rest of the
#: window is left for the top rung's backlog to drain.  The reference rung
#: sets p50_ms / tail_ms.  It loads one serial server to about 40%: at higher
#: load, queueing amplified the host's speed drift into run-to-run p50
#: swings of up to 80%.  The top rung offers several times what the server
#: answers, so it measures the server's capacity: slo_rps is the rate at
#: which it answers that rung (see Rung.summary).
LADDER = ((3.0, 0.8), (30.0, 0.1))
REFERENCE_RATE, TOP_RATE = LADDER[0][0], LADDER[-1][0]

#: Shares of each rung's requests by kind; every rung holds these shares
#: exactly (rounded), in a seeded order.  A burst is BURST identical
#: requests due at once; the coalescer should merge the ones in flight.
#: Warm requests fill what the other kinds leave.  The shares and BURST
#: are assumptions, not measured traffic: README.md says where each comes
#: from.
MIX = (("burst", 0.06), ("cold", 0.10), ("search", 0.08))
BURST = 4

#: Quick sampling of the served specs (one pass per GEMM, 16 time steps).
QUICK = {"passes_per_gemm": 1, "max_t_steps": 16}

FIG8_DESIGNS = ("Baseline", "Sparse.B*", "Sparse.A*", "Sparse.AB*",
                "Griffin", "BitTactical", "TensorDash", "SparTen")
COLD_DESIGNS = ("Sparse.B*", "Griffin", "Sparse.AB*", "B(2,0,1,on)", "B(3,1,0,on)")


def warm_specs(rng: random.Random) -> list[dict]:
    """The full Fig. 8 experiment with its designs in four seeded orders.

    The coalescer keys on the design order, so the four are distinct
    requests of equal work; pre-warming the first answers every one of them
    from the network tier.
    """
    return [
        {
            "name": f"warm-{index}",
            "designs": rng.sample(FIG8_DESIGNS, len(FIG8_DESIGNS)),
            "categories": ["DNN.dense", "DNN.B", "DNN.A", "DNN.AB"],
            "quick": True,
            "options": dict(QUICK, seed=PAPER_OPTIONS["seed"]),
        }
        for index in range(4)
    ]


def cold_spec(rng: random.Random, used: set[int], design: str) -> dict:
    """One small design on BERT with a simulation seed no request reused."""
    sim_seed = rng.randrange(1 << 30, 1 << 31)
    while sim_seed in used:
        sim_seed = rng.randrange(1 << 30, 1 << 31)
    used.add(sim_seed)
    return {
        "name": "cold",
        "designs": [design],
        "categories": ["DNN.B"],
        "networks": ["BERT"],
        "options": dict(QUICK, seed=sim_seed),
    }


def search_spec(rng: random.Random) -> dict:
    """A multi-fidelity search over a seeded slice of the B space.

    Its options are the surrogate's calibrated quick regime (seed 7
    included): the surrogate refuses any other sampling.
    """
    return {
        "name": "search",
        "space": {"name": "b-slice", "db1": sorted(rng.sample(range(1, 8), 5)),
                  "db2": [0, 1, 2], "db3": [0, 1, 2], "max_amux_fanin": 8},
        "fidelity": "multi",
        "strategy": {"budget": 4},
        "objectives": [{"category": "DNN.B", "metric": "tops_per_watt"},
                       {"category": "DNN.dense", "metric": "tops_per_watt"}],
        "networks": ["BERT"],
        "options": dict(QUICK, seed=7),
    }


@dataclass
class Request:
    due: float
    rate: float
    path: str
    body: str


@dataclass
class Outcome:
    late_s: float = 0.0
    latency_s: float = float("inf")
    done_s: float = float("inf")
    status: int | None = None
    doc: object = None


def rung_bounds(seconds: float):
    """``(rate, start, end)`` of each rung, in seconds from the first."""
    start = 0.0
    for rate, share in LADDER:
        yield rate, start, start + share * seconds
        start += share * seconds


def schedule(seed: int, seconds: float) -> tuple[list[Request], list[dict]]:
    """The seeded arrival schedule and the warm specs it repeats.

    Arrivals are evenly spaced at each rung's rate with seeded jitter, and
    each rung holds the MIX shares exactly, so every seed sends the same
    number of requests of each kind per rung, and the cold designs take
    turns; the seed picks their order, the specs and the jitter.
    """
    rng = random.Random(seed)
    warm = warm_specs(rng)
    search = json.dumps(search_spec(rng))
    used = {PAPER_OPTIONS["seed"]}  # the warm specs' simulation seed
    warm_order = itertools.cycle(warm)
    cold_designs = itertools.cycle(rng.sample(COLD_DESIGNS, len(COLD_DESIGNS)))
    requests: list[Request] = []
    for rate, start, end in rung_bounds(seconds):
        count = round(rate * (end - start))
        kinds = ["burst"] * round(dict(MIX)["burst"] * count / BURST)
        kinds += ["cold"] * round(dict(MIX)["cold"] * count)
        kinds += ["search"] * round(dict(MIX)["search"] * count)
        kinds += ["warm"] * (count - len(kinds) - (BURST - 1) * kinds.count("burst"))
        rng.shuffle(kinds)
        slot = 0
        for kind in kinds:
            due = start + (slot + 0.5 + rng.uniform(-0.4, 0.4)) / rate
            if kind == "warm":
                requests.append(Request(due, rate, "/run", json.dumps(next(warm_order))))
            elif kind == "cold":
                spec = cold_spec(rng, used, next(cold_designs))
                requests.append(Request(due, rate, "/run", json.dumps(spec)))
            elif kind == "search":
                requests.append(Request(due, rate, "/search", search))
            else:
                body = json.dumps(cold_spec(rng, used, next(cold_designs)))
                requests.extend(Request(due, rate, "/run", body) for _ in range(BURST))
            slot += BURST if kind == "burst" else 1
    requests.sort(key=lambda r: r.due)
    return requests, warm


class Server:
    """A ``serve_main.py`` child process and its stdout line channel."""

    def __init__(self, cache_dir, traced: bool = False) -> None:
        self.started = time.perf_counter()
        command = [sys.executable, str(HERE / "serve_main.py")]
        if traced:
            command.append("--trace")
        command += ["--", "--port", "0", "--workers", "0",
                    "--compute-threads", str(CONNECTIONS),
                    "--cache-dir", str(cache_dir)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self._expect("repro serve")
            self.port = int(line.split("http://127.0.0.1:")[1].split()[0])
            status, _ = self.call("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, prefix: str, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError(f"server exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line

    def call(self, method: str, path: str, body: str | None = None) -> tuple[int, object]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stats(self) -> dict:
        return self.call("GET", "/stats")[1]

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far (user + system)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def mark(self) -> None:
        """Restart the traced server's layer record (see serve_main.py)."""
        self.proc.stdin.write("mark\n")
        self.proc.stdin.flush()
        self._expect("marked")

    def stop(self) -> dict:
        """Shut down gracefully; returns the server's closing report."""
        try:
            self.call("POST", "/shutdown", "")
            line = self._expect("perfbench ", timeout=60.0)
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return json.loads(line[len("perfbench "):])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def replay(server: Server, requests: list[Request]) -> tuple[float, list[Outcome]]:
    """Open loop: send each request at its due time on a free connection.

    Returns the clock time the schedule's times count from, and one outcome
    per request.  The generator runs off the server's core (see
    serve_main.py) while it replays.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
    try:
        return _replay(server, requests)
    finally:
        os.sched_setaffinity(0, cpus)


def _replay(server: Server, requests: list[Request]) -> tuple[float, list[Outcome]]:
    outcomes = [Outcome() for _ in requests]
    order = itertools.count()
    origin = time.perf_counter() + 0.2

    def connection() -> None:
        while True:
            index = next(order)
            if index >= len(requests):
                return
            request = requests[index]
            due = origin + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = outcomes[index]
            outcome.late_s = time.perf_counter() - due
            try:
                outcome.status, outcome.doc = server.call("POST", request.path, request.body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                outcome.doc = repr(exc)
            outcome.done_s = time.perf_counter() - origin
            outcome.latency_s = outcome.done_s - request.due

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return origin, outcomes


@dataclass
class Rung:
    rate: float
    start: float
    end: float
    latencies_ms: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)  # the same, unscaled
    answered: int = 0
    last_done: float = 0.0
    pending: int = 0  # requests still unanswered LIMIT_S after the rung's end

    def summary(self, speed: CoreSpeed, origin: float) -> dict:
        """Latency order statistics and the limit check; ``goodput`` is the
        rate of correct answers from the rung's start to its last answer,
        in reference-host time.  On the top rung, which offers more than
        the server answers, that is the server's capacity for the mix."""
        p50 = median(self.latencies_ms)
        tail_ms, tail_pct, n = tail(self.latencies_ms)
        drained = self.pending <= CONNECTIONS
        meets = tail_ms <= LIMIT_S * 1000.0 and drained and self.answered == n
        return {"rate": self.rate, "n": n, "p50_ms": p50, "tail_ms": tail_ms,
                "tail_pct": tail_pct, "drained": drained, "meets": meets,
                "goodput": self.answered / (
                    (self.last_done - self.start)
                    * speed.factor(origin + self.start, origin + self.last_done))}


def _stats_delta(before: dict, after: dict) -> dict:
    def endpoint_total(stats):
        by = stats["requests"]["by_endpoint"]
        return by.get("POST /run", 0) + by.get("POST /search", 0)

    def series(name):
        b, a = before["latency"][name], after["latency"][name]
        return a["count"] - b["count"], a["total_ms"] - b["total_ms"]

    queue_n, queue_ms = series("queue")
    compute_n, compute_ms = series("compute")
    hits = after["coalesce"]["hits"] - before["coalesce"]["hits"]
    computations = after["coalesce"]["computations"] - before["coalesce"]["computations"]
    return {
        "serve.queue_ms": queue_ms / queue_n if queue_n else 0.0,
        "serve.compute_ms": compute_ms / compute_n if compute_n else 0.0,
        "serve.coalesced_ratio": hits / (hits + computations) if hits + computations else 0.0,
        "serve.requests": endpoint_total(after) - endpoint_total(before),
    }


class Verifier:
    """Direct ``Session`` answers to compare served documents against."""

    def __init__(self) -> None:
        from repro.api import Session

        self.session = Session(workers=0, cache_dir=fresh_dir("verify"))
        self._answers: dict[tuple[str, str], object] = {}

    def expected(self, path: str, body: str) -> object:
        key = (path, body)
        if key not in self._answers:
            spec = json.loads(body)
            if path == "/run":
                answer = self.session.run(spec).rows()
            else:
                payload = self.session.search(spec).to_dict()
                answer = {"front": payload["front"], "optimal": payload["optimal"]}
            self._answers[key] = json.loads(json.dumps(answer))
        return self._answers[key]

    def matches(self, path: str, body: str, doc: dict) -> bool:
        expected = self.expected(path, body)
        if path == "/run":
            return doc.get("rows") == expected
        return {"front": doc.get("front"), "optimal": doc.get("optimal")} == expected


@dataclass
class Round:
    ready_s: float
    prewarm_s: float
    reference: dict
    slo_rps: float
    cpu_s: float
    serve: dict
    loadgen: dict
    paper_err_pct: float
    attempted: int
    failed: int
    server_report: dict
    cache_dir: str
    wall: str  # the scaled figures in wall time, for the report


def prewarm(server: Server, warm: list[dict]) -> int:
    """Answer every warm spec once; returns the failed requests."""
    failed = 0
    for spec in warm:
        status, _ = server.call("POST", "/run", json.dumps(spec))
        failed += status != 200
    return failed


def one_round(seed: int, seconds: float, traced: bool, verifier: Verifier,
              report, before_ladder=None) -> Round:
    """Start a server, pre-warm it, replay the ladder, stop it, verify.

    ``before_ladder(server)`` runs between the pre-warm and the ladder and
    returns ``(attempted, failed)`` operations of its own.  Latencies, the
    pre-warm and the server's CPU time are scaled to the reference host by the
    speed of the server's core over the interval each one spans.
    """
    requests, warm = schedule(seed, seconds)
    cache_dir = fresh_dir("serve")
    server = Server(cache_dir, traced=traced)
    speed = CoreSpeed(sorted(os.sched_getaffinity(0))[-1])
    extra = (0, 0)
    try:
        start = time.perf_counter()
        prewarm_failed = prewarm(server, warm)
        prewarm_wall_s = time.perf_counter() - start
        prewarm_s = prewarm_wall_s * speed.factor(start, start + prewarm_wall_s)
        if before_ladder is not None:
            extra = before_ladder(server)
        if traced:
            server.mark()
        before = server.stats()
        cpu_before = server.cpu_s()
        origin, outcomes = replay(server, requests)
        cpu_s = server.cpu_s() - cpu_before
        after = server.stats()
        ladder_end = time.perf_counter()
    except BaseException:
        server.kill()
        raise
    finally:
        speed.stop()
    server_report = server.stop()

    failures = 0
    rungs = {rate: Rung(rate, lo, hi) for rate, lo, hi in rung_bounds(seconds)}
    full_fig8 = None
    for request, outcome in zip(requests, outcomes):
        rung = rungs[request.rate]
        rung.last_done = max(rung.last_done, outcome.done_s)
        rung.pending += outcome.done_s > rung.end + LIMIT_S
        ok = outcome.status == 200 and verifier.matches(request.path, request.body, outcome.doc)
        if not ok:
            failures += 1
            detail = outcome.doc if outcome.status != 200 else "rows differ from a direct run"
            report(f"FAILED {request.path} (status {outcome.status}): {str(detail)[:200]}")
            rung.latencies_ms.append(float("inf"))
            continue
        rung.answered += 1
        factor = speed.factor(origin + request.due, origin + outcome.done_s)
        rung.latencies_ms.append(outcome.latency_s * 1000.0 * factor)
        rung.wall_ms.append(outcome.latency_s * 1000.0)
        if json.loads(request.body)["name"] == "warm-0":
            full_fig8 = outcome.doc["rows"]

    summaries = {rate: rungs[rate].summary(speed, origin) for rate, _ in LADDER}
    for s in summaries.values():
        report(
            f"  {s['rate']:>5.1f} req/s: n={s['n']:>3} p50 {s['p50_ms']:8.1f} ms, "
            f"tail p{s['tail_pct']:.1f} {s['tail_ms']:8.1f} ms, "
            f"{'drained' if s['drained'] else 'BACKLOG'}, "
            f"{'meets' if s['meets'] else 'misses'} the {LIMIT_S:g} s limit, "
            f"answered {s['goodput']:.3f} req/s"
        )
    delta = _stats_delta(before, after)
    reference, top = rungs[REFERENCE_RATE], rungs[TOP_RATE]
    wall = (
        f"p50 {median(reference.wall_ms):.1f} ms, tail {tail(reference.wall_ms)[0]:.1f} ms, "
        f"CPU {cpu_s:.3f} s, top rung "
        f"{top.answered / (top.last_done - top.start):.3f} req/s, pre-warm {prewarm_wall_s:.3f} s"
    )
    if full_fig8 is None:
        full_fig8 = verifier.expected("/run", json.dumps(warm[0]))
    report(
        f"sim_digest {rows_digest(full_fig8)} (warm-0 rows); server core speed "
        f"factor over the ladder {speed.factor(origin, ladder_end):.3f} from "
        f"{len(speed.samples)} samples"
    )
    return Round(
        ready_s=server.ready_s,
        prewarm_s=prewarm_s,
        reference=summaries[REFERENCE_RATE],
        slo_rps=summaries[TOP_RATE]["goodput"],
        cpu_s=cpu_s * speed.factor(origin, ladder_end),
        serve=delta,
        loadgen={
            "loadgen.sent": len(requests),
            "loadgen.ok": len(requests) - failures,
            "loadgen.failed": failures,
            "loadgen.late_ms": median([
                o.late_s * 1000.0 for r, o in zip(requests, outcomes)
                if r.rate == REFERENCE_RATE
            ]),
        },
        paper_err_pct=paper_error_pct(full_fig8),
        attempted=len(requests) + len(warm) + extra[0],
        failed=failures + prewarm_failed + extra[1],
        server_report=server_report,
        cache_dir=str(cache_dir),
        wall=wall,
    )


def run(seed: int, seconds: float, trace: bool, report) -> dict:
    verifier = Verifier()
    if trace:
        return _run_traced(seed, seconds, verifier, report)
    ready = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Server(fresh_dir("serve-probe"))
        try:
            probe.stop()
        finally:
            probe.kill()
        ready.append(probe.ready_s)
    result = one_round(seed, seconds, False, verifier, report)
    ready.append(result.ready_s)
    report(
        f"serve-mix: reference {REFERENCE_RATE:g} req/s, n={result.reference['n']}, "
        f"tail = p{result.reference['tail_pct']:.1f}; server ready {median(ready):.3f} s "
        f"(median of {len(ready)}), pre-warm {result.prewarm_s:.3f} s; generator "
        f"late by {result.loadgen['loadgen.late_ms']:.1f} ms (median at the "
        f"reference rung); unscaled: {result.wall}"
    )
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            "setup_s": (median(ready) + result.prewarm_s, "s"),
            "run_s": (result.cpu_s, "s"),
            "p50_ms": (result.reference["p50_ms"], "ms"),
            "tail_ms": (result.reference["tail_ms"], "ms"),
            "slo_rps": (result.slo_rps, "1/s"),
            "ok_pct": (100.0 * (result.attempted - result.failed) / result.attempted, "%"),
            "peak_rss_mb": (result.server_report["peak_rss_mb"], "MiB"),
            "paper_err_pct": (result.paper_err_pct, "%"),
        },
    }


#: Rounds of overhead requests in a traced run; each round sends the full
#: Fig. 8 warm spec to the untraced, traced, traced and untraced server.
OVERHEAD_ROUNDS = 8


def _run_traced(seed: int, seconds: float, verifier: Verifier, report) -> dict:
    """Per-layer metrics from the traced server's ladder.

    An untraced server, pre-warmed the same way, answers the full Fig. 8
    warm spec alternately with the traced one before the ladder starts;
    ``trace.overhead_pct`` compares their summed latencies, so a steady drift
    of the host's speed cancels out.
    """
    from layers import disk_usage

    _, warm = schedule(seed, seconds)
    body = json.dumps(warm[0])
    times = {False: 0.0, True: 0.0}
    plain = Server(fresh_dir("serve"))
    try:
        failed = prewarm(plain, warm)

        def overhead(traced_server: Server) -> tuple[int, int]:
            bad = 0
            for _ in range(OVERHEAD_ROUNDS):
                for is_traced in (False, True, True, False):
                    start = time.perf_counter()
                    status, doc = (traced_server if is_traced else plain).call("POST", "/run", body)
                    times[is_traced] += time.perf_counter() - start
                    bad += not (status == 200 and verifier.matches("/run", body, doc))
            plain.stop()
            return 4 * OVERHEAD_ROUNDS + len(warm), bad + failed

        traced = one_round(seed, seconds, True, verifier, report, before_ladder=overhead)
    finally:
        plain.kill()
    layers = dict(traced.server_report["layers"])
    files, size = disk_usage(traced.cache_dir)
    layers.update(traced.serve)
    layers.update(traced.loadgen)
    layers["cache.disk_files"] = files
    layers["cache.disk_bytes"] = size
    layers["trace.overhead_pct"] = 100.0 * (times[True] / times[False] - 1.0)
    report(
        f"serve-mix: {2 * OVERHEAD_ROUNDS} full Fig. 8 warm requests each took "
        f"{times[False]:.3f} s untraced and {times[True]:.3f} s traced in total"
    )
    return {"attempted": traced.attempted, "failed": traced.failed, "layers": layers}
