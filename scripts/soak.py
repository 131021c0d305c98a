#!/usr/bin/env python
"""Sustained chaos soak for the journalled live-prefork serving stack.

An **open-loop** load generator (arrivals at a fixed rate, independent
of completions — the closed-loop trap of "wait for the response, then
send" hides every queueing collapse) drives mixed ``/v1`` journey
traffic against a 2+-worker :class:`~repro.serving.ServingSupervisor`
while live disruptions stream through the supervisor's journalled
control plane and seeded chaos kills workers mid-flight.  Four phases:

* **steady** — queries only; the latency baseline.
* **churn**  — queries + live events; measures journal fan-out
  (convergence lag: event ack → every worker's scoreboard row at the
  journal tail) on an otherwise healthy fleet.
* **chaos**  — churn plus a seeded worker-SIGKILL schedule;
  respawned workers must replay the journal before readmission, so
  convergence keeps holding.
* **drain**  — traffic continues while the supervisor SIGTERM-drains:
  zero connection resets allowed, workers exit 0.

After the chaos phase the harness quiesces and compares a sample of
worker answers byte-for-byte against the supervisor's own reference
engine on the control port (cache disabled there) — the zero-stale
oracle.  Every sampled answer is compared; any mismatch, error status,
reset, or non-converged worker fails the run.  The only faults are
process-level (the seeded SIGKILLs and the drain); nothing is injected
in process.

Per-phase p50/p99 latency, SLO attainment (fraction of requests
answered 200 within the deadline budget) and the fleet's
``deadline_exceeded`` / ``shed`` counts (the cluster totals
``/v1/metrics`` serves, read from the shared scoreboard) land in a
trajectory entry appended under the ``"soak"`` key of
``benchmarks/results/BENCH_serving.json``.

Run (CI smoke is ~30 s)::

    PYTHONPATH=src python scripts/soak.py --smoke
    PYTHONPATH=src python scripts/soak.py --duration 300 --rate 80
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

RESULTS = REPO / "benchmarks" / "results" / "BENCH_serving.json"


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------


def _get(port: int, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return json.loads(response.read())


def _post(port: int, path: str, body: dict, timeout: float = 30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------


class OpenLoopLoad:
    """Fire requests at a fixed arrival rate from a sender pool.

    Arrivals are scheduled on the clock, not on completions: if the
    server slows down, requests pile into the sender pool's queue and
    latency (not offered load) absorbs the damage — which is exactly
    what the soak wants to observe.  Each completion is recorded as
    ``(phase, latency_s, status, kind)`` where ``kind`` is:

    * ``"ok"`` / ``"http"`` — got a response (2xx / other status);
    * ``"refused"`` — connection refused: the listener was already
      closed.  Only legitimate in the drain phase (a real deployment's
      LB stops routing; a straggler client sees a clean refusal);
    * ``"reset"`` — the connection was *accepted* and then torn down
      without a complete response (ECONNRESET / server hung up
      mid-exchange).  Never acceptable: the drain contract is that an
      accepted request always gets its answer.
    """

    def __init__(self, port: int, paths, rate_hz: float, senders: int = 8):
        self.port = port
        self.paths = paths
        self.rate_hz = rate_hz
        self.records = []
        self._lock = threading.Lock()
        self._queue: list = []
        self._queued = threading.Semaphore(0)
        self._stop = threading.Event()
        self._paused = threading.Event()
        self.phase = "steady"
        self._senders = [
            threading.Thread(target=self._sender, daemon=True)
            for _ in range(senders)
        ]
        self._clock = threading.Thread(target=self._arrivals, daemon=True)
        self._index = 0

    def start(self) -> None:
        for thread in self._senders:
            thread.start()
        self._clock.start()

    def pause(self) -> None:
        """Stop scheduling new arrivals; queued/in-flight requests
        still complete (the drain handshake needs exactly this)."""
        self._paused.set()

    def stop(self) -> None:
        self._paused.set()
        self._stop.set()
        for _ in self._senders:
            self._queued.release()
        self._clock.join(timeout=5)
        for thread in self._senders:
            thread.join(timeout=30)

    def _arrivals(self) -> None:
        interval = 1.0 / self.rate_hz
        next_at = time.monotonic()
        while not self._stop.is_set():
            if self._paused.is_set():
                time.sleep(0.02)
                next_at = time.monotonic()
                continue
            now = time.monotonic()
            if now < next_at:
                time.sleep(min(interval, next_at - now))
                continue
            next_at += interval
            with self._lock:
                path = self.paths[self._index % len(self.paths)]
                self._index += 1
                self._queue.append((self.phase, path))
            self._queued.release()

    @staticmethod
    def _classify(exc) -> str:
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, ConnectionRefusedError):
            return "refused"
        return "reset"

    def _sender(self) -> None:
        import http.client

        while True:
            self._queued.acquire()
            if self._stop.is_set():
                return
            with self._lock:
                if not self._queue:
                    continue
                phase, path = self._queue.pop(0)
            started = time.perf_counter()
            status, kind = 0, "reset"
            try:
                _get(self.port, path, timeout=30)
                status, kind = 200, "ok"
            except urllib.error.HTTPError as exc:
                status, kind = exc.code, "http"
            except (
                http.client.RemoteDisconnected,
                ConnectionError,
                urllib.error.URLError,
                OSError,
            ) as exc:
                kind = self._classify(exc)
            latency = time.perf_counter() - started
            with self._lock:
                self.records.append((phase, latency, status, kind))


def _phase_stats(records, phase: str, deadline_s: float) -> dict:
    rows = [r for r in records if r[0] == phase]
    if not rows:
        return {"requests": 0}
    latencies = sorted(r[1] for r in rows)
    ok = [r for r in rows if r[2] == 200]
    within = [r for r in ok if r[1] <= deadline_s]
    resets = sum(1 for r in rows if r[3] == "reset")
    refused = sum(1 for r in rows if r[3] == "refused")

    def pct(p):
        return round(
            latencies[min(len(latencies) - 1, int(p * len(latencies)))]
            * 1e3,
            2,
        )

    return {
        "requests": len(rows),
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "ok": len(ok),
        "slo_attainment": round(len(within) / len(rows), 4),
        "resets": resets,
        "refused": refused,
    }


# ----------------------------------------------------------------------
# The soak itself
# ----------------------------------------------------------------------


def run_soak(args) -> int:
    from repro.core import build_index
    from repro.datasets import load_dataset
    from repro.live import LiveOverlayEngine
    from repro.resilience import ResilienceConfig
    from repro.serving import ServingSupervisor

    rng = random.Random(args.seed)
    print(f"soak: dataset={args.dataset} workers={args.workers} "
          f"rate={args.rate}/s duration={args.duration}s seed={args.seed}",
          flush=True)

    graph = load_dataset(args.dataset)
    index = build_index(graph)
    trip_ids = sorted(graph.trips)

    deadline_s = args.deadline_ms / 1e3
    config = ResilienceConfig(
        deadline_ms=args.deadline_ms,
        cache_size=args.cache_size,
        drain_grace_s=args.drain_grace,
    )
    journal_path = args.journal or tempfile.mktemp(
        prefix="repro-soak-", suffix=".wal"
    )
    supervisor = ServingSupervisor(
        lambda: LiveOverlayEngine(graph, index=index),
        workers=args.workers,
        resilience=config,
        journal_path=journal_path,
        heartbeat_interval_s=0.1,
    )
    port = supervisor.start()
    supervisor.wait_ready(60)
    control = supervisor.control_port
    print(f"fleet up: data :{port}  control :{control}  "
          f"journal {journal_path}", flush=True)

    # Query mix: Zipf-ish hot pairs, fixed departure buckets.
    pairs = []
    while len(pairs) < 40:
        u, v = rng.randrange(graph.n), rng.randrange(graph.n)
        if u != v:
            pairs.append((u, v))
    times = (28800, 32400, 36000)
    paths = [
        f"/v1/eap?from={u}&to={v}&t={times[i % len(times)]}"
        for i, (u, v) in enumerate(
            rng.choices(pairs, weights=[1 / (r + 1) for r in range(40)],
                        k=400)
        )
    ]

    load = OpenLoopLoad(port, paths, rate_hz=args.rate)
    load.start()

    phase_s = args.duration / 4.0
    convergence_lags = []
    clock = 0
    failures = []

    # Cumulative fleet counters at each phase boundary.
    counters = {}

    def mark(phase: str) -> None:
        totals = supervisor.scoreboard.totals()
        counters[phase] = {
            key: totals[key] for key in ("deadline_exceeded", "shed")
        }

    mark("start")

    def emit_event() -> None:
        nonlocal clock
        kind = rng.random()
        if kind < 0.7:
            body = {
                "kind": "delay",
                "trip_id": rng.choice(trip_ids),
                "delay": rng.randrange(60, 900),
                "expires_at": clock + rng.randrange(1800, 7200),
            }
            _post(control, "/v1/live/events", body)
        elif kind < 0.9:
            body = {
                "kind": "cancel",
                "trip_id": rng.choice(trip_ids),
                "expires_at": clock + rng.randrange(1800, 7200),
            }
            _post(control, "/v1/live/events", body)
        else:
            clock += rng.randrange(60, 300)
            _post(control, "/v1/live/advance", {"now": clock})
        appended = time.monotonic()
        while not supervisor.converged():
            if time.monotonic() - appended > 30:
                failures.append("convergence timeout after live event")
                return
            time.sleep(0.01)
        convergence_lags.append(time.monotonic() - appended)

    # -- steady ---------------------------------------------------------
    time.sleep(phase_s)

    # -- churn ----------------------------------------------------------
    mark("steady")
    load.phase = "churn"
    churn_end = time.monotonic() + phase_s
    while time.monotonic() < churn_end:
        emit_event()
        time.sleep(max(0.05, phase_s / max(1, args.events_per_phase)))

    # -- chaos ----------------------------------------------------------
    mark("churn")
    load.phase = "chaos"
    chaos_end = time.monotonic() + phase_s
    kills = 0
    next_kill = time.monotonic() + phase_s / (args.kills + 1)
    while time.monotonic() < chaos_end:
        emit_event()
        if kills < args.kills and time.monotonic() >= next_kill:
            victim = rng.randrange(args.workers)
            try:
                pid = supervisor.kill_worker(victim)
                kills += 1
                print(f"chaos: SIGKILL worker {victim} (pid {pid})",
                      flush=True)
            except ValueError:
                pass  # already down, mid-respawn
            next_kill += phase_s / (args.kills + 1)
        time.sleep(max(0.05, phase_s / max(1, args.events_per_phase)))

    # Quiesce: wait for respawns to replay to the tail, then run the
    # zero-stale oracle against the reference engine.
    try:
        supervisor.wait_ready(60)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"fleet not ready after chaos: {exc}")
    stale = 0
    compared = 0
    for u, v in pairs[:20]:
        path = f"/v1/eap?from={u}&to={v}&t={times[compared % len(times)]}"
        try:
            worker_body = _get(port, path)
            reference_body = _get(control, path)
        except urllib.error.HTTPError as exc:
            failures.append(f"oracle request {path} answered {exc.code}")
            continue
        compared += 1
        if json.dumps(worker_body["data"], sort_keys=True) != json.dumps(
            reference_body["data"], sort_keys=True
        ):
            stale += 1
            failures.append(f"stale answer on {path}")
    print(f"oracle: {compared} answers compared, {stale} stale", flush=True)
    if compared == 0:
        failures.append("oracle compared zero answers")

    # -- drain ----------------------------------------------------------
    # Keep traffic flowing into the drain phase, then pause arrivals
    # and SIGTERM immediately: everything queued or in flight races the
    # shutdown, and each of those requests must either complete or be
    # cleanly refused — never reset mid-exchange.
    mark("chaos")
    load.phase = "drain"
    time.sleep(min(1.0, phase_s / 4))
    drain_started = time.monotonic()
    load.pause()
    clean = supervisor.drain(grace_s=config.drain_grace_s)
    drain_wall = time.monotonic() - drain_started
    load.stop()
    mark("drain")  # the workers' final publishes
    if not clean:
        failures.append("drain escalated to SIGKILL or nonzero exit")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    records = load.records
    phases = {}
    previous = counters["start"]
    for phase in ("steady", "churn", "chaos", "drain"):
        phases[phase] = _phase_stats(records, phase, deadline_s)
        for key, total in counters[phase].items():
            phases[phase][key] = total - previous[key]
        previous = counters[phase]
    # The drain contract: an accepted request always completes, so a
    # connection *reset* is a failure in every phase.  A clean
    # *refusal* is only legitimate during drain (listener closed).
    for phase in ("steady", "churn", "chaos", "drain"):
        stats = phases[phase]
        if stats.get("resets"):
            failures.append(f"{stats['resets']} connection resets in "
                            f"{phase} phase")
        if phase != "drain" and stats.get("refused"):
            failures.append(f"{stats['refused']} connections refused in "
                            f"{phase} phase")

    entry = {
        "dataset": args.dataset,
        "workers": args.workers,
        "rate_hz": args.rate,
        "duration_s": args.duration,
        "seed": args.seed,
        "deadline_ms": args.deadline_ms,
        "phases": phases,
        "events": len(convergence_lags),
        "kills": kills,
        "respawns": supervisor.respawns,
        "convergence_lag_ms": {
            "p50": round(
                statistics.median(convergence_lags) * 1e3, 2
            )
            if convergence_lags
            else None,
            "max": round(max(convergence_lags) * 1e3, 2)
            if convergence_lags
            else None,
        },
        "oracle": {"compared": compared, "stale": stale},
        "drain_wall_s": round(drain_wall, 3),
        "drain_clean": clean,
        "failures": failures,
    }

    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    merged = {}
    if RESULTS.exists():
        try:
            merged = json.loads(RESULTS.read_text())
        except (json.JSONDecodeError, OSError):
            merged = {}
    merged.setdefault("soak", []).append(entry)
    RESULTS.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")

    print(json.dumps(entry, indent=2, sort_keys=True))
    if args.journal is None and os.path.exists(journal_path):
        os.unlink(journal_path)
    if failures:
        print(f"SOAK FAILED: {failures}", file=sys.stderr)
        return 1
    print("soak passed: zero stale answers, fleet converged, clean drain")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--dataset", default="Austin")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="total seconds, split evenly across phases")
    parser.add_argument("--rate", type=float, default=40.0,
                        help="open-loop arrival rate, requests/second")
    parser.add_argument("--deadline-ms", type=float, default=2000.0)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--drain-grace", type=float, default=5.0)
    parser.add_argument("--events-per-phase", type=int, default=12,
                        help="live mutations emitted per churn/chaos phase")
    parser.add_argument("--kills", type=int, default=2,
                        help="seeded worker SIGKILLs in the chaos phase")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--journal", help="journal path (default: temp)")
    parser.add_argument("--smoke", action="store_true",
                        help="~30 s CI profile: low rate, 1 kill")
    args = parser.parse_args(argv)
    if args.smoke:
        args.duration = min(args.duration, 28.0)
        args.rate = min(args.rate, 25.0)
        args.kills = 1
        args.events_per_phase = 6
    return run_soak(args)


if __name__ == "__main__":
    raise SystemExit(main())
