"""The prefork supervisor: bind once, fork K, watch, respawn.

The supervisor owns exactly three things:

* the **listening socket** — bound and set listening (and
  non-blocking) before any fork, so every worker inherits the same
  kernel accept queue and the kernel load-balances connections;
* the **scoreboard** — shared memory allocated before any fork;
* the **worker table** — ``fork``-context processes running
  :func:`~repro.serving.worker.worker_main`.

It deliberately does *not* serve HTTP itself: aggregated ``/metrics``
and per-worker ``/healthz`` liveness are answered by whichever worker
accepts the request, reading the shared scoreboard.  That keeps the
parent a pure process manager — if it has nothing to do it does
nothing, and a wedged handler can never take the supervisor down.

Respawn: a monitor thread polls child liveness; when a worker dies
(crash, OOM-kill, SIGKILL drill) its last published counters are folded
into the scoreboard's retired row — keeping aggregated ``/metrics``
monotonic — and a fresh worker is forked into the same slot with a
bumped generation number.  Forking from the live parent means respawn
needs no exec, no re-parse, and no index reload beyond the O(header)
mmap in the child.

Live mode (``journal_path``): the "pure process manager" rule gets one
carve-out.  The supervisor recovers + compacts the journal, replays it
into its own **reference engine**, and serves that engine on a second
*control* port — the single coordinated endpoint for live mutations
(validate locally, append + fsync, ack).  Workers get the control URL
as ``coordinator`` and answer 409 to direct mutations; each tails the
journal back to convergence.  The data-plane socket still never
touches the parent, so a wedged query handler still cannot take the
supervisor down — only live *mutations* (rare, tiny, validated) run
here.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Dict, Optional

from repro.errors import ServiceNotReady
from repro.resilience import ResilienceConfig
from repro.serving.scoreboard import Scoreboard
from repro.serving.worker import PlannerFactory, worker_main


class ServingSupervisor:
    """Run ``workers`` forked servers behind one listening socket."""

    def __init__(
        self,
        planner_factory: PlannerFactory,
        workers: int = 2,
        resilience: Optional[ResilienceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_s: float = 0.25,
        respawn: bool = True,
        respawn_backoff_s: float = 0.1,
        warm: bool = True,
        journal_path: Optional[str] = None,
        control_port: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        self.planner_factory = planner_factory
        self.num_workers = workers
        self.resilience = resilience
        self.host = host
        self.port = port
        self.heartbeat_interval_s = heartbeat_interval_s
        self.respawn = respawn
        self.respawn_backoff_s = respawn_backoff_s
        self.warm = warm
        self.journal_path = journal_path
        self.control_port = control_port
        self.journal = None
        self.control_service = None
        self.coordinator_url: Optional[str] = None
        self.scoreboard = Scoreboard(
            workers,
            liveness_timeout_s=max(2.0, 8 * heartbeat_interval_s),
        )
        self.respawns = 0
        self._ctx = multiprocessing.get_context("fork")
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._generation = 0
        self._sock: Optional[socket.socket] = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> int:
        """Bind, fork every worker, start the monitor; returns the
        bound port."""
        if self.journal_path is not None:
            self._start_journal()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        # Non-blocking so a worker that loses an accept race gets
        # EAGAIN instead of hanging (HttpServer re-polls).
        sock.setblocking(False)
        self._sock = sock
        self.port = sock.getsockname()[1]
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True
        )
        self._monitor.start()
        return self.port

    def stop(self) -> None:
        """Terminate every worker and release the socket."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=5)
        self._procs.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._stop_control_plane()

    def drain(self, grace_s: float = 5.0) -> bool:
        """Graceful shutdown: SIGTERM every worker and give each up to
        ``grace_s`` to finish its in-flight requests (the worker closes
        its listener, joins its handler threads, and
        exits 0).  Stragglers past the grace window are SIGKILLed.
        The journal is fsync'd and closed last, so every acknowledged
        mutation is durable at exit.  Returns True iff every worker
        drained cleanly (exitcode 0 within the window).
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for proc in self._procs.values():
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        clean = True
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                clean = False
                proc.kill()
                proc.join(timeout=5)
            elif proc.exitcode != 0:
                clean = False
        self._procs.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._stop_control_plane()
        return clean

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until every worker has published a heartbeat (i.e.
        its service warmed up and is accepting) — and, in live mode,
        has replayed the journal to the current tail — or raise
        :class:`~repro.errors.ServiceNotReady`."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            rows = self.scoreboard.workers()
            if all(row["pid"] > 0 for row in rows) and (
                self.journal is None
                or all(
                    row["journal_seq"] >= self.journal.seq for row in rows
                )
            ):
                return
            time.sleep(0.05)
        rows = self.scoreboard.workers()
        missing = [row["worker"] for row in rows if row["pid"] == 0]
        if missing:
            raise ServiceNotReady(
                f"workers {missing} did not become ready within "
                f"{timeout_s:.0f}s"
            )
        lagging = [
            (row["worker"], row["journal_seq"])
            for row in rows
            if self.journal is not None
            and row["journal_seq"] < self.journal.seq
        ]
        raise ServiceNotReady(
            f"workers {lagging} did not replay the journal to seq "
            f"{self.journal.seq if self.journal else 0} within "
            f"{timeout_s:.0f}s"
        )

    def converged(self) -> bool:
        """True when every live worker row has applied the journal tail
        (the soak harness polls this to measure convergence lag)."""
        if self.journal is None:
            return True
        rows = self.scoreboard.workers()
        return all(
            row["pid"] > 0 and row["journal_seq"] >= self.journal.seq
            for row in rows
        )

    # ------------------------------------------------------------------
    # Introspection / chaos hooks
    # ------------------------------------------------------------------

    def worker_pids(self) -> Dict[int, int]:
        """Live worker pids by worker id."""
        return {
            worker_id: proc.pid
            for worker_id, proc in self._procs.items()
            if proc.is_alive() and proc.pid is not None
        }

    def kill_worker(
        self, worker_id: int, sig: int = signal.SIGKILL
    ) -> int:
        """Kill one worker (chaos drills, the CI smoke job); returns
        the pid killed.  The monitor notices and respawns."""
        proc = self._procs[worker_id]
        if proc.pid is None or not proc.is_alive():
            raise ValueError(f"worker {worker_id} is not running")
        os.kill(proc.pid, sig)
        return proc.pid

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start_journal(self) -> None:
        """Recover + compact the journal, build the reference engine,
        and serve the control plane (strictly before any fork).

        Compaction is pure record bookkeeping, so the compacted file is
        on disk *first* and every process — the reference engine here
        and each worker's follower — replays the identical record
        sequence.  Same records, same order ⇒ same ``live_generation``
        in every process, which is what makes the scoreboard's
        convergence check meaningful.
        """
        from dataclasses import replace

        from repro.live import LiveOverlayEngine
        from repro.serving.journal import LiveJournal, compact_records

        journal = LiveJournal(self.journal_path)
        journal.rewrite(compact_records(journal.records))
        reference = self.planner_factory()
        if not isinstance(reference, LiveOverlayEngine):
            journal.close()
            raise ValueError(
                "journalled serving needs a live planner factory "
                f"(got {type(reference).__name__}); use "
                "live_mapped_planner_factory"
            )
        reference.preprocess()
        from repro.serving.journal import apply_record

        for record in journal.records:
            apply_record(reference, record)

        # Control-plane service: same validation, error shapes, and
        # /live endpoints as the workers — but with the journal wired
        # in, so a mutation is applied to the reference engine and
        # durably appended before the 200 goes out.  Cache off: this
        # port is the mutation path and the soak oracle; answers must
        # come straight from the engine.
        from repro.service import PlannerService

        resilience = self.resilience
        if resilience is not None and resilience.cache_size:
            resilience = replace(resilience, cache_size=0)
        self.journal = journal
        self.control_service = PlannerService(
            reference,
            resilience=resilience,
            journal=journal,
        )
        control_port = self.control_service.start(
            host=self.host, port=self.control_port, warm=True
        )
        self.control_port = control_port
        self.coordinator_url = f"http://{self.host}:{control_port}"

    def _stop_control_plane(self) -> None:
        if self.control_service is not None:
            self.control_service.stop()
            self.control_service = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def _spawn(self, worker_id: int) -> None:
        # A forked worker keeps every page the supervisor holds: collect
        # first so it does not inherit unreachable cycles as resident RSS.
        gc.collect()
        self._generation += 1
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self._generation,
                self._sock,
                self.planner_factory,
                self.scoreboard,
            ),
            kwargs={
                "resilience": self.resilience,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "warm": self.warm,
                "journal_path": self.journal_path
                if self.journal is not None
                else None,
                "coordinator": self.coordinator_url,
            },
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        proc.start()
        self._procs[worker_id] = proc

    def _monitor_loop(self) -> None:
        interval = max(0.05, self.heartbeat_interval_s / 2)
        while not self._stopping.wait(interval):
            for worker_id, proc in list(self._procs.items()):
                if proc.is_alive() or self._stopping.is_set():
                    continue
                proc.join(timeout=0)
                # Preserve what the dead worker had published, then
                # hand its slot to a replacement.
                self.scoreboard.retire(worker_id)
                if self.respawn:
                    time.sleep(self.respawn_backoff_s)
                    self._spawn(worker_id)
                    self.respawns += 1
