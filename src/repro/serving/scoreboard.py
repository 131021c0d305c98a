"""Shared-memory worker scoreboard.

A flat ``RawArray('d')`` with one row per worker plus one *retired*
row.  Workers publish their identity (pid, spawn generation, heartbeat
timestamp) and cumulative counters; readers — any worker answering
``/metrics`` or ``/healthz``, or the supervisor — aggregate without
locks.  Each cell is an 8-byte aligned double, so torn reads cannot
produce garbage values, only values from adjacent publishes; counters
are cumulative, so that is harmless.

The retired row is the monotonicity trick: before a dead worker's slot
is reused, the supervisor folds the worker's last published counters
into the retired totals.  ``totals()`` always returns
``sum(live rows) + retired``, so aggregated counters never move
backwards across a kill-and-respawn — the invariant the CI smoke job
asserts.

Liveness math runs on ``time.monotonic()``: heartbeats and their ages
must survive an NTP step, which under wall-clock arithmetic could mark
healthy workers dead (clock jumps forward) or report negative ages
(clock jumps backward).  ``CLOCK_MONOTONIC`` is system-wide, so
monotonic stamps compare correctly across the forked workers and the
supervisor.  A wall-clock stamp is still published, but only for
display (``last_heartbeat_unix``) — it never feeds an aliveness
decision.
"""

from __future__ import annotations

import time
from multiprocessing.sharedctypes import RawArray
from typing import Dict, List, Optional

#: Per-row identity cells (not summed).  ``heartbeat`` is a monotonic
#: stamp (liveness math); ``heartbeat_wall`` is wall time for display.
#: ``live_generation`` / ``journal_seq`` track how far the worker's
#: live overlay has converged on the supervisor's journal — state, not
#: a cumulative counter, so they live here and never feed ``totals()``.
IDENTITY_FIELDS = (
    "pid",
    "generation",
    "heartbeat",
    "heartbeat_wall",
    "live_generation",
    "journal_seq",
)

#: Per-row cumulative counters (summed by :meth:`Scoreboard.totals`).
#: Mirrors :meth:`repro.service.PlannerService.counters`.
COUNTER_FIELDS = (
    "requests",
    "queries",
    "labels_scanned",
    "sketches_generated",
    "unfold_fallbacks",
    "deadline_exceeded",
    "shed",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_invalidations",
)

FIELDS = IDENTITY_FIELDS + COUNTER_FIELDS


class Scoreboard:
    """Lock-free cross-process counters for ``num_workers`` workers."""

    def __init__(
        self, num_workers: int, liveness_timeout_s: float = 2.0
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"need at least one worker: {num_workers}")
        self.num_workers = num_workers
        self.liveness_timeout_s = liveness_timeout_s
        self._stride = len(FIELDS)
        # Last row = retired totals of dead workers.
        self._cells = RawArray("d", (num_workers + 1) * self._stride)

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------

    def publish(
        self,
        worker_id: int,
        counters: Dict[str, int],
        pid: int = 0,
        generation: int = 0,
        now: Optional[float] = None,
        wall: Optional[float] = None,
        live_generation: int = 0,
        journal_seq: int = 0,
    ) -> None:
        """Publish one worker's identity + cumulative counters.

        ``now`` overrides the monotonic heartbeat stamp and ``wall``
        the wall-clock display stamp (fake-clock tests).
        """
        base = self._base(worker_id)
        cells = self._cells
        cells[base + 0] = float(pid)
        cells[base + 1] = float(generation)
        cells[base + 2] = time.monotonic() if now is None else now
        cells[base + 3] = time.time() if wall is None else wall
        cells[base + 4] = float(live_generation)
        cells[base + 5] = float(journal_seq)
        for i, field in enumerate(COUNTER_FIELDS):
            cells[base + len(IDENTITY_FIELDS) + i] = float(
                counters.get(field, 0)
            )

    def retire(self, worker_id: int) -> None:
        """Fold a dead worker's counters into the retired row and clear
        its slot (the supervisor calls this before respawning)."""
        base = self._base(worker_id)
        retired = self.num_workers * self._stride
        cells = self._cells
        offset = len(IDENTITY_FIELDS)
        for i in range(len(COUNTER_FIELDS)):
            cells[retired + offset + i] += cells[base + offset + i]
        for i in range(self._stride):
            cells[base + i] = 0.0

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------

    def row(self, worker_id: int, now: Optional[float] = None) -> dict:
        """One worker's published state, JSON-ready.

        ``now`` is a monotonic reference (defaults to
        ``time.monotonic()``); age math never touches the wall clock,
        so an NTP step cannot flip liveness or produce negative ages.
        """
        base = self._base(worker_id)
        cells = self._cells
        heartbeat = cells[base + 2]
        wall = cells[base + 3]
        age = (time.monotonic() if now is None else now) - heartbeat
        counters = {
            field: int(cells[base + len(IDENTITY_FIELDS) + i])
            for i, field in enumerate(COUNTER_FIELDS)
        }
        return {
            "worker": worker_id,
            "pid": int(cells[base + 0]),
            "generation": int(cells[base + 1]),
            "alive": heartbeat > 0.0 and age <= self.liveness_timeout_s,
            "heartbeat_age_s": round(age, 3) if heartbeat > 0.0 else None,
            "last_heartbeat_unix": (
                round(wall, 3) if heartbeat > 0.0 else None
            ),
            "live_generation": int(cells[base + 4]),
            "journal_seq": int(cells[base + 5]),
            "counters": counters,
        }

    def workers(self, now: Optional[float] = None) -> List[dict]:
        """Per-worker rows (``/healthz`` liveness payload)."""
        if now is None:
            now = time.monotonic()
        return [self.row(w, now=now) for w in range(self.num_workers)]

    def retired_totals(self) -> Dict[str, int]:
        """Counters accumulated by workers that have since died."""
        base = self.num_workers * self._stride + len(IDENTITY_FIELDS)
        return {
            field: int(self._cells[base + i])
            for i, field in enumerate(COUNTER_FIELDS)
        }

    def totals(self) -> Dict[str, int]:
        """Live rows + retired row — monotonic across worker deaths."""
        totals = self.retired_totals()
        for worker_id in range(self.num_workers):
            base = self._base(worker_id) + len(IDENTITY_FIELDS)
            for i, field in enumerate(COUNTER_FIELDS):
                totals[field] += int(self._cells[base + i])
        return totals

    def _base(self, worker_id: int) -> int:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker id {worker_id} outside 0..{self.num_workers - 1}"
            )
        return worker_id * self._stride
