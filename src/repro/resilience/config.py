"""Serving-resilience configuration.

One dataclass gathers every knob so the CLI, the service, and the
benchmarks construct identical pipelines.  The defaults are
deliberately permissive — a 2 s deadline and a 64-deep gate never
trigger in the test-suite's microsecond workloads — so wrapping a
planner in a :class:`~repro.service.PlannerService` with no explicit
config changes no observable behavior, only adds the guard rails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ResilienceConfig:
    """Knobs for deadlines, admission control, and serving."""

    #: Per-request wall-clock budget in milliseconds; ``None`` disables
    #: deadlines while keeping the rest of the layer.
    deadline_ms: Optional[float] = 2000.0

    # Admission control -------------------------------------------------
    #: Concurrent query requests admitted before shedding with 429.
    max_inflight: int = 64
    #: ``Retry-After`` hint (seconds) on 429 and shedding 503s.
    retry_after_s: float = 1.0
    #: How long readiness keeps reporting "shedding" after a shed.
    shed_grace_s: float = 1.0

    # Answer cache -------------------------------------------------------
    #: Per-worker hot-pair answer cache capacity in entries; ``0``
    #: (the default) disables caching entirely, keeping the
    #: pre-cache pipeline byte for byte.  See
    #: :class:`repro.serving.cache.AnswerCache` / docs/serving.md.
    cache_size: int = 0
    #: Departure-time bucket (seconds) used in cache keys — the
    #: granularity hot-pair grouping and invalidation sweeps reason at.
    cache_bucket_s: int = 900

    # Prefork live coordination ------------------------------------------
    #: Seconds a draining supervisor grants each worker to finish its
    #: in-flight requests after SIGTERM before escalating to SIGKILL.
    drain_grace_s: float = 5.0
    #: Worker journal-follower poll interval (seconds): the upper
    #: bound one *idle* poll adds to fan-out latency; a follower that
    #: just applied a record immediately re-polls for the next.
    journal_poll_s: float = 0.05

    # Input hardening ----------------------------------------------------
    #: Largest accepted request body; beyond it the service answers 413.
    max_body_bytes: int = 1 << 20
    #: Largest (source, target) workload a single ``POST /v1/batch``
    #: may request: ``len(sources) * len(targets)`` for matrices,
    #: ``len(targets)`` for one-to-many, ``n`` for isochrones.  Beyond
    #: it the service answers 400 with ``field`` naming the culprit.
    max_batch_pairs: int = 10000
