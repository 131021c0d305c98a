"""A minimal HTTP JSON API over a planner (stdlib only).

The deployment story the paper implies — build the index offline,
serve microsecond queries online — in a few hundred lines of standard
library, with production guard rails:

    from repro.datasets import load_dataset
    from repro.core import TTLPlanner
    from repro.service import PlannerService

    service = PlannerService(TTLPlanner(load_dataset("Berlin")))
    service.start(port=8080)          # non-blocking (daemon thread)

Every endpoint answers under the ``/v1`` prefix, and every success is
one envelope::

    {"data": <the result>, "meta": {"elapsed_us": ..., "degraded": ...,
                                    "worker": ...}}

``meta.elapsed_us`` is server-side handling time, ``meta.degraded`` is
always ``false`` (answers are always exact; the key stays for wire
compatibility), and ``meta.worker`` identifies the serving process
under prefork multi-worker serving (:mod:`repro.serving`).  Parsing,
shaping and the route lookup live in :mod:`repro.serving.api`, shared
with the federation router; a path outside the table, the bare
unversioned ones included, answers 404.

Query endpoints (GET, JSON responses):

* ``/v1/healthz``                          — liveness + planner identity
* ``/v1/healthz/live``                     — bare liveness probe
* ``/v1/healthz/ready``                    — readiness (503 while
  warming or shedding)
* ``/v1/metrics``                          — cumulative query counters
* ``/v1/resilience``                       — deadline/gate state
* ``/v1/stations``                         — id/name listing
* ``/v1/eap?from=U&to=V&t=SECONDS``        — earliest arrival
* ``/v1/ldp?from=U&to=V&t=SECONDS``        — latest departure
* ``/v1/sdp?from=U&to=V&t=A&t_end=B``      — shortest duration
* ``/v1/profile?from=U&to=V&t=A&t_end=B``  — non-dominated (dep, arr)
  pairs

Batched accessibility queries go through one POST instead of N GETs:

* ``POST /v1/batch`` with body ``{"kind": "one_to_many", "source": U,
  "targets": [...], "t": T}``, ``{"kind": "matrix", "sources": [...],
  "targets": [...], "t": T}``, or ``{"kind": "isochrone", "source": U,
  "t": T, "budget": B}``.  Workloads larger than
  ``ResilienceConfig.max_batch_pairs`` pairs are rejected with 400
  (and bodies above ``max_body_bytes`` with 413, as everywhere).

When the planner is a :class:`~repro.live.engine.LiveOverlayEngine`,
disruption endpoints come alive, and ``/v1/batch`` answers each source
with one earliest-arrival search over the live overlay (the sealed
index does not know about disruptions):

* ``GET  /v1/live/events``   — registered (id, event) pairs
* ``GET  /v1/live/stats``    — fast-path / fallback / feed-skip counters
* ``POST /v1/live/events``   — body = one event dict; returns its id
* ``POST /v1/live/advance``  — body ``{"now": seconds}``; expires events
* ``POST /v1/live/clear``    — body ``{"id": n}`` or ``{}`` for all

Every query request runs through the
:class:`~repro.resilience.ResilientExecutor` pipeline: a bounded
in-flight admission gate (429 + ``Retry-After`` when shedding) and a
per-request deadline (504 on expiry).

Every error — any method, any path, any status — carries one JSON
shape: ``{"error": <message>, "field": <offending parameter or null>,
"hint": <actionable suggestion or null>}``.  The CLI prints the same
triple on stderr.  The full status-code contract:

====== =================================================================
status meaning
====== =================================================================
200    answered (infeasible journeys are ``{"journey": null}``)
400    invalid input (``field`` names the culprit when one parameter
       is at fault)
404    unknown path
413    request body larger than the configured cap
429    shed by admission control (``Retry-After`` header)
431    request line plus headers exceed 64 KiB
500    unexpected internal error (JSON body; the handler thread
       survives)
501    unsupported HTTP method
503    not ready yet (index still building) or shedding
       (``Retry-After`` header)
504    request deadline exceeded
====== =================================================================

A service-level lock serializes planner access against overlay swaps,
so injecting an event while queries are in flight is safe.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Dict, Optional

from repro.core.batch import batch_plan, batch_search
from repro.errors import (
    ConflictError,
    ReproError,
    RequestValidationError,
    ServiceNotReady,
)
from repro.live.engine import LiveOverlayEngine
from repro.live.events import event_from_dict
from repro.planner import RoutePlanner
from repro.query import QUERY_TYPES, QueryRequest
from repro.resilience import ResilienceConfig, ResilientExecutor
from repro.serving import api
from repro.serving.http import (
    HttpServer,
    Request,
    Response,
    error_response,
    json_response,
)


class PlannerService:
    """Serve one preprocessed planner over HTTP."""

    def __init__(
        self,
        planner: RoutePlanner,
        resilience: Optional[ResilienceConfig] = None,
        worker_id: int = 0,
        scoreboard=None,
        journal=None,
        coordinator: Optional[str] = None,
        epoch: Optional[str] = None,
    ) -> None:
        """Wrap ``planner`` for serving.

        Args:
            planner: any :class:`~repro.planner.RoutePlanner`.
            resilience: deadline/gate/cache knobs (the defaults are
                permissive).
            worker_id: identity reported in ``meta.worker`` of ``/v1``
                envelopes; the prefork supervisor numbers its workers,
                single-process serving keeps the default ``0``.
            scoreboard: shared
                :class:`~repro.serving.scoreboard.Scoreboard` under
                prefork serving.  When set, ``/metrics`` carries
                cluster-aggregated counters and ``/healthz`` carries
                per-worker liveness, both read from shared memory by
                whichever worker answers.
            journal: a :class:`~repro.serving.journal.LiveJournal`
                this service *writes* — the supervisor's control-plane
                role.  Live mutations are applied to the local (live)
                planner, durably appended, and only then acknowledged;
                responses carry the assigned ``seq``.
            coordinator: URL of the supervisor's coordinated mutation
                endpoint — the prefork *worker* role.  When set, live
                mutation POSTs answer 409 pointing clients at the
                coordinated path; this worker's live state changes only
                through its journal follower.
            epoch: deployment-level cache-epoch component (e.g. a
                federation manifest epoch plus region id).  Folded into
                :meth:`cache_epoch` so answers cached against one
                shard/manifest can never be served from another whose
                graph happens to have identical ``(n, m, labels)``
                counts.
        """
        if journal is not None and coordinator is not None:
            raise ValueError(
                "a service is either the journal writer or a "
                "coordinated worker, never both"
            )
        self.planner = planner
        self.worker_id = worker_id
        self.scoreboard = scoreboard
        self.journal = journal
        self.coordinator = coordinator
        #: Worker-side journal tail (set by worker_main under prefork
        #: live serving); readiness requires it to have caught up.
        self.journal_follower = None
        #: Journal records that failed to apply locally (should stay 0:
        #: the supervisor validated them before appending).
        self.journal_skipped = 0
        #: Spawn generation under prefork serving (set by worker_main).
        self.generation = 0
        #: Requests handled (any endpoint, any status) — fed to the
        #: prefork scoreboard and summed across workers in /metrics.
        self.requests_handled = 0
        self.config = resilience or ResilienceConfig()
        #: Per-worker hot-pair answer cache (None when disabled).  Its
        #: taint-driven invalidation runs under :attr:`lock` on every
        #: live mutation; see repro/serving/cache.py.
        self.cache = None
        if self.config.cache_size > 0:
            from repro.serving.cache import AnswerCache

            self.cache = AnswerCache(
                self.config.cache_size,
                bucket_s=self.config.cache_bucket_s,
            )
        self._epoch: Optional[str] = None
        self._epoch_override = epoch
        #: Federation worker role (set by the federated serving path
        #: before :meth:`start`): its ``primitives`` map each internal
        #: ``POST /fed/*`` stitch primitive to the function answering it.
        self.fed = None
        #: Serializes planner access against live overlay swaps.
        self.lock = threading.RLock()
        self._live = (
            planner if isinstance(planner, LiveOverlayEngine) else None
        )
        self.executor = ResilientExecutor(self.config)
        self._ready = threading.Event()
        self._warm_error: Optional[str] = None
        self._server: Optional[HttpServer] = None
        self._warm_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        warm: bool = True,
        sock: Optional[socket.socket] = None,
    ) -> int:
        """Bind and serve on a daemon thread; returns the bound port.

        With ``warm=True`` (default) preprocessing happens before the
        socket binds, so the first request already finds a ready
        service — the historical behavior.  With ``warm=False`` the
        socket binds immediately and the index builds on a background
        thread; until it finishes, query endpoints and
        ``/healthz/ready`` answer 503 (liveness stays 200), which is
        the contract a rolling deployment's health checks rely on.

        ``sock`` adopts an already-bound, already-listening socket
        instead of binding a fresh one — the prefork path, where the
        supervisor binds once and every forked worker ``accept()``\\ s
        on the shared descriptor.  ``host``/``port`` are ignored then.
        """
        if warm:
            self._warm_up()
        self._server = HttpServer(
            _make_handler(self),
            sock=sock,
            host=host,
            port=port,
            max_body_bytes=self.config.max_body_bytes,
        )
        self._server.start()
        if not warm:
            self._warm_thread = threading.Thread(
                target=self._warm_up, daemon=True
            )
            self._warm_thread.start()
        return self._server.port

    def _warm_up(self) -> None:
        try:
            self.planner.preprocess()
        except Exception as exc:  # surfaced via readiness, not a crash
            self._warm_error = f"{exc.__class__.__name__}: {exc}"
            return
        self._ready.set()

    @property
    def ready(self) -> bool:
        """True once preprocessing finished."""
        return self._ready.is_set()

    def counters(self) -> Dict[str, int]:
        """Flat cumulative counters for cross-process aggregation.

        The prefork scoreboard publishes exactly these fields; the
        supervisor sums them across workers (plus retired totals from
        dead workers) so aggregated ``/metrics`` stays monotonic.
        """
        counters = {
            "requests": self.requests_handled,
            "queries": 0,
            "labels_scanned": 0,
            "sketches_generated": 0,
            "unfold_fallbacks": 0,
            "deadline_exceeded": 0,
            "shed": 0,
        }
        metrics = getattr(self.planner, "metrics", None)
        if metrics is not None:
            counters["queries"] = metrics.queries
            counters["labels_scanned"] = metrics.labels_scanned
            counters["sketches_generated"] = metrics.sketches_generated
            counters["unfold_fallbacks"] = metrics.unfold_fallbacks
        snapshot = self.executor.snapshot()
        counters["deadline_exceeded"] = snapshot["deadline_exceeded"]
        counters["shed"] = snapshot["admission"]["shed"]
        counters.update(
            self.cache.counters()
            if self.cache is not None
            else {
                "cache_hits": 0,
                "cache_misses": 0,
                "cache_evictions": 0,
                "cache_invalidations": 0,
            }
        )
        return counters

    def cache_epoch(self) -> str:
        """Fingerprint of the timetable + sealed index this worker
        serves — a cache-key component, so answers computed on one
        index can never be resurrected against another.  Only
        meaningful once the service is ready."""
        if self._epoch is None:
            graph = self.planner.graph
            index = getattr(self.planner, "index", None)
            labels = index.num_labels if index is not None else 0
            epoch = f"{graph.n}.{graph.m}.{labels}"
            if self._epoch_override is not None:
                # Shape counts alone collide across shards/manifests
                # (two region shards can share (n, m, labels)); the
                # deployment-level component disambiguates.
                epoch = f"{self._epoch_override}.{epoch}"
            self._epoch = epoch
        return self._epoch

    def live_generation(self) -> int:
        """The live engine's patch generation (0 for static planners).

        Published per worker through the scoreboard so cross-worker
        divergence — the thing the journal fan-out exists to close —
        is observable from ``/healthz`` and ``/v1/metrics``.
        """
        return self._live.generation if self._live is not None else 0

    def journal_seq(self) -> int:
        """Last journal record applied (writer: last appended)."""
        if self.journal_follower is not None:
            return self.journal_follower.applied_seq
        if self.journal is not None:
            return self.journal.seq
        return 0

    def revalidate_cache(self) -> None:
        """Taint-driven cache sweep after a live mutation (caller holds
        :attr:`lock`).  Entries whose static answers the TaintAnalyzer
        certifies against the new patch-set are re-keyed to the new
        generation; the rest are evicted."""
        live = self._live
        if self.cache is None or live is None:
            return
        self.cache.revalidate(
            live.generation,
            certify=lambda entry: live.static_answer_valid(
                entry.query_type,
                entry.origin,
                entry.destination,
                entry.t,
                entry.t_end,
            ),
        )

    def apply_journal_record(self, record: dict) -> None:
        """Apply one journal record under the overlay-swap lock.

        The worker-side fan-out path: the follower thread calls this
        for every durable frame, in order, so the same taint-driven
        cache revalidation that guards direct mutations runs per
        worker per record.  Records the supervisor validated before
        appending should never fail here; one that does is counted and
        skipped rather than wedging the follower behind it forever.
        """
        if self._live is None:
            return
        from repro.serving.journal import apply_record

        with self.lock:
            try:
                apply_record(self._live, record)
            except ReproError:
                self.journal_skipped += 1
                return
            self.revalidate_cache()

    def publish_counters(self) -> None:
        """Push this worker's counters to the shared scoreboard now
        (the worker heartbeat loop also does this periodically)."""
        if self.scoreboard is not None:
            self.scoreboard.publish(
                self.worker_id,
                self.counters(),
                pid=os.getpid(),
                generation=self.generation,
                live_generation=self.live_generation(),
                journal_seq=self.journal_seq(),
            )

    def stop(self) -> None:
        """Shut the server down — a graceful drain: every accepted
        request gets its response first (bounded by per-request
        deadlines plus the supervisor's SIGKILL escalation, not by
        abandoning work) — and join the threads."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._warm_thread is not None:
            self._warm_thread.join(timeout=5)
            self._warm_thread = None


def _make_handler(service: PlannerService):
    """The service's route table over :mod:`repro.serving.api`, as the
    one ``handle(request)`` the transport calls."""
    planner = service.planner
    graph = planner.graph
    lock = service.lock
    live = service._live
    executor = service.executor
    config = service.config
    scoreboard = service.scoreboard
    cache = service.cache

    def build_progress():
        """Build-farm progress payload while warming, else None."""
        if service._ready.is_set():
            return None
        tracker = getattr(planner, "build_progress", None)
        if tracker is None:
            return None
        return tracker.snapshot().as_dict()

    def require_ready() -> None:
        if not service._ready.is_set():
            reason = (
                f"preprocessing failed: {service._warm_error}"
                if service._warm_error is not None
                else "service is warming up (index still building)"
            )
            raise ServiceNotReady(reason, retry_after=config.retry_after_s)
        follower = service.journal_follower
        if follower is not None and not follower.caught_up.is_set():
            # A worker that has not replayed the live-event journal
            # to its tail could serve pre-disruption answers; it
            # must not report ready or answer queries until caught
            # up (the replay-to-ready contract).
            raise ServiceNotReady(
                "replaying live-event journal "
                f"(applied seq {follower.applied_seq})",
                retry_after=config.retry_after_s,
            )

    def require_live() -> None:
        if live is None:
            raise ValueError(
                f"{planner.name} is not a live engine; start the "
                "service with a LiveOverlayEngine to use /v1/live/*"
            )

    def require_writer(path: str) -> None:
        """Reject direct mutations on journal followers (HTTP 409).

        Under prefork serving each worker only *follows* the
        supervisor's journal; a mutation applied to one worker would
        silently diverge the fleet.
        """
        coordinator = service.coordinator
        if coordinator is not None:
            raise ConflictError(
                "live mutations are coordinated by the supervisor "
                "under prefork serving; this worker only follows "
                "the journal",
                hint=f"POST to {coordinator}{path} (the journalled "
                "path, fanned out to every worker)",
            )

    def run(fn):
        """Run a query through the resilience pipeline."""
        require_ready()
        result, _ = executor.run(fn, lock=lock)
        return result

    def cache_key(kind, origin, destination, t, t_end=None, extra=()):
        """Key for the answer cache, or None when caching is off.

        Requires a ready service (the epoch fingerprints the built
        index), so callers probe readiness first — exactly what a
        cache-less request would do inside ``run``.
        """
        if cache is None:
            return None
        require_ready()
        return cache.make_key(
            kind,
            origin,
            destination,
            t,
            epoch=service.cache_epoch(),
            generation=live.generation if live is not None else 0,
            t_end=t_end,
            extra=extra,
        )

    def plan_body(
        request: QueryRequest, t: int, t_end: Optional[int]
    ) -> dict:
        """Answer one point-to-point query through the unified
        :meth:`~repro.planner.RoutePlanner.plan` entry point; ``t`` /
        ``t_end`` are the cache key's time fields
        (:func:`~repro.serving.api.point_query`)."""
        key = cache_key(
            request.query_type,
            request.source,
            request.destination,
            t,
            t_end=t_end,
        )
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                return hit
        result = run(lambda: planner.plan(request))
        if request.query_type == "profile":
            body = {"pairs": [list(pair) for pair in result.pairs]}
        else:
            journey = result.journey
            body = {"journey": journey.to_dict() if journey else None}
        if key is not None:
            # ``static_ok`` marks answers that are pure functions of
            # the sealed index — the live engine's fast path — which
            # invalidation sweeps may re-key across generations
            # after certifying them against the new patch.
            static_ok = live is None or live.last_query_fast_path
            cache.put(key, body, static_ok=static_ok, t_end=t_end)
        return body

    def point(kind: str):
        return lambda request: plan_body(
            *api.point_query(kind, request.params)
        )

    def healthz(request: Request) -> dict:
        body = {
            "status": "ok",
            "planner": planner.name,
            "stations": graph.n,
            "live": live is not None,
            "ready": service._ready.is_set(),
            "preprocess_seconds": planner.preprocess_seconds,
        }
        build = build_progress()
        if build is not None:
            body["build"] = build
        if live is not None:
            with lock:
                body["now"] = live.now
                body["generation"] = live.generation
                body["live_generation"] = live.generation
                body["events"] = len(live.events())
        follower = service.journal_follower
        if follower is not None:
            journal_body = follower.snapshot()
            journal_body["role"] = "follower"
            journal_body["skipped"] = service.journal_skipped
            body["journal"] = journal_body
        elif service.journal is not None:
            journal_body = service.journal.snapshot()
            journal_body["role"] = "writer"
            body["journal"] = journal_body
        if scoreboard is not None:
            body["worker"] = service.worker_id
            body["workers"] = scoreboard.workers()
        return body

    def healthz_ready(request: Request) -> dict:
        require_ready()
        if executor.admission.shedding:
            raise ServiceNotReady(
                "shedding load (admission gate saturated)",
                retry_after=config.retry_after_s,
            )
        return {"ready": True}

    def resilience(request: Request) -> dict:
        body = executor.snapshot()
        if cache is not None:
            body["cache"] = cache.snapshot()
        return body

    def metrics(request: Request) -> dict:
        body = {"planner": planner.name}
        query_metrics = getattr(planner, "metrics", None)
        with lock:
            if query_metrics is not None:
                body["query_metrics"] = query_metrics.snapshot()
            if service._ready.is_set():
                index = getattr(planner, "index", None)
                if index is not None:
                    body["index"] = {
                        "num_labels": index.num_labels,
                        "unfold_fallbacks": index.unfold_fallbacks,
                        "store_bytes": index.store_bytes(),
                    }
        body["resilience"] = executor.snapshot()
        if live is not None:
            body["live"] = {
                "generation": live.generation,
                "now": live.now,
                "journal_seq": service.journal_seq(),
            }
        if cache is not None:
            body["cache"] = cache.snapshot()
        if scoreboard is not None:
            # Fold this worker's very latest counters in before
            # aggregating, then sum live rows + retired totals from
            # shared memory — the cluster-wide view any single worker
            # can serve.
            service.publish_counters()
            body["cluster"] = {
                "worker": service.worker_id,
                "workers": scoreboard.workers(),
                "totals": scoreboard.totals(),
            }
        return body

    def live_events(request: Request) -> dict:
        require_live()
        with lock:
            events = live.events()
        return {
            "events": [
                {"id": eid, "event": event.to_dict()} for eid, event in events
            ]
        }

    def live_stats(request: Request) -> dict:
        require_live()
        with lock:
            body = live.stats.snapshot()
            body["generation"] = live.generation
            body["now"] = live.now
            body["feed_skipped"] = live.feed_skipped
        return body

    def batch(request: Request) -> dict:
        """``POST /v1/batch`` — batched accessibility queries."""
        body = request.json_body()
        index = getattr(planner, "index", None)
        if index is None:
            raise ValueError(
                f"{planner.name} does not expose a TTL index; "
                "batch queries need one"
            )
        key = None
        t_raw = body.get("t")
        if (
            cache is not None
            and isinstance(t_raw, int)
            and not isinstance(t_raw, bool)
        ):
            # The canonical body is the key; origin/destination are
            # sentinels (a batch spans many pairs, so invalidation
            # cannot certify it per-pair — static_ok=False below
            # makes any generation bump evict it).
            key = cache_key(
                "batch",
                -1,
                -1,
                t_raw,
                extra=(json.dumps(body, sort_keys=True),),
            )
            hit = cache.get(key)
            if hit is not None:
                return hit
        query = api.batch_query(body, graph.n, config.max_batch_pairs)
        if live is None:
            answer = run(lambda: batch_plan(index, [query])[0])
        else:
            # The sealed index knows nothing of live events: search
            # the overlay instead, one search per source.
            answer = run(lambda: batch_search(live.overlay, [query])[0])
        result = api.batch_body(query, answer)
        if key is not None:
            cache.put(key, result, static_ok=False)
        return result

    def mutation(apply):
        """A live-mutation route: ``apply(body)`` runs under the lock
        and returns the answer plus the journal record replaying it."""

        def route(request: Request) -> dict:
            body = request.json_body()
            require_live()
            require_ready()
            require_writer(request.path)
            with lock:
                result, record = apply(body)
                service.revalidate_cache()
                if service.journal is not None:
                    # Appended once applied, under the lock: journal
                    # order is apply order.
                    result["seq"] = service.journal.append(record)
            return result

        return route

    def apply_event(body: dict):
        event = event_from_dict(body)
        event_id = live.apply_event(event)
        return (
            {"id": event_id, "generation": live.generation},
            {"op": "apply_event", "id": event_id, "event": event.to_dict()},
        )

    def advance(body: dict):
        now = api.int_field(body, "now")
        if now < live.now:
            raise RequestValidationError(
                f"'now' must not move backwards: {now} < "
                f"current live clock {live.now}",
                field="now",
                hint="the live clock is monotonic; POST a value >= the "
                "current clock (see GET /v1/live/stats)",
            )
        live.advance_to(now)
        return (
            {"now": now, "events": len(live.events())},
            {"op": "advance", "now": now},
        )

    def clear(body: dict):
        if "id" in body:
            event_id = api.int_field(body, "id")
            live.clear_event(event_id)
            return {"cleared": 1}, {"op": "clear", "id": event_id}
        return {"cleared": live.clear_all()}, {"op": "clear_all"}

    def seam(primitive):
        """An internal ``POST /fed/*`` route: answered un-enveloped."""

        def route(request: Request) -> Response:
            body = request.json_body()
            require_ready()
            with lock:
                return json_response(200, primitive(body))

        return route

    routes: api.Routes = {
        ("GET", "/v1/healthz"): healthz,
        ("GET", "/v1/healthz/live"): lambda request: {"status": "alive"},
        ("GET", "/v1/healthz/ready"): healthz_ready,
        ("GET", "/v1/resilience"): resilience,
        ("GET", "/v1/metrics"): metrics,
        ("GET", "/v1/stations"): lambda request: api.stations(graph),
        **{("GET", f"/v1/{kind}"): point(kind) for kind in QUERY_TYPES},
        ("GET", "/v1/live/events"): live_events,
        ("GET", "/v1/live/stats"): live_stats,
        ("POST", "/v1/batch"): batch,
        ("POST", "/v1/live/events"): mutation(apply_event),
        ("POST", "/v1/live/advance"): mutation(advance),
        ("POST", "/v1/live/clear"): mutation(clear),
    }
    if service.fed is not None:
        for name, primitive in service.fed.primitives.items():
            routes["POST", f"/fed{name}"] = seam(primitive)

    def on_error(exc: Exception) -> Response:
        build = (
            build_progress() if isinstance(exc, ServiceNotReady) else None
        )
        return error_response(
            exc, extra=None if build is None else {"build": build}
        )

    def handle(request: Request) -> Response:
        service.requests_handled += 1
        return api.dispatch(routes, request, service.worker_id, on_error)

    return handle
