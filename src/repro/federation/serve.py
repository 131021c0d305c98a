"""Federated serving: per-region workers behind a stitching router.

Process layout (one :class:`FederationSupervisor`):

* **K region workers** — forked children, one per region shard.  Each
  memory-maps *only its region's* index file plus the shared border
  index (per-worker RSS is bounded by shard + border, the point of
  federating), serves the full ``/v1`` query surface for queries whose
  endpoints both live in its region (including the self-stitch for
  intra-region journeys that detour through a neighbor — see
  :mod:`repro.federation.stitch`), and exposes the internal
  ``POST /fed/*`` seam primitives.
* **The router** — a thread-pool HTTP server in the supervisor
  process holding no labels at all, only the manifest's stop → region
  table.  An *intra-region* request is proxied whole to the owning
  worker: exactly one hop, never a fan-out.  A *cross-region* request
  is answered by chaining seam primitives across the two owning
  workers (``out`` on the source shard, ``close`` on the target shard,
  plus the mirrored pair for the canonical departure).  ``/v1/batch``
  splits its targets by region, reuses one ``out`` per remote region,
  and merges.

Workers keep the prefork contract from :mod:`repro.serving`: sockets
are bound by the supervisor before any fork (so a respawned worker
reuses its port), liveness is heartbeat rows in the shared scoreboard,
and a killed worker is respawned into the same slot with a bumped
generation.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.algorithms.profiles import ParetoProfile
from repro.core.order import graph_digest
from repro.errors import (
    FederationError,
    RequestValidationError,
    ServiceNotReady,
)
from repro.federation.manifest import FederationManifest
from repro.federation.stitch import FederatedPlanner, load_federation
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.resilience import ResilienceConfig
from repro.serving.http import (
    HttpServer,
    Request,
    Response,
    error_body,
    error_response,
    json_response,
)
from repro.serving.scoreboard import Scoreboard
from repro.serving.supervisor import ServingSupervisor
from repro.timeutil import INF, NEG_INF

#: Router → worker sub-request timeout (seconds).
SUBREQUEST_TIMEOUT_S = 30.0


class FederationWorkerRole:
    """Answers the internal ``POST /fed/*`` seam primitives.

    Attached to a worker's :class:`~repro.service.PlannerService` as
    ``service.fed``; calls arrive under the service lock with readiness
    already checked.  Bodies and responses are small JSON dicts — the
    station-keyed maps use string keys (JSON objects cannot key by
    int).
    """

    def __init__(self, planner: FederatedPlanner, region: int) -> None:
        self.planner = planner
        self.region = region

    def handle(self, subpath: str, body: dict):
        planner = self.planner
        if subpath == "/info":
            manifest = planner.manifest
            entry = manifest.region_entry(self.region)
            return {
                "region": self.region,
                "stations": len(entry.stops),
                "borders": len(
                    planner.borders_by_region.get(self.region, [])
                ),
                "epoch": manifest.epoch,
                "labels": entry.labels,
            }
        if subpath == "/out":
            t2 = planner.reach_out(
                _int_field(body, "u"),
                _int_field(body, "t"),
                _int_field(body, "target_region"),
            )
            return {"t2": {str(b2): arr for b2, arr in t2.items()}}
        if subpath == "/eap_close":
            arr = planner.eap_close(
                _int_field(body, "v"), _station_map(body, "t2")
            )
            return {"arr": None if arr >= INF else arr}
        if subpath == "/back":
            s1 = planner.reach_back(
                _int_field(body, "v"),
                _int_field(body, "t"),
                _int_field(body, "source_region"),
            )
            return {"s1": {str(b1): dep for b1, dep in s1.items()}}
        if subpath == "/ldp_close":
            dep = planner.ldp_close(
                _int_field(body, "u"), _station_map(body, "s1")
            )
            return {"dep": None if dep <= NEG_INF else dep}
        if subpath == "/close_many":
            t2 = _station_map(body, "t2")
            arrivals = {}
            for v in _int_list_field(body, "targets"):
                arr = planner.eap_close(v, t2)
                arrivals[str(v)] = None if arr >= INF else arr
            return {"arrivals": arrivals}
        if subpath == "/profile_out":
            candidates = planner.profile_out(
                _int_field(body, "u"),
                _int_field(body, "t"),
                _int_field(body, "t_end"),
                _int_field(body, "target_region"),
            )
            return {"candidates": [list(c) for c in candidates]}
        if subpath == "/profile_close":
            candidates = [
                (int(dep), int(b2), int(a2))
                for dep, b2, a2 in body.get("candidates", [])
            ]
            pairs = planner.profile_close(
                _int_field(body, "v"),
                _int_field(body, "t_end"),
                candidates,
            )
            return {"pairs": [list(p) for p in pairs]}
        if subpath == "/one_to_many":
            arrivals = planner.one_to_many(
                _int_field(body, "source"),
                _int_list_field(body, "targets"),
                _int_field(body, "t"),
            )
            return {
                "arrivals": {str(v): arr for v, arr in arrivals.items()}
            }
        raise RequestValidationError(
            f"unknown federation primitive: {subpath!r}",
            hint="expected one of /info /out /eap_close /back "
            "/ldp_close /close_many /profile_out /profile_close "
            "/one_to_many",
        )


def _station_map(body: dict, name: str) -> Dict[int, int]:
    """Parse a ``{station: time}`` JSON object field (string keys)."""
    value = body.get(name)
    if not isinstance(value, dict):
        raise RequestValidationError(
            f"body field {name!r} must be an object mapping station "
            f"ids to times, got {value!r}",
            field=name,
        )
    try:
        return {int(k): int(v) for k, v in value.items()}
    except (TypeError, ValueError):
        raise RequestValidationError(
            f"body field {name!r} must map integer station ids to "
            "integer times",
            field=name,
        ) from None


def _int_field(body: dict, name: str) -> int:
    from repro.service import _int_field as impl

    return impl(body, name)


def _int_list_field(body: dict, name: str) -> list:
    from repro.service import _int_list_field as impl

    return impl(body, name)


def _federation_worker_main(
    region: int,
    generation: int,
    sock: socket.socket,
    graph: TimetableGraph,
    manifest_path: str,
    scoreboard: Scoreboard,
    resilience: Optional[ResilienceConfig] = None,
    heartbeat_interval_s: float = 0.25,
    mmap: bool = True,
) -> None:
    """One region worker (runs in the forked child).

    Loads *only* this region's shard (memory-mapped) plus the border
    index, serves queries between stations of the region (the planner
    self-stitches detours), answers ``/fed/*`` seam primitives for the
    router, and heartbeats until SIGTERM.  The cache epoch folds in the
    manifest epoch and region id, so a rebuilt or re-partitioned
    federation can never resurrect stale cached answers.
    """
    from repro.service import PlannerService

    planner = load_federation(
        manifest_path, graph, regions=[region], mmap=mmap, verify=False
    )
    service = PlannerService(
        planner,
        resilience=resilience,
        worker_id=region,
        scoreboard=scoreboard,
        epoch=f"{planner.manifest.epoch}/r{region}",
    )
    service.generation = generation
    service.fed = FederationWorkerRole(planner, region)

    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())

    service.start(sock=sock, warm=True)
    service.publish_counters()
    try:
        while not drain.wait(timeout=heartbeat_interval_s):
            service.publish_counters()
    except KeyboardInterrupt:
        return
    service.stop()
    service.publish_counters()


class FederationSupervisor(ServingSupervisor):
    """Per-region prefork workers behind a stitching router.

    The public port (returned by :meth:`start`) is the router's; the
    per-region worker ports are internal (``worker_ports``) but plain
    HTTP, which the equivalence tests use to query shards directly.
    """

    def __init__(
        self,
        graph: TimetableGraph,
        manifest_path: str,
        resilience: Optional[ResilienceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_s: float = 0.25,
        respawn: bool = True,
        respawn_backoff_s: float = 0.1,
        mmap: bool = True,
        verify: bool = True,
    ) -> None:
        manifest = FederationManifest.load(manifest_path)
        manifest.check_graph(graph_digest(graph))
        if verify:
            manifest.verify_files()

        def _no_factory():
            raise FederationError(
                "federation workers build their own planners; the "
                "shared factory must never be called"
            )

        super().__init__(
            planner_factory=_no_factory,
            workers=manifest.num_regions,
            resilience=resilience,
            host=host,
            port=port,
            heartbeat_interval_s=heartbeat_interval_s,
            respawn=respawn,
            respawn_backoff_s=respawn_backoff_s,
        )
        self.graph = graph
        self.manifest = manifest
        self.manifest_path = manifest_path
        self.mmap = mmap
        #: region → bound worker port (stable across respawns).
        self.worker_ports: Dict[int, int] = {}
        self._region_socks: Dict[int, socket.socket] = {}
        self._router: Optional[HttpServer] = None
        #: Router-side federation counters (served in /v1/metrics).
        self.router_stats = {
            "intra_proxied": 0,
            "cross_stitched": 0,
            "batch_requests": 0,
            "subrequests": 0,
        }
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle (overrides: K sockets + a router instead of one socket)
    # ------------------------------------------------------------------

    def start(self) -> int:
        """Bind one socket per region, fork the workers, start the
        monitor and the router; returns the router's port."""
        for region in range(self.manifest.num_regions):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, 0))
            sock.listen(128)
            sock.setblocking(False)
            self._region_socks[region] = sock
            self.worker_ports[region] = sock.getsockname()[1]
        for region in range(self.manifest.num_regions):
            self._spawn(region)
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True
        )
        self._monitor.start()
        config = self.resilience or ResilienceConfig()
        self._router = HttpServer(
            _make_router_handler(self),
            host=self.host,
            port=self.port,
            max_body_bytes=config.max_body_bytes,
        )
        self.port = self._router.start()
        return self.port

    def stop(self) -> None:
        self._stop_router()
        super().stop()
        self._close_region_socks()

    def drain(self, grace_s: float = 5.0) -> bool:
        self._stop_router()
        clean = super().drain(grace_s)
        self._close_region_socks()
        return clean

    def _stop_router(self) -> None:
        """Router first: its in-flight requests are answered while the
        region workers they fan out to are still alive."""
        if self._router is not None:
            self._router.stop()
            self._router = None

    def _close_region_socks(self) -> None:
        for sock in self._region_socks.values():
            sock.close()
        self._region_socks.clear()

    def _spawn(self, worker_id: int) -> None:
        self._generation += 1
        proc = self._ctx.Process(
            target=_federation_worker_main,
            args=(
                worker_id,
                self._generation,
                self._region_socks[worker_id],
                self.graph,
                self.manifest_path,
                self.scoreboard,
            ),
            kwargs={
                "resilience": self.resilience,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "mmap": self.mmap,
            },
            daemon=True,
            name=f"repro-fed-worker-r{worker_id}",
        )
        proc.start()
        self._procs[worker_id] = proc

    # ------------------------------------------------------------------
    # Router helpers
    # ------------------------------------------------------------------

    def bump(self, counter: str, by: int = 1) -> None:
        with self._stats_lock:
            self.router_stats[counter] += by

    def call_worker(self, region: int, path: str, body: dict) -> dict:
        """One POST sub-request to a region worker (internal seam)."""
        self.bump("subrequests")
        conn = http.client.HTTPConnection(
            self.host,
            self.worker_ports[region],
            timeout=SUBREQUEST_TIMEOUT_S,
        )
        try:
            payload = json.dumps(body)
            conn.request(
                "POST",
                path,
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            data = json.loads(raw) if raw else {}
            if response.status == 503:
                raise ServiceNotReady(
                    f"region {region} worker not ready: "
                    f"{data.get('error')}"
                )
            if response.status != 200:
                raise FederationError(
                    f"region {region} worker answered "
                    f"{response.status} for {path}: {data.get('error')}"
                )
            return data
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceNotReady(
                f"region {region} worker unreachable: {exc}"
            ) from exc
        finally:
            conn.close()

    def proxy(self, region: int, path: str) -> Response:
        """Forward one GET verbatim to a region worker."""
        self.bump("subrequests")
        conn = http.client.HTTPConnection(
            self.host,
            self.worker_ports[region],
            timeout=SUBREQUEST_TIMEOUT_S,
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, {}, response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceNotReady(
                f"region {region} worker unreachable: {exc}"
            ) from exc
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Cross-region stitches (chains of seam sub-requests)
    # ------------------------------------------------------------------

    def cross_eap(self, u: int, v: int, t: int) -> Optional[dict]:
        region_u = self.manifest.stop_region(u)
        region_v = self.manifest.stop_region(v)
        out = self.call_worker(
            region_u, "/fed/out", {"u": u, "t": t, "target_region": region_v}
        )
        arr = self.call_worker(
            region_v, "/fed/eap_close", {"v": v, "t2": out["t2"]}
        )["arr"]
        if arr is None:
            return None
        back = self.call_worker(
            region_v,
            "/fed/back",
            {"v": v, "t": arr, "source_region": region_u},
        )
        dep = self.call_worker(
            region_u, "/fed/ldp_close", {"u": u, "s1": back["s1"]}
        )["dep"]
        return Journey(u, v, dep, arr).to_dict()

    def cross_ldp(self, u: int, v: int, t: int) -> Optional[dict]:
        region_u = self.manifest.stop_region(u)
        region_v = self.manifest.stop_region(v)
        back = self.call_worker(
            region_v, "/fed/back", {"v": v, "t": t, "source_region": region_u}
        )
        dep = self.call_worker(
            region_u, "/fed/ldp_close", {"u": u, "s1": back["s1"]}
        )["dep"]
        if dep is None:
            return None
        out = self.call_worker(
            region_u,
            "/fed/out",
            {"u": u, "t": dep, "target_region": region_v},
        )
        arr = self.call_worker(
            region_v, "/fed/eap_close", {"v": v, "t2": out["t2"]}
        )["arr"]
        return Journey(u, v, dep, arr).to_dict()

    def cross_profile(
        self, u: int, v: int, t: int, t_end: int
    ) -> List[List[int]]:
        region_u = self.manifest.stop_region(u)
        region_v = self.manifest.stop_region(v)
        out = self.call_worker(
            region_u,
            "/fed/profile_out",
            {"u": u, "t": t, "t_end": t_end, "target_region": region_v},
        )
        return self.call_worker(
            region_v,
            "/fed/profile_close",
            {"v": v, "t_end": t_end, "candidates": out["candidates"]},
        )["pairs"]

    def cross_sdp(
        self, u: int, v: int, t: int, t_end: int
    ) -> Optional[dict]:
        pairs = self.cross_profile(u, v, t, t_end)
        best = ParetoProfile(
            [(dep, arr) for dep, arr in pairs]
        ).best_duration(t, t_end)
        if best is None:
            return None
        dep, arr, _ = best
        return Journey(u, v, dep, arr).to_dict()

    def one_to_many(
        self, source: int, targets: List[int], t: int
    ) -> Dict[str, Optional[int]]:
        """Batched federated earliest arrivals, one ``out`` per remote
        region (string-keyed, matching JSON-serialized monolith
        bodies)."""
        region_u = self.manifest.stop_region(source)
        by_region: Dict[int, List[int]] = {}
        for v in targets:
            by_region.setdefault(self.manifest.stop_region(v), []).append(v)
        arrivals: Dict[str, Optional[int]] = {}
        own = by_region.pop(region_u, None)
        if own:
            data = self.call_worker(
                region_u,
                "/fed/one_to_many",
                {"source": source, "targets": own, "t": t},
            )
            arrivals.update(data["arrivals"])
        for region, stations in sorted(by_region.items()):
            out = self.call_worker(
                region_u,
                "/fed/out",
                {"u": source, "t": t, "target_region": region},
            )
            data = self.call_worker(
                region,
                "/fed/close_many",
                {"targets": stations, "t2": out["t2"]},
            )
            arrivals.update(data["arrivals"])
        return arrivals


def _make_router_handler(sup: FederationSupervisor):
    from repro.service import _int_param, _split_api_version

    manifest = sup.manifest
    graph = sup.graph
    config = sup.resilience or ResilienceConfig()

    class RouterHandler:
        def handle(self, request: Request) -> Response:
            versioned, path = _split_api_version(request.path)
            started = time.perf_counter()
            try:
                if request.method == "GET":
                    body = self._route_get(request, path)
                else:
                    body = self._route_post(request, path, versioned)
            except ServiceNotReady as exc:
                exc.retry_after = config.retry_after_s
                return error_response(exc)
            except Exception as exc:  # never kill the router thread
                return error_response(exc)
            if body is None:
                return json_response(
                    404, error_body(f"unknown path: {request.target}")
                )
            if isinstance(body, tuple):
                return body  # a worker's response, proxied verbatim
            headers = None
            if versioned:
                body = {
                    "data": body,
                    "meta": {
                        "elapsed_us": int(
                            (time.perf_counter() - started) * 1e6
                        ),
                        "degraded": False,
                        # -1 marks a router-assembled (cross-region)
                        # answer; proxied answers carry the region id.
                        "worker": -1,
                    },
                }
            else:
                headers = {"Deprecation": "true"}
            return json_response(200, body, headers)

        # --------------------------------------------------------------

        def _route_get(self, request: Request, path: str):
            params = request.params
            if path == "/healthz":
                return self._healthz()
            if path == "/healthz/live":
                return {"status": "alive"}
            if path == "/healthz/ready":
                rows = sup.scoreboard.workers()
                waiting = [
                    row["worker"] for row in rows if row["pid"] <= 0
                ]
                if waiting:
                    raise ServiceNotReady(
                        f"region workers {waiting} not ready"
                    )
                return {"ready": True}
            if path == "/metrics":
                return self._metrics()
            if path == "/stations":
                return {
                    "stations": [
                        {"id": s, "name": graph.station_name(s)}
                        for s in range(graph.n)
                    ]
                }
            if path in ("/eap", "/ldp"):
                u = _int_param(params, "from")
                v = _int_param(params, "to")
                t = _int_param(params, "t")
                region_u = manifest.stop_region(u)
                if region_u == manifest.stop_region(v):
                    return self._proxy_intra(region_u, request)
                sup.bump("cross_stitched")
                journey = (
                    sup.cross_eap(u, v, t)
                    if path == "/eap"
                    else sup.cross_ldp(u, v, t)
                )
                return {"journey": journey}
            if path in ("/sdp", "/profile"):
                u = _int_param(params, "from")
                v = _int_param(params, "to")
                t = _int_param(params, "t")
                t_end = _int_param(params, "t_end")
                region_u = manifest.stop_region(u)
                if region_u == manifest.stop_region(v):
                    return self._proxy_intra(region_u, request)
                sup.bump("cross_stitched")
                if path == "/sdp":
                    return {"journey": sup.cross_sdp(u, v, t, t_end)}
                return {"pairs": sup.cross_profile(u, v, t, t_end)}
            return None

        def _route_post(self, request: Request, path: str, versioned: bool):
            if path != "/batch" or not versioned:
                return None
            return self._batch(request.json_body())

        def _proxy_intra(self, region: int, request: Request) -> Response:
            """Forward the original request whole to the owning worker
            — the single-hop intra-region path."""
            sup.bump("intra_proxied")
            return sup.proxy(region, request.target)

        def _healthz(self) -> dict:
            rows = {
                row["worker"]: row for row in sup.scoreboard.workers()
            }
            borders = manifest.borders_by_region()
            shards = []
            for entry in manifest.regions:
                row = rows.get(entry.region, {})
                shards.append(
                    {
                        "region": entry.region,
                        "stations": len(entry.stops),
                        "borders": len(borders.get(entry.region, [])),
                        "labels": entry.labels,
                        "port": sup.worker_ports.get(entry.region),
                        "pid": row.get("pid", 0),
                        "generation": row.get("generation", 0),
                        "alive": row.get("alive", False),
                    }
                )
            return {
                "status": "ok",
                "planner": "TTL-fed",
                "federation": True,
                "stations": graph.n,
                "regions": manifest.num_regions,
                "epoch": manifest.epoch,
                "border_stops": len(manifest.border_stops),
                "ready": all(s["pid"] > 0 for s in shards),
                "shards": shards,
            }

        def _metrics(self) -> dict:
            with sup._stats_lock:
                router = dict(sup.router_stats)
            return {
                "planner": "TTL-fed",
                "federation": {
                    "regions": manifest.num_regions,
                    "epoch": manifest.epoch,
                    "router": router,
                    "respawns": sup.respawns,
                },
                "cluster": {
                    "workers": sup.scoreboard.workers(),
                    "totals": sup.scoreboard.totals(),
                },
            }

        def _batch(self, body: dict):
            sup.bump("batch_requests")
            kind = body.get("kind")
            if kind not in ("one_to_many", "matrix", "isochrone"):
                raise RequestValidationError(
                    "body field 'kind' must be one of 'one_to_many', "
                    f"'matrix', 'isochrone', got {kind!r}",
                    field="kind",
                )
            t = _int_field(body, "t")
            cap = config.max_batch_pairs
            if kind == "one_to_many":
                source = _int_field(body, "source")
                targets = _int_list_field(body, "targets")
                if len(targets) > cap:
                    raise RequestValidationError(
                        f"{len(targets)} targets exceed the batch cap "
                        f"of {cap}",
                        field="targets",
                    )
                return {
                    "kind": kind,
                    "source": source,
                    "t": t,
                    "arrivals": sup.one_to_many(source, targets, t),
                }
            if kind == "matrix":
                sources = _int_list_field(body, "sources")
                targets = _int_list_field(body, "targets")
                if len(sources) * len(targets) > cap:
                    raise RequestValidationError(
                        f"{len(sources)}x{len(targets)} matrix exceeds "
                        f"the batch cap of {cap} pairs",
                        field="sources",
                    )
                matrix = {
                    str(source): sup.one_to_many(source, targets, t)
                    for source in sources
                }
                return {"kind": kind, "t": t, "matrix": matrix}
            # isochrone
            source = _int_field(body, "source")
            budget = _int_field(body, "budget")
            if graph.n > cap:
                raise RequestValidationError(
                    f"an isochrone sweeps all {graph.n} stations, "
                    f"exceeding the batch cap of {cap}",
                    field="kind",
                )
            arrivals = sup.one_to_many(source, list(range(graph.n)), t)
            reachable = sorted(
                (arr, int(station))
                for station, arr in arrivals.items()
                if arr is not None and arr - t <= budget
            )
            return {
                "kind": kind,
                "source": source,
                "t": t,
                "budget": budget,
                "stations": [station for _, station in reachable],
            }

    return RouterHandler().handle
