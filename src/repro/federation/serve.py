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
  and merges.  Requests are parsed and answers shaped by
  :mod:`repro.serving.api`, the functions the workers use, so the
  router's bodies and errors are theirs.

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
from typing import Callable, Dict, Iterable, List, Optional

from repro.algorithms.profiles import ParetoProfile
from repro.core.batch import Row, batch_answer
from repro.core.order import graph_digest
from repro.errors import FederationError, ServiceNotReady
from repro.federation.manifest import FederationManifest
from repro.federation.stitch import FederatedPlanner, load_federation
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.query import QUERY_TYPES
from repro.resilience import ResilienceConfig
from repro.serving import api
from repro.serving.http import HttpServer, Request, Response, error_response
from repro.serving.scoreboard import Scoreboard
from repro.serving.supervisor import ServingSupervisor
from repro.timeutil import INF, NEG_INF

#: Router → worker sub-request timeout (seconds).
SUBREQUEST_TIMEOUT_S = 30.0


class FederationWorkerRole:
    """Answers the internal ``POST /fed/*`` seam primitives.

    Attached to a worker's :class:`~repro.service.PlannerService` as
    ``service.fed``; the service routes ``POST /fed<name>`` to
    ``primitives[name]``, which gets the JSON body under the service
    lock with readiness already checked.  Bodies and answers are small
    JSON dicts — the station-keyed maps use string keys (JSON objects
    cannot key by int).
    """

    def __init__(self, planner: FederatedPlanner, region: int) -> None:
        self.planner = planner
        self.region = region
        #: ``/fed`` subpath -> primitive (JSON body in, JSON answer out).
        self.primitives: Dict[str, Callable[[dict], dict]] = {
            "/info": self.info,
            "/out": self.out,
            "/eap_close": self.eap_close,
            "/back": self.back,
            "/ldp_close": self.ldp_close,
            "/close_many": self.close_many,
            "/profile_out": self.profile_out,
            "/profile_close": self.profile_close,
            "/one_to_many": self.one_to_many,
        }

    def info(self, body: dict) -> dict:
        manifest = self.planner.manifest
        entry = manifest.region_entry(self.region)
        borders = self.planner.borders_by_region.get(self.region, [])
        return {
            "region": self.region,
            "stations": len(entry.stops),
            "borders": len(borders),
            "epoch": manifest.epoch,
            "labels": entry.labels,
        }

    def out(self, body: dict) -> dict:
        t2 = self.planner.reach_out(
            api.int_field(body, "u"),
            api.int_field(body, "t"),
            api.int_field(body, "target_region"),
        )
        return {"t2": {str(b2): arr for b2, arr in t2.items()}}

    def eap_close(self, body: dict) -> dict:
        arr = self.planner.eap_close(
            api.int_field(body, "v"), api.station_map(body, "t2")
        )
        return {"arr": None if arr >= INF else arr}

    def back(self, body: dict) -> dict:
        s1 = self.planner.reach_back(
            api.int_field(body, "v"),
            api.int_field(body, "t"),
            api.int_field(body, "source_region"),
        )
        return {"s1": {str(b1): dep for b1, dep in s1.items()}}

    def ldp_close(self, body: dict) -> dict:
        dep = self.planner.ldp_close(
            api.int_field(body, "u"), api.station_map(body, "s1")
        )
        return {"dep": None if dep <= NEG_INF else dep}

    def close_many(self, body: dict) -> dict:
        t2 = api.station_map(body, "t2")
        arrivals = {}
        for v in api.int_list_field(body, "targets"):
            arr = self.planner.eap_close(v, t2)
            arrivals[str(v)] = None if arr >= INF else arr
        return {"arrivals": arrivals}

    def profile_out(self, body: dict) -> dict:
        candidates = self.planner.profile_out(
            api.int_field(body, "u"),
            api.int_field(body, "t"),
            api.int_field(body, "t_end"),
            api.int_field(body, "target_region"),
        )
        return {"candidates": [list(c) for c in candidates]}

    def profile_close(self, body: dict) -> dict:
        candidates = [
            (int(dep), int(b2), int(a2))
            for dep, b2, a2 in body.get("candidates", [])
        ]
        pairs = self.planner.profile_close(
            api.int_field(body, "v"), api.int_field(body, "t_end"), candidates
        )
        return {"pairs": [list(p) for p in pairs]}

    def one_to_many(self, body: dict) -> dict:
        arrivals = self.planner.one_to_many(
            api.int_field(body, "source"),
            api.int_list_field(body, "targets"),
            api.int_field(body, "t"),
        )
        return {"arrivals": {str(v): arr for v, arr in arrivals.items()}}


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

    def one_to_many(self, source: int, targets: Iterable[int], t: int) -> Row:
        """Batched federated earliest arrivals, one ``out`` per remote
        region — the ``row`` of :func:`repro.core.batch.batch_answer`."""
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
        return {int(v): arr for v, arr in arrivals.items()}


def _make_router_handler(sup: FederationSupervisor):
    """The router's route table over :mod:`repro.serving.api`."""
    manifest = sup.manifest
    graph = sup.graph
    config = sup.resilience or ResilienceConfig()

    def healthz(request: Request) -> dict:
        rows = {row["worker"]: row for row in sup.scoreboard.workers()}
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

    def healthz_ready(request: Request) -> dict:
        rows = sup.scoreboard.workers()
        waiting = [row["worker"] for row in rows if row["pid"] <= 0]
        if waiting:
            raise ServiceNotReady(f"region workers {waiting} not ready")
        return {"ready": True}

    def metrics(request: Request) -> dict:
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

    def point(kind: str):
        def route(request: Request):
            query, t, t_end = api.point_query(kind, request.params)
            u, v = query.source, query.destination
            region_u = manifest.stop_region(u)
            if region_u == manifest.stop_region(v):
                # The single-hop intra-region path: the owning worker
                # answers the original request whole.
                sup.bump("intra_proxied")
                return sup.proxy(region_u, request.target)
            sup.bump("cross_stitched")
            if kind == "eap":
                return {"journey": sup.cross_eap(u, v, t)}
            if kind == "ldp":
                return {"journey": sup.cross_ldp(u, v, t)}
            if kind == "sdp":
                return {"journey": sup.cross_sdp(u, v, t, t_end)}
            return {"pairs": sup.cross_profile(u, v, t, t_end)}

        return route

    def batch(request: Request) -> dict:
        body = request.json_body()
        sup.bump("batch_requests")
        query = api.batch_query(body, graph.n, config.max_batch_pairs)
        return api.batch_body(
            query, batch_answer(query, graph.n, sup.one_to_many)
        )

    routes: api.Routes = {
        ("GET", "/v1/healthz"): healthz,
        ("GET", "/v1/healthz/live"): lambda request: {"status": "alive"},
        ("GET", "/v1/healthz/ready"): healthz_ready,
        ("GET", "/v1/metrics"): metrics,
        ("GET", "/v1/stations"): lambda request: api.stations(graph),
        **{("GET", f"/v1/{kind}"): point(kind) for kind in QUERY_TYPES},
        ("POST", "/v1/batch"): batch,
    }

    def on_error(exc: Exception) -> Response:
        if isinstance(exc, ServiceNotReady):
            exc.retry_after = config.retry_after_s
        return error_response(exc)

    def handle(request: Request) -> Response:
        # meta.worker -1 marks a router-assembled (cross-region)
        # answer; proxied answers carry the region id.
        return api.dispatch(routes, request, -1, on_error)

    return handle
