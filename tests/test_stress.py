"""Stress and adversarial-structure tests.

Exercises shapes that break naive implementations: long chains (deep
unfolding), heavy parallel multi-edges (dominance churn), stations
with no service, single-route graphs, dense transfer meshes — and the
HTTP service hammered concurrently while its queries run slow.
"""

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms.temporal_dijkstra import DijkstraPlanner
from repro.baselines import CHTPlanner, CSAPlanner, RaptorPlanner
from repro.core import CompressedTTLPlanner, TTLPlanner, build_index
from repro.graph.builders import GraphBuilder, graph_from_connections
from repro.graph.connection import validate_path


class TestLongChain:
    @pytest.fixture(scope="class")
    def chain_graph(self):
        """One route over 400 stations, several trips: unfolding the
        end-to-end journey must not recurse or quadratically blow up."""
        builder = GraphBuilder()
        n = 400
        builder.add_stations(n)
        route = builder.add_route(list(range(n)))
        for start in (0, 5000, 10000):
            builder.add_trip_departures(route, start, [10] * (n - 1))
        return builder.build()

    def test_full_path_reconstruction(self, chain_graph):
        planner = TTLPlanner(chain_graph)
        journey = planner.earliest_arrival(0, chain_graph.n - 1, 0)
        assert journey is not None
        assert len(journey.path) == chain_graph.n - 1
        validate_path(journey.path)

    def test_concise_reconstruction(self, chain_graph):
        planner = TTLPlanner(chain_graph, concise=True)
        journey = planner.earliest_arrival(0, chain_graph.n - 1, 0)
        assert journey is not None
        assert len(journey.legs) == 1  # single vehicle end to end

    def test_mid_chain_queries(self, chain_graph):
        planner = TTLPlanner(chain_graph)
        oracle = DijkstraPlanner(chain_graph)
        rng = random.Random(3)
        for _ in range(20):
            u = rng.randrange(chain_graph.n)
            v = rng.randrange(chain_graph.n)
            if u == v:
                continue
            t = rng.randrange(0, 12000)
            a = oracle.earliest_arrival(u, v, t)
            b = planner.earliest_arrival(u, v, t)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.arr == b.arr


class TestParallelMultiEdges:
    def test_hundred_parallel_connections(self):
        """100 connections between one pair: only the Pareto frontier
        may become labels."""
        rng = random.Random(4)
        conns = []
        for _ in range(100):
            dep = rng.randrange(0, 500)
            conns.append((0, 1, dep, dep + rng.randrange(1, 100)))
        graph = graph_from_connections(conns, 2)
        index = build_index(graph)
        index.check_invariants()
        oracle = DijkstraPlanner(graph)
        planner = TTLPlanner(graph, index=index)
        for t in range(0, 600, 13):
            a = oracle.earliest_arrival(0, 1, t)
            b = planner.earliest_arrival(0, 1, t)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.arr == b.arr

    def test_labels_bounded_by_frontier(self):
        conns = [(0, 1, d, d + 10) for d in range(0, 300, 10)]
        # All 30 connections are mutually non-dominated.
        graph = graph_from_connections(conns, 2)
        index = build_index(graph)
        assert index.num_labels == 30


class TestDegenerateStations:
    def test_isolated_stations(self):
        graph = graph_from_connections([(0, 1, 0, 10)], num_stations=5)
        for planner_cls in (TTLPlanner, CSAPlanner, CHTPlanner, RaptorPlanner):
            planner = planner_cls(graph)
            assert planner.earliest_arrival(3, 4, 0) is None
            assert planner.earliest_arrival(0, 1, 0) is not None

    def test_sink_only_station(self):
        graph = graph_from_connections([(0, 1, 0, 10), (2, 1, 5, 9)])
        planner = TTLPlanner(graph)
        assert planner.earliest_arrival(1, 0, 0) is None
        assert planner.earliest_arrival(2, 1, 0).arr == 9


class TestTransferMesh:
    def test_dense_mesh_all_planners_agree(self):
        """Complete digraph on 6 stations, frequent service: a worst
        case for dominance bookkeeping."""
        rng = random.Random(9)
        builder = GraphBuilder()
        n = 6
        builder.add_stations(n)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                route = builder.add_route([u, v])
                for k in range(6):
                    start = rng.randrange(0, 50) + 40 * k
                    builder.add_trip_departures(
                        route, start, [rng.randrange(5, 60)]
                    )
        graph = builder.build()
        oracle = DijkstraPlanner(graph)
        planners = [
            TTLPlanner(graph),
            CompressedTTLPlanner(graph),
            CSAPlanner(graph),
            CHTPlanner(graph),
            RaptorPlanner(graph),
        ]
        for _ in range(60):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            t = rng.randrange(0, 300)
            t2 = t + rng.randrange(1, 200)
            ref = oracle.shortest_duration(u, v, t, t2)
            for planner in planners:
                got = planner.shortest_duration(u, v, t, t2)
                assert (ref is None) == (got is None), planner.name
                if ref is not None:
                    assert got.duration == ref.duration, planner.name


class TestServiceUnderChaos:
    """Concurrent load against a live service with slow queries.

    The contract under chaos: every response carries a *documented*
    status (never a 500 — the only fault here is latency), no request
    deadlocks, and once the slow queries are spent the answers are
    exact.
    """

    def _fetch(self, port, path):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1{path}", timeout=15
            ) as response:
                return response.status, json.loads(response.read())["data"]
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def _post(self, port, path, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1{path}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=15) as response:
                return response.status, json.loads(response.read())["data"]
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_concurrent_chaos_no_500s_no_deadlocks_exact_after(self):
        from tests.conftest import SlowPlanner, make_random_route_graph
        from repro.live import LiveOverlayEngine
        from repro.resilience import ResilienceConfig
        from repro.service import PlannerService

        graph = make_random_route_graph(random.Random(29), 12, 8)
        # Twelve 0.1 s queries against a 60 ms budget: 504s, and the
        # lock they hold backs the gate up into 429s.
        engine = SlowPlanner.of(LiveOverlayEngine)(
            graph, delay_s=0.1, times=12
        )
        config = ResilienceConfig(
            deadline_ms=60.0, max_inflight=4, shed_grace_s=0.1
        )
        service = PlannerService(engine, resilience=config)
        port = service.start(port=0)
        try:
            statuses = []
            record = threading.Lock()
            trip_ids = sorted(graph.trips)

            def hammer(worker_seed):
                rng = random.Random(worker_seed)
                for _ in range(25):
                    u = rng.randrange(graph.n)
                    v = (u + rng.randrange(1, graph.n)) % graph.n
                    t = rng.randrange(0, 200)
                    path = rng.choice(
                        [
                            f"/eap?from={u}&to={v}&t={t}",
                            f"/ldp?from={u}&to={v}&t={t + 300}",
                            f"/sdp?from={u}&to={v}&t={t}&t_end={t + 400}",
                        ]
                    )
                    status, _ = self._fetch(port, path)
                    with record:
                        statuses.append(status)

            def churn(worker_seed):
                rng = random.Random(worker_seed)
                for _ in range(10):
                    trip = rng.choice(trip_ids)
                    status, _ = self._post(
                        port,
                        "/live/events",
                        {"kind": "delay", "trip_id": trip,
                         "delay": rng.randrange(30, 300)},
                    )
                    assert status in (200, 400)
                    status, _ = self._post(port, "/live/clear", {})
                    assert status == 200

            workers = [
                threading.Thread(target=hammer, args=(100 + i,))
                for i in range(6)
            ]
            workers.append(threading.Thread(target=churn, args=(999,)))
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(w.is_alive() for w in workers), "deadlocked"

            # Every response carried a documented status; no 500s.
            assert statuses and set(statuses) <= {200, 429, 503, 504}

            # Spend whatever slow queries the stress phase left.
            self._post(port, "/live/clear", {})
            drain_deadline = time.monotonic() + 30
            while engine.times and time.monotonic() < drain_deadline:
                self._fetch(port, "/eap?from=0&to=1&t=0")
            assert engine.times == 0
            exact = TTLPlanner(graph)
            checked = 0
            for u in range(graph.n):
                for v in range(graph.n):
                    if u == v:
                        continue
                    status, body = self._fetch(
                        port, f"/eap?from={u}&to={v}&t=0"
                    )
                    assert status == 200
                    expected = exact.earliest_arrival(u, v, 0)
                    if expected is None:
                        assert body["journey"] is None
                    else:
                        assert body["journey"]["arr"] == expected.arr
                        checked += 1
                    if checked >= 10:
                        break
                if checked >= 10:
                    break
        finally:
            service.stop()


class TestZeroWaitChains:
    def test_instantaneous_transfers(self):
        """Chains where every transfer has zero wait (dep == arr)."""
        conns = [
            (0, 1, 0, 10),
            (1, 2, 10, 20),
            (2, 3, 20, 30),
            (3, 4, 30, 40),
        ]
        graph = graph_from_connections(conns)
        for planner_cls in (TTLPlanner, CSAPlanner, CHTPlanner, RaptorPlanner):
            journey = planner_cls(graph).earliest_arrival(0, 4, 0)
            assert journey is not None, planner_cls.name
            assert journey.arr == 40
            assert journey.transfers == 3
