"""End-to-end chaos suite: planner faults over real HTTP.

Each test starts a real :class:`~repro.service.PlannerService` over a
:class:`~tests.conftest.SlowPlanner` (a planner whose ``plan`` sleeps
or raises, or whose index build sleeps) and asserts that every failure
surfaces as its *documented* status code — never a crash, never a hung
socket — and that the service recovers to exact answers once the fault
is spent.  The suite is parametrized over committed graph seeds.
"""

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import TTLPlanner
from repro.resilience import ResilienceConfig
from repro.service import PlannerService
from tests.conftest import SlowPlanner, make_random_route_graph

SEEDS = (11, 23, 47)

pytestmark = pytest.mark.parametrize("seed", SEEDS)

SlowTTL = SlowPlanner.of(TTLPlanner)


def fetch(port, path):
    """GET ``/v1{path}``, never raising on HTTP errors: (status,
    headers, the ``data`` of a 200 or the error body)."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1{path}", timeout=10
        ) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )["data"]
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


def feasible_pair(graph):
    """First (u, v) with a non-trivial journey at t=0."""
    planner = TTLPlanner(graph)
    for u in range(graph.n):
        for v in range(graph.n):
            if u == v:
                continue
            journey = planner.earliest_arrival(u, v, 0)
            if journey is not None and journey.path:
                return u, v, journey
    pytest.skip("no feasible pair in sampled graph")


def start_service(request, planner, config, warm=True):
    svc = PlannerService(planner, resilience=config)
    port = svc.start(port=0, warm=warm)
    request.addfinalizer(svc.stop)
    return svc, port


def graph_for(seed):
    return make_random_route_graph(random.Random(seed), 10, 7)


class TestLatencyToDeadline:
    def test_injected_latency_maps_to_504_then_recovers(self, request, seed):
        graph = graph_for(seed)
        u, v, expected = feasible_pair(graph)
        _, port = start_service(
            request,
            SlowTTL(graph, delay_s=0.2, times=1),
            ResilienceConfig(deadline_ms=50.0),
        )
        status, _, body = fetch(port, f"/eap?from={u}&to={v}&t=0")
        assert status == 504
        assert "deadline" in body["error"]
        # Fault spent: the very next request is healthy and exact.
        status, _, body = fetch(port, f"/eap?from={u}&to={v}&t=0")
        assert status == 200
        assert body["journey"]["arr"] == expected.arr
        _, _, snap = fetch(port, "/resilience")
        assert snap["deadline_exceeded"] == 1


class TestSaturation:
    def test_saturated_gate_sheds_429_and_readiness_503(
        self, request, seed
    ):
        graph = graph_for(seed)
        u, v, _ = feasible_pair(graph)
        config = ResilienceConfig(
            deadline_ms=10_000.0,
            max_inflight=1,
            retry_after_s=2.0,
            shed_grace_s=0.5,
        )
        # The one admitted request sits in a 1 s plan while the gate
        # stays full behind it.
        _, port = start_service(
            request, SlowTTL(graph, delay_s=1.0, times=1), config
        )

        slow_result = {}

        def slow_request():
            slow_result["status"] = fetch(
                port, f"/eap?from={u}&to={v}&t=0"
            )[0]

        worker = threading.Thread(target=slow_request)
        worker.start()
        # Wait until the slow request occupies the only slot.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            _, _, snap = fetch(port, "/resilience")
            if snap["admission"]["inflight"] >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("slow request never occupied the gate")

        status, headers, body = fetch(port, f"/eap?from={u}&to={v}&t=0")
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert "in-flight" in body["error"]

        # Readiness flips 503 while shedding (inside the grace window).
        status, headers, _ = fetch(port, "/healthz/ready")
        assert status == 503
        assert "Retry-After" in headers
        # Liveness never flips.
        assert fetch(port, "/healthz/live")[0] == 200

        worker.join(timeout=10)
        assert slow_result["status"] == 200  # the admitted one finished
        time.sleep(0.6)  # let the shed grace window lapse
        assert fetch(port, "/healthz/ready")[0] == 200
        assert fetch(port, f"/eap?from={u}&to={v}&t=0")[0] == 200


class TestPreReady:
    def test_warming_service_answers_503_until_ready(self, request, seed):
        svc, port = start_service(
            request,
            SlowTTL(graph_for(seed), warm_s=0.75),
            ResilienceConfig(),
            warm=False,
        )

        status, _, body = fetch(port, "/healthz")
        assert status == 200
        if not svc.ready:  # raced only if warm-up beat us despite the delay
            assert body["ready"] is False
            status, headers, body = fetch(port, "/healthz/ready")
            assert status == 503
            assert "Retry-After" in headers
            status, _, body = fetch(port, "/eap?from=0&to=1&t=0")
            assert status == 503
            assert "warming" in body["error"]
        assert fetch(port, "/healthz/live")[0] == 200

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if fetch(port, "/healthz/ready")[0] == 200:
                break
            time.sleep(0.05)
        else:
            pytest.fail("service never became ready")
        assert fetch(port, "/eap?from=0&to=1&t=0")[0] == 200
        assert fetch(port, "/healthz")[2]["ready"] is True


class TestInjectedError:
    def test_injected_exception_maps_to_500_and_server_survives(
        self, request, seed
    ):
        graph = graph_for(seed)
        u, v, _ = feasible_pair(graph)
        _, port = start_service(
            request,
            SlowTTL(graph, error=RuntimeError("chaos monkey"), times=1),
            ResilienceConfig(),
        )
        status, headers, body = fetch(port, f"/eap?from={u}&to={v}&t=0")
        assert status == 500
        assert headers["Content-Type"] == "application/json"
        assert "chaos monkey" in body["error"]
        # The handler thread survived; service keeps answering.
        assert fetch(port, f"/eap?from={u}&to={v}&t=0")[0] == 200
        assert fetch(port, "/healthz")[0] == 200
