"""The HTTP transport (:mod:`repro.serving.http`) from outside.

* Hostile input over a raw socket: every case comes back as the unified
  ``{"error", "field", "hint"}`` JSON or a clean close, and the service
  keeps answering and still stops promptly afterwards.
* The pool grows on demand, ``stop()`` drains in-flight requests, and a
  worker's first heartbeat comes at ready.
* The response-identity gate: a fixed table of requests against a
  standalone service, a prefork worker and the federation router, with
  status, the four headers and the body (``meta.elapsed_us`` masked)
  compared with ``http_identity_expected.json``, captured from the
  commit before the transport was replaced::

      PYTHONPATH=<parent checkout>/src python tests/test_http_transport.py

  Cells that are not that commit's: the router's 413 is the worker's
  (that router had no body cap; see ``capture``); the unversioned
  ``legacy`` / ``legacy_cross`` requests answer the 404 of any unknown
  path on every target, since only ``/v1`` is served; and the router's
  ``bad_batch_kind`` carries the workers' hint, as it parses batches
  with their parser.
* The same 400 from every target for malformed ``/v1/batch`` bodies.
"""

import contextlib
import http.client
import json
import multiprocessing
import os
import re
import socket
import sys
import tempfile
import threading
import time

import pytest

from repro.core import TTLPlanner, build_index
from repro.datasets import load_dataset
from repro.federation import build_federation, region_map_from_names
from repro.federation.serve import FederationSupervisor
from repro.resilience import ResilienceConfig
from repro.service import PlannerService
from repro.serving import ServingSupervisor
from tests.conftest import SlowPlanner

try:
    from repro.serving.http import (
        BASE_THREADS,
        MAX_HEAD_BYTES,
        HttpServer,
        json_response,
    )
except ImportError:  # capturing on the parent commit
    BASE_THREADS, MAX_HEAD_BYTES = 4, 65536

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "http_identity_expected.json"
)
HEADERS = ("Content-Type", "Content-Length", "Retry-After", "Deprecation")
ERROR_KEYS = {"error", "field", "hint"}


# ----------------------------------------------------------------------
# Hostile input
# ----------------------------------------------------------------------


def raw_exchange(port, data, half_close=True):
    """Send ``data`` on a fresh connection and read to EOF; returns
    ``(status, headers, body)`` or ``None`` for a clean close."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        try:
            conn.sendall(data)
            if half_close:
                conn.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := conn.recv(65536):
                received += chunk
        except (ConnectionResetError, BrokenPipeError):
            return None
    if not received:
        return None
    head, _, payload = received.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(payload)
    return int(status_line.split()[1]), headers, json.loads(payload)


def post_head(length):
    return (
        f"POST /v1/batch HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


@pytest.fixture
def service(line_graph):
    svc = PlannerService(TTLPlanner(line_graph))
    port = svc.start()
    yield svc, port
    # A thread wedged by any of the cases would hang stop().
    stopper = threading.Thread(target=svc.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive()


HOSTILE = {
    "truncated request line": (b"GET /v1/hea", 400, None),
    "head without end": (b"GET / HTTP/1.1\r\nHost: x\r\n", 400, None),
    "one-word request line": (b"GET\r\n\r\n", 400, None),
    "head over the cap": (
        b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES,
        431,
        None,
    ),
    "non-numeric Content-Length": (post_head("abc"), 400, "Content-Length"),
    "negative Content-Length": (post_head(-5), 400, "Content-Length"),
    "oversized Content-Length": (post_head(10**12), 413, None),
    "body shorter than declared": (post_head(50) + b'{"kind"', 400, None),
    "unsupported method": (b"BREW /v1/stations HTTP/1.1\r\n\r\n", 501, None),
    "unknown path": (b"GET /v1/nope HTTP/1.1\r\n\r\n", 404, None),
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_unified_error_or_clean_close(self, service, case):
        _, port = service
        data, status, field = HOSTILE[case]
        answer = raw_exchange(port, data)
        if answer is None:
            # Only a flood the server stopped reading may be cut off.
            assert case == "head over the cap"
        else:
            assert answer[0] == status
            assert set(answer[2]) == ERROR_KEYS
            assert answer[2]["field"] == field
        status, _, body = raw_exchange(
            port, b"GET /v1/healthz/live HTTP/1.1\r\n\r\n"
        )
        assert (status, body["data"]) == (200, {"status": "alive"})

    def test_client_gone_before_the_response(self, service):
        _, port = service
        for _ in range(5 * BASE_THREADS):
            conn = socket.create_connection(("127.0.0.1", port))
            conn.sendall(b"GET /v1/stations HTTP/1.1\r\n\r\n")
            conn.close()
            socket.create_connection(("127.0.0.1", port)).close()
        status, _, _ = raw_exchange(
            port, b"GET /v1/healthz/live HTTP/1.1\r\n\r\n"
        )
        assert status == 200


# ----------------------------------------------------------------------
# Pool growth, drain, first heartbeat
# ----------------------------------------------------------------------


def slow_service(line_graph, seconds, **config):
    svc = PlannerService(
        SlowPlanner.of(TTLPlanner)(line_graph, delay_s=seconds),
        resilience=ResilienceConfig(**config),
    )
    return svc, svc.start()


def get_status(port, path, out):
    out.append(raw_exchange(port, f"GET {path} HTTP/1.1\r\n\r\n".encode()))


class TestThreadModel:
    def test_pool_grows_past_stalled_connections(self, line_graph):
        """With every base thread held by a client that never finishes
        its request, two slow concurrent requests are still handled
        side by side: ``max_inflight=1`` sheds one of them."""
        svc, port = slow_service(line_graph, 0.5, max_inflight=1)
        stalled = []
        try:
            for _ in range(BASE_THREADS):
                conn = socket.create_connection(("127.0.0.1", port))
                conn.sendall(b"GET /v1/sta")
                stalled.append(conn)
            answers = []
            clients = [
                threading.Thread(
                    target=get_status,
                    args=(port, "/v1/eap?from=0&to=3&t=0", answers),
                )
                for _ in range(2)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=10)
                assert not client.is_alive()
            assert sorted(a[0] for a in answers) == [200, 429]
            shed = next(a for a in answers if a[0] == 429)
            assert shed[1]["Retry-After"] == "1"
            assert set(shed[2]) == ERROR_KEYS
        finally:
            for conn in stalled:
                conn.close()
            svc.stop()

    def test_pool_bookkeeping_survives_contention(self):
        """More clients than cores and a short switch interval: every
        request is answered, and once quiet the pool is back at its
        base size with every thread counted idle (a lost update to the
        idle count would leave it off for good)."""
        server = HttpServer(
            lambda request: json_response(200, {"path": request.path})
        )
        port = server.start()
        answers = []

        def client(k):
            for i in range(40):
                get_status(port, f"/{k}/{i}", answers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, args=(k,)) for k in range(12)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert sorted(a[2]["path"] for a in answers) == sorted(
                f"/{k}/{i}" for k in range(12) for i in range(40)
            )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with server._lock:
                    quiet = server._idle, len(server._threads)
                if quiet == (BASE_THREADS, BASE_THREADS):
                    break
                time.sleep(0.01)
            assert quiet == (BASE_THREADS, BASE_THREADS)
        finally:
            server.stop()

    def test_stop_waits_for_the_in_flight_response(self, line_graph):
        svc, port = slow_service(line_graph, 0.6)
        answers = []
        client = threading.Thread(
            target=get_status,
            args=(port, "/v1/eap?from=0&to=3&t=0", answers),
        )
        started = time.monotonic()
        client.start()
        time.sleep(0.2)
        svc.stop()
        stopped_after = time.monotonic() - started
        client.join(timeout=10)
        assert not client.is_alive()
        assert stopped_after >= 0.55
        status, _, body = answers[0]
        assert status == 200 and body["data"]["journey"] is not None

    def test_first_heartbeat_at_ready(self, line_graph):
        """``wait_ready`` must not wait out a heartbeat interval."""
        index = build_index(line_graph)
        sup = ServingSupervisor(
            lambda: TTLPlanner(line_graph, index=index),
            workers=1,
            heartbeat_interval_s=20.0,
        )
        started = time.monotonic()
        sup.start()
        try:
            sup.wait_ready(timeout_s=15)
            assert time.monotonic() - started < 5.0
        finally:
            sup.stop()


# ----------------------------------------------------------------------
# Response identity against the parent commit
# ----------------------------------------------------------------------

T = 28800
INTRA = "from=0&to=3"  # both stations in region 0 of TwinCities
CROSS = "from=2&to=63"  # region 0 -> region 1
WINDOW = f"t={T}&t_end={T + 7200}"
BATCH = {"kind": "one_to_many", "source": 0, "targets": [3, 40, 63], "t": T}
TOO_LARGE = b" " * (1 << 20) + b"{}"
#: The batch pair cap of every target: above BATCH's three targets,
#: below TwinCities' 66 stations, so any isochrone is over it.
BATCH_CAP = 50

#: name -> (method, path, body)
REQUESTS = {
    "eap": ("GET", f"/v1/eap?{INTRA}&t={T}", None),
    "ldp": ("GET", f"/v1/ldp?{INTRA}&t={T + 3600}", None),
    "sdp": ("GET", f"/v1/sdp?{INTRA}&{WINDOW}", None),
    "profile": ("GET", f"/v1/profile?{INTRA}&{WINDOW}", None),
    "eap_cross": ("GET", f"/v1/eap?{CROSS}&t={T}", None),
    "ldp_cross": ("GET", f"/v1/ldp?{CROSS}&t={T + 7200}", None),
    "sdp_cross": ("GET", f"/v1/sdp?{CROSS}&{WINDOW}", None),
    "profile_cross": ("GET", f"/v1/profile?{CROSS}&{WINDOW}", None),
    "batch": ("POST", "/v1/batch", json.dumps(BATCH).encode()),
    "legacy": ("GET", f"/eap?{INTRA}&t={T}", None),
    "legacy_cross": ("GET", f"/eap?{CROSS}&t={T}", None),
    "bad_field": ("GET", f"/v1/eap?from=abc&to=3&t={T}", None),
    "missing_field": ("GET", "/v1/sdp?from=0&to=3&t=0", None),
    "bad_batch_kind": ("POST", "/v1/batch", b'{"kind": "nope", "t": 0}'),
    "malformed_json": ("POST", "/v1/batch", b'{"kind": '),
    "not_found": ("GET", "/v1/nope?x=1", None),
    "too_large": ("POST", "/v1/batch", TOO_LARGE),
    "not_implemented": ("DELETE", "/v1/stations", None),
    "warming": ("GET", "/v1/healthz/ready", None),
}
TARGETS = ("standalone", "worker", "router")


def exchange(port, method, path, body):
    """Status, the four headers and the body text of one answer, with
    ``meta.elapsed_us`` (and so its digits in Content-Length) masked."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read().decode()
        headers = {h: response.getheader(h) for h in HEADERS}
    finally:
        conn.close()
    assert headers["Content-Length"] == str(len(payload))
    payload = re.sub(r'"elapsed_us": \d+', '"elapsed_us": 0', payload)
    headers["Content-Length"] = str(len(payload))
    return {"status": response.status, "headers": headers, "body": payload}


@contextlib.contextmanager
def running_targets(out, router_heartbeat_s):
    """name of target -> (port of the ready one, port of the warming
    one); the router's "warming" is a region worker's missing row."""
    release = multiprocessing.get_context("fork").Event()

    class Warming(TTLPlanner):
        build_progress = None  # no clock-valued "build" key in the 503

        def __init__(self, graph):
            super().__init__(graph)
            del self.build_progress

        def preprocess(self):
            release.wait()

    graph = load_dataset("TwinCities")
    index = build_index(graph)
    small = load_dataset("Austin", scale=0.4)
    build_federation(graph, region_map_from_names(graph), out)
    capped = ResilienceConfig(max_batch_pairs=BATCH_CAP)
    standalone = PlannerService(
        TTLPlanner(graph, index=index), resilience=capped
    )
    warming = PlannerService(Warming(small))
    prefork = ServingSupervisor(
        lambda: TTLPlanner(graph, index=index),
        workers=1,
        resilience=capped,
    )
    warming_prefork = ServingSupervisor(
        lambda: Warming(small), workers=1, warm=False
    )
    router = FederationSupervisor(
        graph,
        os.path.join(out, "federation.json"),
        resilience=capped,
        heartbeat_interval_s=router_heartbeat_s,
    )
    started = []
    try:
        table = {
            "standalone": (standalone.start(), warming.start(warm=False)),
        }
        started += [standalone, warming]
        for sup in (prefork, warming_prefork, router):
            sup.start()
            started.append(sup)
            sup.wait_ready(timeout_s=60)
        table["worker"] = (prefork.port, warming_prefork.port)
        table["router"] = (router.port, router.port)
        table["retire"] = lambda: router.scoreboard.retire(0)
        yield table
    finally:
        release.set()
        for thing in reversed(started):
            thing.stop()


@pytest.fixture(scope="module")
def ports(tmp_path_factory):
    # No second heartbeat within the test: the row retired for the
    # router's "warming" request stays empty, and the answer stays 503.
    out = str(tmp_path_factory.mktemp("identity_fed"))
    with running_targets(out, router_heartbeat_s=120.0) as table:
        yield table


def ask(ports, target, name):
    ready, warming = ports[target]
    if name != "warming":
        return exchange(ready, *REQUESTS[name])
    if target == "router":
        ports["retire"]()
    return exchange(warming, *REQUESTS[name])


class TestResponseIdentity:
    @pytest.mark.parametrize("name", sorted(REQUESTS))
    @pytest.mark.parametrize("target", TARGETS)
    def test_same_response_as_the_parent_commit(self, ports, target, name):
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
        assert ask(ports, target, name) == expected[target][name]


#: Malformed ``/v1/batch`` bodies, each rejected before any answering.
BAD_BATCHES = {
    "bad kind": {"kind": "nope", "t": T},
    "t missing": {"kind": "one_to_many", "source": 0, "targets": [3]},
    "targets not a list": {
        "kind": "one_to_many", "source": 0, "targets": 3, "t": T,
    },
    "true in targets": {
        "kind": "one_to_many", "source": 0, "targets": [3, True], "t": T,
    },
    "one_to_many over the cap": {
        "kind": "one_to_many",
        "source": 0,
        "targets": list(range(BATCH_CAP + 1)),
        "t": T,
    },
    "isochrone over the cap": {
        "kind": "isochrone", "source": 0, "t": T, "budget": 3600,
    },
}


class TestMalformedBatch:
    @pytest.mark.parametrize("case", sorted(BAD_BATCHES))
    def test_same_400_from_every_target(self, ports, case):
        body = json.dumps(BAD_BATCHES[case]).encode()
        answers = [
            exchange(ports[target][0], "POST", "/v1/batch", body)
            for target in TARGETS
        ]
        assert answers[0]["status"] == 400
        assert set(json.loads(answers[0]["body"])) == ERROR_KEYS
        assert answers == answers[:1] * len(TARGETS)


def capture():
    """Write the expected file from the checkout on ``PYTHONPATH``."""
    with tempfile.TemporaryDirectory() as out, running_targets(
        out, router_heartbeat_s=0.25
    ) as table:
        expected = {}
        for target in TARGETS:
            expected[target] = {}
            for name in sorted(REQUESTS):
                for _ in range(50):  # the router's 503 races a heartbeat
                    answer = ask(table, target, name)
                    if name != "warming" or answer["status"] == 503:
                        break
                expected[target][name] = answer
    # The parent's router read bodies of any size; it now shares the
    # worker's reader and so the worker's cap.
    expected["router"]["too_large"] = expected["worker"]["too_large"]
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    capture()
