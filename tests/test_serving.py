"""Prefork serving: scoreboard arithmetic and supervisor behavior.

The end-to-end class exercises the real thing — forked workers
accepting on one shared socket, a chaos kill, a respawn — against a
small in-memory dataset, with the monotonic-aggregate invariant the
CI smoke job also asserts.
"""

import json
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.core import TTLPlanner, build_index
from repro.errors import ServiceNotReady
from repro.serving import COUNTER_FIELDS, Scoreboard, ServingSupervisor
from tests.conftest import make_random_route_graph


def envelope(port, path):
    """GET ``/v1{path}``: (status, the whole envelope)."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def get(port, path):
    """GET ``/v1{path}``: (status, data)."""
    status, body = envelope(port, path)
    return status, body["data"]


def post(port, path, body):
    """POST ``body`` to ``/v1{path}``: (status, data)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())["data"]


class TestScoreboard:
    def test_publish_and_read_back(self):
        board = Scoreboard(2)
        board.publish(
            0, {"requests": 5, "queries": 3}, pid=123, generation=1
        )
        row = board.row(0)
        assert row["pid"] == 123
        assert row["generation"] == 1
        assert row["alive"]
        assert row["counters"]["requests"] == 5
        assert row["counters"]["queries"] == 3
        assert row["counters"]["shed"] == 0

    def test_unpublished_worker_is_dead(self):
        board = Scoreboard(2)
        row = board.row(1)
        assert not row["alive"]
        assert row["pid"] == 0
        assert row["heartbeat_age_s"] is None

    def test_stale_heartbeat_is_dead(self):
        board = Scoreboard(1, liveness_timeout_s=0.5)
        board.publish(0, {}, pid=9, now=time.monotonic() - 10.0)
        assert not board.row(0)["alive"]

    def test_liveness_ignores_wall_clock_steps(self):
        # Regression: liveness used time.time(), so an NTP step could
        # mark healthy workers dead (forward jump) or report negative
        # heartbeat ages (backward jump).  Liveness math must run
        # exclusively on the fake *monotonic* stamps below, no matter
        # how absurd the wall clock gets.
        board = Scoreboard(1, liveness_timeout_s=2.0)
        fake_mono = 1000.0
        for wall in (0.0, 1e9, 123.456):  # wall clock jumping wildly
            board.publish(0, {}, pid=9, now=fake_mono, wall=wall)
            row = board.row(0, now=fake_mono + 0.5)
            assert row["alive"]
            assert row["heartbeat_age_s"] == 0.5
            assert row["last_heartbeat_unix"] == round(wall, 3)
        # Expiry is likewise a monotonic-only decision.
        assert not board.row(0, now=fake_mono + 3.0)["alive"]

    def test_totals_sum_workers(self):
        board = Scoreboard(2)
        board.publish(0, {"requests": 5, "labels_scanned": 100})
        board.publish(1, {"requests": 7, "labels_scanned": 50})
        totals = board.totals()
        assert totals["requests"] == 12
        assert totals["labels_scanned"] == 150

    def test_retire_keeps_totals_monotonic(self):
        board = Scoreboard(2)
        board.publish(0, {"requests": 5})
        board.publish(1, {"requests": 7})
        before = board.totals()
        board.retire(0)
        # Slot cleared, counters preserved in the retired row.
        assert board.row(0)["pid"] == 0
        assert board.totals() == before
        assert board.retired_totals()["requests"] == 5
        # The replacement starts from zero; totals only grow.
        board.publish(0, {"requests": 2}, pid=321, generation=2)
        assert board.totals()["requests"] == 14

    def test_counter_fields_match_service(self):
        from repro.service import PlannerService

        graph = make_random_route_graph(random.Random(5), 6, 3)
        service = PlannerService(TTLPlanner(graph))
        assert set(service.counters()) == set(COUNTER_FIELDS)

    def test_live_generation_and_journal_seq_published(self):
        # Convergence state is identity, not a counter: it must show
        # per row and must never leak into the summed totals.
        board = Scoreboard(2)
        board.publish(0, {}, pid=1, live_generation=7, journal_seq=12)
        board.publish(1, {}, pid=2)
        assert board.row(0)["live_generation"] == 7
        assert board.row(0)["journal_seq"] == 12
        assert board.row(1)["live_generation"] == 0
        assert "live_generation" not in board.totals()
        assert "journal_seq" not in board.totals()

    def test_retire_clears_convergence_state(self):
        board = Scoreboard(1)
        board.publish(0, {}, pid=1, live_generation=7, journal_seq=12)
        board.retire(0)
        assert board.row(0)["journal_seq"] == 0
        assert board.row(0)["live_generation"] == 0

    def test_bad_worker_id_rejected(self):
        board = Scoreboard(2)
        with pytest.raises(ValueError, match="worker id"):
            board.publish(2, {})
        with pytest.raises(ValueError):
            Scoreboard(0)


@pytest.fixture(scope="module")
def cluster(request):
    graph = make_random_route_graph(random.Random(23), 12, 7)
    index = build_index(graph)
    supervisor = ServingSupervisor(
        lambda: TTLPlanner(graph, index=index),
        workers=2,
        heartbeat_interval_s=0.1,
        respawn_backoff_s=0.05,
    )
    port = supervisor.start()
    supervisor.wait_ready(timeout_s=30)
    request.addfinalizer(supervisor.stop)
    return graph, supervisor, port


class TestSupervisor:
    def test_both_workers_alive_in_healthz(self, cluster):
        _, supervisor, port = cluster
        _, body = get(port, "/healthz")
        workers = body["workers"]
        assert len(workers) == 2
        assert all(w["alive"] for w in workers)
        assert len(supervisor.worker_pids()) == 2

    def test_queries_answered_with_worker_identity(self, cluster):
        graph, _, port = cluster
        seen = set()
        for i in range(40):
            status, body = envelope(
                port, f"/eap?from={i % graph.n}&to={(i + 3) % graph.n}&t=0"
            )
            assert status == 200
            seen.add(body["meta"]["worker"])
        # The kernel load-balances; with 40 requests both workers
        # should have answered at least once.
        assert seen <= {0, 1}

    def test_batch_over_shared_socket(self, cluster):
        graph, _, port = cluster
        status, body = post(
            port,
            "/batch",
            {
                "kind": "one_to_many",
                "source": 0,
                "targets": list(range(graph.n)),
                "t": 0,
            },
        )
        assert status == 200
        assert len(body["arrivals"]) == graph.n

    def test_metrics_aggregate_cluster(self, cluster):
        _, _, port = cluster
        _, body = get(port, "/metrics")
        cluster_view = body["cluster"]
        assert len(cluster_view["workers"]) == 2
        assert set(cluster_view["totals"]) == set(COUNTER_FIELDS)
        assert cluster_view["totals"]["requests"] > 0

    def test_kill_respawn_and_monotonic_totals(self, cluster):
        graph, supervisor, port = cluster
        for i in range(10):
            get(port, f"/eap?from={i % graph.n}&to={(i + 1) % graph.n}&t=0")
        _, body = get(port, "/metrics")
        before = body["cluster"]["totals"]

        old_pid = supervisor.kill_worker(0)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            pids = supervisor.worker_pids()
            if len(pids) == 2 and pids.get(0) not in (None, old_pid):
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker 0 was not respawned")
        assert supervisor.respawns >= 1

        # The replacement serves, and aggregated counters never move
        # backwards despite a worker's in-memory counters dying with it.
        for i in range(10):
            status, _ = get(
                port, f"/eap?from={i % graph.n}&to={(i + 2) % graph.n}&t=0"
            )
            assert status == 200
        _, body = get(port, "/metrics")
        after = body["cluster"]["totals"]
        for field in COUNTER_FIELDS:
            assert after[field] >= before[field], field

    def test_wait_ready_times_out_cleanly(self):
        graph = make_random_route_graph(random.Random(3), 5, 3)

        def factory():
            raise RuntimeError("factory deliberately broken")

        supervisor = ServingSupervisor(
            factory, workers=1, respawn=False, heartbeat_interval_s=0.1
        )
        supervisor.start()
        try:
            with pytest.raises(ServiceNotReady):
                supervisor.wait_ready(timeout_s=1.0)
        finally:
            supervisor.stop()
