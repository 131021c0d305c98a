"""Durable live-event journal: framing, recovery, fan-out, drain.

Unit layers mirror ``test_mmap_store.py``'s corruption discipline —
every way the journal bytes can rot must surface as a clean stop at
the last good frame (or a :class:`SerializationError` for a destroyed
header), never as a half-applied record.  The end-to-end class runs
the real thing: a live prefork cluster whose workers tail the
supervisor's journal, survive SIGKILL chaos mid-replay, and drain on
SIGTERM without cutting an accepted request.
"""

import json
import os
import random
import struct
import threading
import time
import urllib.error
import urllib.request
import zlib

import pytest

from repro.core import build_index
from repro.errors import SerializationError
from repro.live import LiveOverlayEngine
from repro.resilience import ResilienceConfig
from repro.serving import (
    JournalFollower,
    LiveJournal,
    ServingSupervisor,
    compact_records,
    scan_frames,
)
from repro.serving.journal import MAGIC, _FRAME, apply_record
from tests.conftest import SlowPlanner, make_random_route_graph


def get(port, path):
    """GET ``/v1{path}``: (status, data)."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())["data"]


def post_url(url, body):
    """POST ``body`` to ``url``: (status, data)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())["data"]


def post(port, path, body):
    """POST ``body`` to ``/v1{path}``: (status, data)."""
    return post_url(f"http://127.0.0.1:{port}/v1{path}", body)


def delay_event(trip_id, delay=60, expires_at=None):
    body = {"kind": "delay", "trip_id": trip_id, "delay": delay}
    if expires_at is not None:
        body["expires_at"] = expires_at
    return body


# ----------------------------------------------------------------------
# LiveJournal: append, recover, compact
# ----------------------------------------------------------------------


class TestLiveJournal:
    def test_append_assigns_sequential_seqs(self, tmp_path):
        journal = LiveJournal(tmp_path / "j.wal")
        assert journal.append({"op": "advance", "now": 10}) == 1
        assert journal.append({"op": "clear_all"}) == 2
        assert journal.seq == 2
        journal.close()

    def test_reopen_recovers_records_and_seq(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        journal.append({"op": "advance", "now": 5})
        journal.append({"op": "clear_all"})
        journal.close()

        reopened = LiveJournal(path)
        assert [r["op"] for r in reopened.records] == [
            "advance",
            "clear_all",
        ]
        assert reopened.seq == 2
        # seq keeps counting from the recovered tail.
        assert reopened.append({"op": "advance", "now": 9}) == 3
        reopened.close()

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        journal.append({"op": "advance", "now": 5})
        journal.close()
        good_size = os.path.getsize(path)
        # A crash mid-append leaves a partial frame.
        with open(path, "ab") as fh:
            fh.write(_FRAME.pack(1000, 12345) + b"partial")

        recovered = LiveJournal(path)
        assert len(recovered.records) == 1
        assert recovered.truncated_bytes == _FRAME.size + len(b"partial")
        assert os.path.getsize(path) == good_size
        # The journal is writable again right where the tear was.
        assert recovered.append({"op": "clear_all"}) == 2
        recovered.close()

    def test_bad_magic_is_a_clean_error(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"NOTAJRNL" + b"x" * 64)
        with pytest.raises(SerializationError, match="magic"):
            LiveJournal(path)

    def test_rewrite_renumbers_and_survives_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        for now in (5, 10, 15):
            journal.append({"op": "advance", "now": now})
        journal.rewrite([{"op": "advance", "now": 15}])
        assert journal.seq == 1
        journal.close()
        reopened = LiveJournal(path)
        assert reopened.records == [{"op": "advance", "now": 15, "seq": 1}]
        reopened.close()

    def test_corruption_fuzz_never_yields_garbage(self, tmp_path):
        """Rot any single payload byte: the CRC catches it and the scan
        stops at the good prefix — mirroring the mmap store's rule that
        bad bytes produce clean truncation, never a wrong record."""
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        for now in (5, 10, 15, 20):
            journal.append({"op": "advance", "now": now})
        journal.close()
        pristine = path.read_bytes()
        clean_records, _ = scan_frames(pristine)

        rng = random.Random(99)
        for _ in range(60):
            position = rng.randrange(len(MAGIC), len(pristine))
            rotted = bytearray(pristine)
            rotted[position] ^= 0xFF
            records, good = scan_frames(bytes(rotted))
            # Whatever survives is a byte-identical prefix of the
            # clean decode — corruption can shorten, never mutate.
            assert records == clean_records[: len(records)]
            assert len(records) < len(clean_records)

    def test_crc_collision_on_garbage_json_stops_scan(self, tmp_path):
        # A frame whose CRC matches but whose payload is not JSON is
        # treated as torn, not a crash.
        payload = b"\x00\xff not json"
        data = MAGIC + _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        records, good = scan_frames(data)
        assert records == []
        assert good == len(MAGIC)


class TestCompactRecords:
    def test_survivors_and_clock(self):
        records = [
            {"op": "apply_event", "seq": 1, "id": 1,
             "event": delay_event(0, expires_at=100)},
            {"op": "apply_event", "seq": 2, "id": 2,
             "event": delay_event(1, expires_at=9000)},
            {"op": "clear", "seq": 3, "id": 1},
            {"op": "advance", "seq": 4, "now": 500},
        ]
        compacted = compact_records(records)
        assert compacted == [
            {"op": "apply_event", "id": 2,
             "event": delay_event(1, expires_at=9000)},
            {"op": "advance", "now": 500},
        ]

    def test_advance_expires_events(self):
        records = [
            {"op": "apply_event", "seq": 1, "id": 7,
             "event": delay_event(0, expires_at=100)},
            {"op": "advance", "seq": 2, "now": 100},
        ]
        assert compact_records(records) == [{"op": "advance", "now": 100}]

    def test_clear_all_then_nothing(self):
        records = [
            {"op": "apply_event", "seq": 1, "id": 1,
             "event": delay_event(0)},
            {"op": "clear_all", "seq": 2},
        ]
        assert compact_records(records) == []

    def test_malformed_records_skipped(self):
        records = [
            {"op": "apply_event", "seq": 1},  # no id/event
            {"op": "apply_event", "seq": 2, "id": 3,
             "event": {"kind": "warp"}},  # unknown kind
            {"op": "advance", "seq": 3, "now": "soon"},  # bad clock
            {"op": "apply_event", "seq": 4, "id": 4,
             "event": delay_event(2)},
        ]
        compacted = compact_records(records)
        assert [r.get("id") for r in compacted] == [4]

    def test_event_ids_preserved_through_compaction(self, tmp_path):
        """Replaying a compacted journal must register the surviving
        events under their *original* ids, so a later clear-by-id keeps
        meaning the same disruption in every process."""
        graph = make_random_route_graph(random.Random(7), 8, 4)
        trip = sorted(graph.trips)[0]
        records = compact_records([
            {"op": "apply_event", "seq": 1, "id": 1,
             "event": delay_event(trip, expires_at=50)},
            {"op": "advance", "seq": 2, "now": 60},  # expires id 1
            {"op": "apply_event", "seq": 3, "id": 5,
             "event": dict(delay_event(trip), apply_at=60)},
        ])
        engine = LiveOverlayEngine(graph)
        engine.preprocess()
        for record in records:
            apply_record(engine, record)
        assert [eid for eid, _ in engine.events()] == [5]
        assert engine.now == 60


# ----------------------------------------------------------------------
# JournalFollower
# ----------------------------------------------------------------------


class TestJournalFollower:
    def _follow(self, path, poll=0.01):
        applied = []
        follower = JournalFollower(path, applied.append, poll_interval_s=poll)
        return follower, applied

    def test_replays_then_tails(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        journal.append({"op": "advance", "now": 5})
        journal.append({"op": "clear_all"})

        follower, applied = self._follow(path)
        follower.start()
        assert follower.caught_up.wait(5)
        assert [r["op"] for r in applied] == ["advance", "clear_all"]
        assert follower.applied_seq == 2

        journal.append({"op": "advance", "now": 50})
        deadline = time.monotonic() + 5
        while follower.applied_seq < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert follower.applied_seq == 3
        assert applied[-1] == {"op": "advance", "now": 50, "seq": 3}
        follower.stop()
        journal.close()

    def test_parks_at_torn_tail_and_resumes(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        journal.append({"op": "advance", "now": 5})
        journal.close()
        # Simulate an in-flight append: header promises more bytes
        # than are on disk yet.
        payload = json.dumps(
            {"op": "advance", "now": 9, "seq": 2}, sort_keys=True
        ).encode()
        with open(path, "ab") as fh:
            fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            fh.write(payload[: len(payload) // 2])

        follower, applied = self._follow(path)
        follower.start()
        assert follower.caught_up.wait(5)
        assert follower.applied_seq == 1  # parked before the tear

        # The write completes -> the parked frame applies on next poll.
        with open(path, "ab") as fh:
            fh.write(payload[len(payload) // 2:])
        deadline = time.monotonic() + 5
        while follower.applied_seq < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert follower.applied_seq == 2
        assert len(applied) == 2
        follower.stop()

    def test_wait_for_gates_replay(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = LiveJournal(path)
        journal.append({"op": "advance", "now": 5})
        journal.close()
        gate = threading.Event()
        applied = []
        follower = JournalFollower(
            path, applied.append, poll_interval_s=0.01, wait_for=gate
        )
        follower.start()
        time.sleep(0.1)
        assert applied == []  # index not warm yet: nothing applied
        assert not follower.caught_up.is_set()
        gate.set()
        assert follower.caught_up.wait(5)
        assert len(applied) == 1
        follower.stop()


class TestReplayGatesReadiness:
    def test_ready_503_until_follower_catches_up(self, tmp_path):
        """A worker replaying the journal must answer 503 on
        ``/healthz/ready`` (and shed queries) until the follower has
        reached the tail — the replay-to-ready contract."""
        from repro.service import PlannerService

        graph = make_random_route_graph(random.Random(11), 8, 4)
        service = PlannerService(LiveOverlayEngine(graph))
        port = service.start(port=0)
        gate = threading.Event()
        follower = JournalFollower(
            os.fspath(tmp_path / "absent.wal"),
            service.apply_journal_record,
            poll_interval_s=0.01,
            wait_for=gate,
        )
        service.journal_follower = follower
        follower.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(port, "/healthz/ready")
            assert err.value.code == 503
            body = json.loads(err.value.read())
            assert "journal" in body["error"]

            gate.set()
            assert follower.caught_up.wait(5)
            status, body = get(port, "/healthz/ready")
            assert status == 200 and body["ready"] is True
        finally:
            follower.stop()
            service.stop()


# ----------------------------------------------------------------------
# End-to-end: journalled live prefork cluster
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_cluster(request, tmp_path_factory):
    graph = make_random_route_graph(random.Random(23), 12, 7)
    index = build_index(graph)
    journal_path = os.fspath(
        tmp_path_factory.mktemp("journal") / "live.wal"
    )
    supervisor = ServingSupervisor(
        lambda: LiveOverlayEngine(graph, index=index),
        workers=2,
        resilience=ResilienceConfig(cache_size=64),
        journal_path=journal_path,
        heartbeat_interval_s=0.1,
        respawn_backoff_s=0.05,
    )
    port = supervisor.start()
    supervisor.wait_ready(timeout_s=30)
    request.addfinalizer(supervisor.stop)
    return graph, supervisor, port


def wait_converged(supervisor, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if supervisor.converged():
            return
        time.sleep(0.02)
    rows = supervisor.scoreboard.workers()
    pytest.fail(
        f"fleet never converged on journal seq {supervisor.journal.seq}: "
        f"{[(r['worker'], r['journal_seq']) for r in rows]}"
    )


class TestLiveCluster:
    def test_worker_mutation_409_points_at_coordinator(self, live_cluster):
        graph, supervisor, port = live_cluster
        trip = sorted(graph.trips)[0]
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/live/events", delay_event(trip))
        assert err.value.code == 409
        body = json.loads(err.value.read())
        assert "coordinated" in body["error"]
        # The hint names the coordinated path, and that path applies
        # the mutation.
        url = f"{supervisor.coordinator_url}/v1/live/events"
        assert url in body["hint"]
        status, applied = post_url(url, delay_event(trip))
        assert status == 200
        assert applied["seq"] == supervisor.journal.seq
        wait_converged(supervisor)

    def test_event_fans_out_to_all_workers(self, live_cluster):
        graph, supervisor, port = live_cluster
        trip = sorted(graph.trips)[1]
        status, body = post(
            supervisor.control_port, "/live/events", delay_event(trip)
        )
        assert status == 200
        assert body["seq"] == supervisor.journal.seq
        wait_converged(supervisor)

        reference_generation = supervisor.control_service.live_generation()
        rows = supervisor.scoreboard.workers()
        assert all(
            row["live_generation"] == reference_generation for row in rows
        )
        # Every worker's own healthz agrees (whichever accepts).
        for _ in range(6):
            _, health = get(port, "/healthz")
            assert health["live_generation"] == reference_generation
            assert health["journal"]["role"] == "follower"
            assert health["journal"]["caught_up"] is True

    def test_advance_backwards_400_names_field(self, live_cluster):
        _, supervisor, _ = live_cluster
        control = supervisor.control_port
        post(control, "/live/advance", {"now": 1000})
        wait_converged(supervisor)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(control, "/live/advance", {"now": 10})
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["field"] == "now"
        assert "backwards" in body["error"]
        assert body["hint"]
        # The rejected advance must not have been journalled.
        assert supervisor.journal.records[-1]["op"] != "advance" or (
            supervisor.journal.records[-1]["now"] == 1000
        )

    def test_sigkill_respawn_replays_to_ready(self, live_cluster):
        graph, supervisor, port = live_cluster
        control = supervisor.control_port
        trips = sorted(graph.trips)
        for trip in trips[2:6]:
            post(control, "/live/events", delay_event(trip))
        wait_converged(supervisor)
        target_seq = supervisor.journal.seq
        reference_generation = supervisor.control_service.live_generation()

        old_pid = supervisor.kill_worker(0)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            pids = supervisor.worker_pids()
            if len(pids) == 2 and pids.get(0) not in (None, old_pid):
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker 0 was not respawned")

        # wait_ready now also demands journal convergence: the respawn
        # replays every record before it counts.
        supervisor.wait_ready(timeout_s=30)
        row = supervisor.scoreboard.row(0)
        assert row["journal_seq"] >= target_seq
        assert row["live_generation"] == reference_generation

    def test_crash_during_replay_recovers(self, live_cluster):
        """Kill a worker, then kill its replacement almost immediately
        (very likely mid-replay).  The third incarnation must still
        replay from the last good frame to the tail and converge —
        replay is idempotent-by-construction because every worker
        starts from a fresh fork with an empty overlay."""
        graph, supervisor, port = live_cluster
        control = supervisor.control_port
        trips = sorted(graph.trips)
        for trip in trips[6:14]:
            post(control, "/live/events", delay_event(trip))
        wait_converged(supervisor)

        old_pid = supervisor.kill_worker(1)
        # Respawn, then kill again as soon as the new pid exists.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            pids = supervisor.worker_pids()
            if pids.get(1) not in (None, old_pid):
                break
            time.sleep(0.01)
        else:
            pytest.fail("worker 1 was not respawned")
        try:
            supervisor.kill_worker(1)
        except ValueError:
            pass  # it died between the poll and the kill: same outcome

        supervisor.wait_ready(timeout_s=30)
        wait_converged(supervisor)
        assert supervisor.respawns >= 2
        status, _ = get(port, "/eap?from=0&to=3&t=0")
        assert status == 200

    def test_clear_all_fans_out(self, live_cluster):
        _, supervisor, port = live_cluster
        status, body = post(supervisor.control_port, "/live/clear", {})
        assert status == 200
        assert body["seq"] == supervisor.journal.seq
        wait_converged(supervisor)
        _, listing = get(supervisor.control_port, "/live/events")
        assert listing["events"] == []


class TestRestartCompaction:
    def test_restart_compacts_expired_events(self, tmp_path):
        graph = make_random_route_graph(random.Random(29), 10, 5)
        index = build_index(graph)
        journal_path = os.fspath(tmp_path / "live.wal")
        trips = sorted(graph.trips)

        first = ServingSupervisor(
            lambda: LiveOverlayEngine(graph, index=index),
            workers=2,
            journal_path=journal_path,
            heartbeat_interval_s=0.1,
        )
        first.start()
        first.wait_ready(timeout_s=30)
        control = first.control_port
        post(control, "/live/events",
             delay_event(trips[0], expires_at=100))
        post(control, "/live/events",
             delay_event(trips[1], expires_at=10**6))
        post(control, "/live/advance", {"now": 200})  # expires the first
        lifetime_seq = first.journal.seq
        assert lifetime_seq == 3
        first.stop()

        second = ServingSupervisor(
            lambda: LiveOverlayEngine(graph, index=index),
            workers=2,
            journal_path=journal_path,
            heartbeat_interval_s=0.1,
        )
        second.start()
        try:
            second.wait_ready(timeout_s=30)
            # Compacted: one surviving event + the clock, not three
            # lifetime mutations — and the survivor keeps its id.
            ops = [r["op"] for r in second.journal.records]
            assert ops == ["apply_event", "advance"]
            assert second.journal.records[0]["id"] == 2
            assert second.journal.records[1]["now"] == 200
            reference = second.control_service
            assert reference.live_generation() > 0
            _, listing = get(second.control_port, "/live/events")
            assert [e["id"] for e in listing["events"]] == [2]
        finally:
            second.stop()


class TestGracefulDrain:
    def test_drain_completes_inflight_and_exits_zero(self, tmp_path):
        """SIGTERM-drain under load: every request that a worker
        accepted completes (no resets), workers exit 0, the journal is
        durable afterwards.  A 0.15 s plan keeps requests in flight
        across the SIGTERM instant."""
        graph = make_random_route_graph(random.Random(31), 10, 5)
        index = build_index(graph)
        slow_live = SlowPlanner.of(LiveOverlayEngine)
        journal_path = os.fspath(tmp_path / "drain.wal")
        supervisor = ServingSupervisor(
            lambda: slow_live(graph, index=index, delay_s=0.15),
            workers=2,
            resilience=ResilienceConfig(),
            journal_path=journal_path,
            heartbeat_interval_s=0.1,
        )
        port = supervisor.start()
        supervisor.wait_ready(timeout_s=30)
        post(supervisor.control_port, "/live/events",
             delay_event(sorted(graph.trips)[0]))

        results = []
        lock = threading.Lock()

        def fire(i):
            try:
                status, _ = get(
                    port, f"/eap?from={i % graph.n}"
                    f"&to={(i + 3) % graph.n}&t=0"
                )
                outcome = status
            except urllib.error.HTTPError as exc:
                outcome = exc.code
            except (ConnectionError, urllib.error.URLError, OSError) as exc:
                reason = getattr(exc, "reason", exc)
                outcome = (
                    "refused"
                    if isinstance(reason, ConnectionRefusedError)
                    else "reset"
                )
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the batch get accepted / queued
        clean = supervisor.drain(grace_s=10.0)
        for thread in threads:
            thread.join(timeout=30)

        assert clean, "a worker exited nonzero or needed SIGKILL"
        assert len(results) == 16
        # Accepted requests completed; stragglers were cleanly refused.
        assert "reset" not in results
        assert results.count(200) >= 1
        # The journal survived the drain intact and durable.
        journal = LiveJournal(journal_path)
        assert journal.truncated_bytes == 0
        assert journal.seq >= 1
        journal.close()
