"""Unit tests for the resilience primitives (no HTTP involved)."""

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, Overloaded
from repro.resilience import (
    AdmissionController,
    Deadline,
    ResilienceConfig,
    ResilientExecutor,
    active_deadline,
    check_deadline,
    deadline_scope,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_fresh_deadline_passes_check(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check()
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(1.0)

    def test_expired_deadline_raises(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)

    def test_check_deadline_noop_without_installed_deadline(self):
        assert active_deadline() is None
        check_deadline()  # must not raise

    def test_deadline_scope_installs_and_restores(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        with deadline_scope(deadline):
            assert active_deadline() is deadline
            check_deadline()
            clock.advance(2.0)
            with pytest.raises(DeadlineExceeded):
                check_deadline()
        assert active_deadline() is None
        check_deadline()

    def test_deadline_scope_none_is_noop(self):
        with deadline_scope(None):
            assert active_deadline() is None

    def test_scope_is_per_thread(self):
        clock = FakeClock()
        expired = Deadline(0.0, clock=clock)
        clock.advance(1.0)
        seen = {}

        def other_thread():
            seen["deadline"] = active_deadline()

        with deadline_scope(expired):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["deadline"] is None


class TestAdmission:
    def test_admits_up_to_limit_then_sheds(self):
        gate = AdmissionController(max_inflight=2, clock=FakeClock())
        gate.acquire()
        gate.acquire()
        with pytest.raises(Overloaded) as err:
            gate.acquire()
        assert err.value.retry_after == 1.0
        gate.release()
        gate.acquire()  # slot freed, admitted again
        assert gate.inflight == 2

    def test_admit_context_manager_releases_on_error(self):
        gate = AdmissionController(max_inflight=1, clock=FakeClock())
        with pytest.raises(RuntimeError):
            with gate.admit():
                assert gate.inflight == 1
                raise RuntimeError("boom")
        assert gate.inflight == 0
        with gate.admit():
            pass

    def test_shedding_signal_with_grace_window(self):
        clock = FakeClock()
        gate = AdmissionController(
            max_inflight=1, shed_grace_s=5.0, clock=clock
        )
        assert not gate.shedding
        gate.acquire()
        assert gate.shedding  # gate full
        with pytest.raises(Overloaded):
            gate.acquire()
        gate.release()
        assert gate.shedding  # inside the grace window
        clock.advance(5.0)
        assert not gate.shedding

    def test_snapshot_counters(self):
        gate = AdmissionController(max_inflight=1, clock=FakeClock())
        gate.acquire()
        with pytest.raises(Overloaded):
            gate.acquire()
        snap = gate.snapshot()
        assert snap["admitted"] == 1
        assert snap["shed"] == 1
        assert snap["inflight"] == 1
        assert snap["peak_inflight"] == 1

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestExecutor:
    def test_plain_call_passes_through(self):
        executor = ResilientExecutor(ResilienceConfig())
        result, degraded = executor.run(lambda: 42)
        assert result == 42
        assert degraded is False

    def test_lock_is_held_during_call(self):
        executor = ResilientExecutor(ResilienceConfig())
        lock = threading.RLock()

        def probe():
            # RLock can't tell us the owner; use a non-blocking acquire
            # from another thread to prove the call holds it.
            grabbed = {}

            def try_grab():
                grabbed["ok"] = lock.acquire(blocking=False)
                if grabbed["ok"]:
                    lock.release()

            t = threading.Thread(target=try_grab)
            t.start()
            t.join()
            return grabbed["ok"]

        result, _ = executor.run(probe, lock=lock)
        assert result is False  # another thread couldn't take the lock

    def test_injected_latency_plus_deadline_maps_to_deadline_exceeded(self):
        executor = ResilientExecutor(ResilienceConfig(deadline_ms=10.0))
        with pytest.raises(DeadlineExceeded):
            executor.run(lambda: time.sleep(0.05))
        # A fast call right after is healthy.
        assert executor.run(lambda: 1) == (1, False)
        assert executor.snapshot()["deadline_exceeded"] == 1

    def test_budget_spent_waiting_for_the_lock_never_runs(self):
        executor = ResilientExecutor(ResilienceConfig(deadline_ms=10.0))
        lock = threading.RLock()
        outcome = []

        def queued():
            try:
                executor.run(lambda: outcome.append("ran"), lock=lock)
            except DeadlineExceeded:
                outcome.append("504")

        with lock:
            worker = threading.Thread(target=queued)
            worker.start()
            time.sleep(0.05)
        worker.join(timeout=5)
        assert outcome == ["504"]

    def test_sheds_when_gate_full(self):
        executor = ResilientExecutor(ResilienceConfig(max_inflight=1))
        started = threading.Event()
        finish = threading.Event()

        def slow():
            started.set()
            finish.wait(5)
            return "slow"

        worker = threading.Thread(
            target=lambda: executor.run(slow), daemon=True
        )
        worker.start()
        assert started.wait(5)
        with pytest.raises(Overloaded):
            executor.run(lambda: "fast")
        finish.set()
        worker.join(timeout=5)
        assert executor.run(lambda: "fast") == ("fast", False)
