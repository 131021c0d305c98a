"""The forked worker body and planner factories.

A worker is a forked child of the supervisor.  It builds its own
planner (for mmap serving that means mapping the shared index file —
a zero-copy O(header) load), adopts the supervisor's listening socket
into a :class:`~repro.service.PlannerService`, and then spends its
life publishing heartbeats + counters to the shared scoreboard.  It
never returns; the supervisor terminates it.

Factories are plain closures: workers are started with the ``fork``
start method precisely so nothing has to pickle — the graph, config,
and socket all arrive by address-space inheritance, and the index
pages arrive by ``mmap`` against the page cache.
"""

from __future__ import annotations

import signal
import socket
import threading
from typing import Callable, Optional

from repro.core.queries import TTLPlanner
from repro.core.serialize import load_index
from repro.graph.timetable import TimetableGraph
from repro.planner import RoutePlanner
from repro.resilience import ResilienceConfig
from repro.serving.scoreboard import Scoreboard

PlannerFactory = Callable[[], RoutePlanner]


def mapped_planner_factory(
    graph: TimetableGraph,
    index_path: str,
    verify: bool = False,
) -> PlannerFactory:
    """A factory that memory-maps ``index_path`` when called.

    ``verify=False`` skips the per-column crc pass in the worker —
    the supervisor (or CLI) is expected to have verified the file once
    before forking, and re-verifying in every worker would fault every
    page in, defeating the lazy cold start.
    """

    def factory() -> RoutePlanner:
        index = load_index(index_path, graph, mmap=True, verify=verify)
        _warm_kernels(index)
        return TTLPlanner(graph, index=index)

    return factory


def _warm_kernels(index) -> None:
    """Materialize the numpy column views (and their derived arrays)
    once at factory time, so the first request does not pay for it.

    The views are zero-copy over the mapped columns — warming costs a
    few small allocations, not a page-in of the store.
    """
    from repro.core import kernels

    if not kernels.vectorized_available():
        return
    for store in (index.in_store, index.out_store):
        if store is not None:
            store.ndarray_columns()


def live_mapped_planner_factory(
    graph: TimetableGraph,
    index_path: str,
    verify: bool = False,
) -> PlannerFactory:
    """Like :func:`mapped_planner_factory`, but wraps the mapped index
    in a :class:`~repro.live.LiveOverlayEngine` so the worker can apply
    journalled live mutations.  The sealed index pages are still shared
    copy-on-read across the fleet; only the (small) overlay state is
    private per worker.
    """

    def factory() -> RoutePlanner:
        from repro.live import LiveOverlayEngine

        index = load_index(index_path, graph, mmap=True, verify=verify)
        _warm_kernels(index)
        return LiveOverlayEngine(graph, index=index)

    return factory


def worker_main(
    worker_id: int,
    generation: int,
    sock: socket.socket,
    planner_factory: PlannerFactory,
    scoreboard: Scoreboard,
    resilience: Optional[ResilienceConfig] = None,
    heartbeat_interval_s: float = 0.25,
    warm: bool = True,
    journal_path: Optional[str] = None,
    coordinator: Optional[str] = None,
) -> None:
    """Serve on the shared socket (runs in the forked child).

    With ``journal_path`` set the worker tails the supervisor's live
    journal: a follower thread applies every durable record in order
    under the service lock, and ``/healthz/ready`` reports ready only
    once the replay has caught up to the tail — a respawned worker
    never serves answers from a stale overlay.  ``coordinator`` is the
    supervisor's control URL; direct mutations on this worker then
    answer 409 pointing at it.

    Runs until SIGTERM (graceful drain: stop accepting, finish
    in-flight requests, final scoreboard publish, return so the child
    exits 0) or SIGKILL (chaos; the supervisor respawns).
    """
    # Lazy import: repro.service imports a lot; the supervisor module
    # must stay importable without it for the scoreboard unit tests.
    from repro.service import PlannerService

    planner = planner_factory()
    service = PlannerService(
        planner,
        resilience=resilience,
        worker_id=worker_id,
        scoreboard=scoreboard,
        coordinator=coordinator,
    )
    service.generation = generation

    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())

    service.start(sock=sock, warm=warm)
    if journal_path is not None:
        from repro.serving.journal import JournalFollower

        poll_s = (
            resilience.journal_poll_s if resilience is not None else 0.05
        )
        service.journal_follower = JournalFollower(
            journal_path,
            service.apply_journal_record,
            poll_interval_s=poll_s,
            wait_for=service._ready,
        )
        service.journal_follower.start()
    # First heartbeat at ready, not one interval later: wait_ready (and
    # the monitor after a respawn) sees this worker at once.
    service.publish_counters()
    try:
        while not drain.wait(timeout=heartbeat_interval_s):
            service.publish_counters()
    except KeyboardInterrupt:
        # Ctrl-C hits the whole foreground process group; exit quietly
        # and let the supervisor's shutdown own the terminal.
        return
    # Graceful drain: stop the follower, close the listener and join
    # in-flight handler threads (service.stop() blocks on them), then
    # publish one last counter snapshot so the supervisor's retire()
    # folds a complete total.
    if service.journal_follower is not None:
        service.journal_follower.stop()
    service.stop()
    service.publish_counters()
