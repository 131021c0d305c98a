"""Prefork multi-worker serving.

One supervisor process binds the listening socket, forks K workers
that each ``mmap`` the same TTLIDX03 index file read-only and
``accept()`` on the shared socket.  The kernel load-balances accepts;
the page cache holds one physical copy of the label columns no matter
how many workers serve them — the Delling et al. / Phan & Viennot
serving shape, where the label file is an immutable shared artifact.

* :class:`~repro.serving.scoreboard.Scoreboard` — lock-free shared
  memory where every worker publishes liveness heartbeats and its
  cumulative counters; any worker can answer aggregated ``/metrics``
  and per-worker ``/healthz`` from it.  A retired-totals row keeps the
  aggregate monotonic across worker deaths.
* :func:`~repro.serving.worker.worker_main` — the forked child body:
  build the planner, adopt the shared socket into a
  :class:`~repro.service.PlannerService`, publish forever.
* :class:`~repro.serving.supervisor.ServingSupervisor` — binds, forks,
  monitors, respawns.
* :class:`~repro.serving.http.HttpServer` — the one HTTP transport
  under every listener (reused accept threads, one write per response).
* :class:`~repro.serving.cache.AnswerCache` — per-worker hot-pair
  answer cache with taint-driven invalidation (``serve --cache-size``;
  see docs/serving.md).
* :class:`~repro.serving.journal.LiveJournal` /
  :class:`~repro.serving.journal.JournalFollower` — the durable
  live-event journal the supervisor appends to and every worker tails,
  so live mutations fan out to the whole fleet and a respawned worker
  replays to the tail before reporting ready (``serve --live
  --workers K --journal FILE``; see docs/serving.md).

Wired to the CLI as ``repro-ttl serve NAME --workers K --mmap
--index FILE --cache-size N``.
"""

from repro.serving.cache import AnswerCache, CacheStats
from repro.serving.journal import (
    JournalFollower,
    LiveJournal,
    compact_records,
    scan_frames,
)
from repro.serving.scoreboard import (
    COUNTER_FIELDS,
    FIELDS,
    Scoreboard,
)
from repro.serving.supervisor import ServingSupervisor
from repro.serving.worker import (
    live_mapped_planner_factory,
    mapped_planner_factory,
    worker_main,
)

__all__ = [
    "AnswerCache",
    "CacheStats",
    "COUNTER_FIELDS",
    "FIELDS",
    "JournalFollower",
    "LiveJournal",
    "Scoreboard",
    "ServingSupervisor",
    "compact_records",
    "live_mapped_planner_factory",
    "mapped_planner_factory",
    "scan_frames",
    "worker_main",
]
