"""Temporal Dijkstra (Cooke et al.'s modified Dijkstra).

The paper's Section 1 baseline: Dijkstra's algorithm adapted to
timetable graphs.  The forward search settles nodes in order of
earliest arrival time (EAT); once a node is settled its EAT is final,
so each node's outgoing edges are relaxed exactly once.  One ``bisect``
into an edge timetable (``graph.out_edges``) finds the only connection
of that edge that can improve its head.

The backward search is the time-reversed mirror (latest departure
times), and SDP is answered by sweeping the source's departure times,
which is exact because an optimal shortest-duration path leaves on some
outgoing connection of the source.

:class:`DijkstraPlanner` wraps the searches in the common
:class:`~repro.planner.RoutePlanner` interface; the free functions are
reused by index construction and by tests as the correctness oracle.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Tuple

from repro.graph.connection import Connection, Path
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.planner import RoutePlanner
from repro.resilience.deadline import check_deadline
from repro.timeutil import INF, NEG_INF

#: Heap pops between cooperative deadline checks.  The searches below
#: are the service's slowest code paths (the live engine's fallback in
#: particular), so they must notice an expired request budget and
#: raise DeadlineExceeded instead of finishing under the planner lock.
_DEADLINE_STRIDE = 256


def earliest_arrival_search(
    graph: TimetableGraph,
    source: int,
    t: int,
    target: Optional[int] = None,
    allowed: Optional[Callable[[int], bool]] = None,
) -> Tuple[List[int], List[Optional[Connection]]]:
    """One-to-all earliest arrival times from ``source`` departing
    no sooner than ``t``.

    Args:
        graph: the timetable graph.
        source: starting station.
        t: earliest allowed departure time.
        target: optional early-termination station.
        allowed: optional node filter; stations for which it returns
            False are never entered (used by rank-restricted searches).

    Returns:
        ``(eat, parent)`` where ``eat[v]`` is the earliest arrival time
        at ``v`` (``INF`` if unreachable) and ``parent[v]`` the
        connection that first achieved it (``None`` for the source).
    """
    n = graph.n
    eat: List[int] = [INF] * n
    parent: List[Optional[Connection]] = [None] * n
    eat[source] = t
    settled = [False] * n
    heap: List[Tuple[int, int]] = [(t, source)]
    out_edges = graph.out_edges

    pops = 0
    while heap:
        pops += 1
        if not pops % _DEADLINE_STRIDE:
            check_deadline()
        arr_u, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        # Per edge, only its earliest-arriving boardable connection
        # can improve the head.
        for v, deps, best in out_edges[u]:
            i = bisect_left(deps, arr_u)
            if i == len(deps):
                continue
            c = best[i]
            if c.arr < eat[v]:
                if allowed is not None and not allowed(v):
                    continue
                eat[v] = c.arr
                parent[v] = c
                heapq.heappush(heap, (c.arr, v))
    return eat, parent


def latest_departure_search(
    graph: TimetableGraph,
    destination: int,
    t: int,
    source: Optional[int] = None,
    allowed: Optional[Callable[[int], bool]] = None,
) -> Tuple[List[int], List[Optional[Connection]]]:
    """One-to-all latest departure times reaching ``destination`` no
    later than ``t`` (the "backward version" of Section 5.1).

    Returns:
        ``(ldt, child)`` where ``ldt[v]`` is the latest feasible
        departure from ``v`` (``NEG_INF`` if ``destination`` cannot be
        reached) and ``child[v]`` the first connection of the path that
        achieves it.
    """
    n = graph.n
    ldt: List[int] = [NEG_INF] * n
    child: List[Optional[Connection]] = [None] * n
    ldt[destination] = t
    settled = [False] * n
    heap: List[Tuple[int, int]] = [(-t, destination)]
    inc_edges = graph.inc_edges

    pops = 0
    while heap:
        pops += 1
        if not pops % _DEADLINE_STRIDE:
            check_deadline()
        neg_dep, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        if v == source:
            break
        dep_v = -neg_dep
        for u, arrs, best in inc_edges[v]:
            i = bisect_right(arrs, dep_v)
            if not i:
                continue
            c = best[i - 1]
            if c.dep > ldt[u]:
                if allowed is not None and not allowed(u):
                    continue
                ldt[u] = c.dep
                child[u] = c
                heapq.heappush(heap, (-c.dep, u))
    return ldt, child


def extract_forward_path(
    parent: List[Optional[Connection]], source: int, destination: int
) -> Optional[Path]:
    """Rebuild the connection sequence from forward parent pointers."""
    if source == destination:
        return []
    conn = parent[destination]
    if conn is None:
        return None
    path: Path = []
    while conn is not None:
        path.append(conn)
        if conn.u == source:
            break
        conn = parent[conn.u]
    else:  # pragma: no cover - defensive
        return None
    path.reverse()
    return path


def extract_backward_path(
    child: List[Optional[Connection]], source: int, destination: int
) -> Optional[Path]:
    """Rebuild the connection sequence from backward child pointers."""
    if source == destination:
        return []
    conn = child[source]
    if conn is None:
        return None
    path: Path = []
    while conn is not None:
        path.append(conn)
        if conn.v == destination:
            break
        conn = child[conn.v]
    else:  # pragma: no cover - defensive
        return None
    return path


def earliest_arrival_path(
    graph: TimetableGraph, source: int, destination: int, t: int
) -> Optional[Path]:
    """EAP as a connection sequence, or ``None`` when unreachable."""
    eat, parent = earliest_arrival_search(graph, source, t, target=destination)
    if eat[destination] >= INF:
        return None
    return extract_forward_path(parent, source, destination)


def latest_departure_path(
    graph: TimetableGraph, source: int, destination: int, t: int
) -> Optional[Path]:
    """LDP as a connection sequence, or ``None`` when infeasible."""
    ldt, child = latest_departure_search(graph, destination, t, source=source)
    if ldt[source] <= NEG_INF:
        return None
    return extract_backward_path(child, source, destination)


class DijkstraPlanner(RoutePlanner):
    """The no-index baseline: answer every query with a fresh search."""

    name = "Dijkstra"

    def _build(self) -> None:
        # Nothing to precompute; adjacency comes with the graph.
        return

    def index_bytes(self) -> int:
        return 0

    def earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        path = earliest_arrival_path(self.graph, source, destination, t)
        if path is None:
            return None
        return Journey.from_path(path)

    def latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        path = latest_departure_path(self.graph, source, destination, t)
        if path is None:
            return None
        return Journey.from_path(path)

    def shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        self._check_window(t, t_end)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        best_path: Optional[Path] = None
        best_duration = INF
        # One full search per candidate departure: by far the heaviest
        # query in the repo, so check the budget between sweeps too.
        for dep in self.graph.departure_times(source):
            check_deadline()
            if dep < t or dep > t_end:
                continue
            eat, parent = earliest_arrival_search(
                self.graph, source, dep, target=destination
            )
            arr = eat[destination]
            if arr > t_end:
                continue
            path = extract_forward_path(parent, source, destination)
            if path is None:
                continue
            duration = path[-1].arr - path[0].dep
            if duration < best_duration:
                best_duration = duration
                best_path = path
        if best_path is None:
            return None
        return Journey.from_path(best_path)

    def profile(self, source: int, destination: int, t: int, t_end: int):
        """All non-dominated ``(dep, arr)`` journeys in the window, by
        sweeping the source's departure times (Lemma 6's enumeration).

        Expensive but index-free — this is what lets the live engine's
        Dijkstra fallback answer profile queries exactly on a disrupted
        overlay timetable.
        """
        from repro.core.profile_queries import oracle_profile

        self._check_query(source, destination)
        self._check_window(t, t_end)
        if source == destination:
            return [(t, t)]
        return oracle_profile(self.graph, source, destination, t, t_end)
