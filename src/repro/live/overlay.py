"""Patch-sets and the overlay timetable.

:class:`PatchSet` compiles a set of active events against a frozen
:class:`~repro.graph.timetable.TimetableGraph` into an explicit
connection diff — ``removed`` (connections no longer valid) and
``added`` (retimed or extra connections) — plus per-trip and per-time
indexes the taint analyzer and the hybrid engine read.

:class:`OverlayTimetable` then layers that diff over the base graph
*without copying it*: only stations incident to a patched connection
get fresh adjacency lists, and their edge timetables are derived on
first use; every other station shares the base graph's objects.  The
result duck-types ``TimetableGraph`` closely enough that
:mod:`repro.algorithms.temporal_dijkstra` (and hence
``DijkstraPlanner``) runs on it unchanged, which is what the engine's
fallback path relies on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import LiveEventError, UnknownStationError, UnknownTripError
from repro.graph.connection import Connection
from repro.graph.route import StopTime, trip_connections
from repro.graph.timetable import (
    TimetableGraph,
    inc_edge_timetables,
    out_edge_timetables,
)
from repro.live.events import ExtraTrip, LiveEvent, TripCancellation, TripDelay


class PatchSet:
    """The compiled diff between the base and the live timetable.

    Attributes:
        removed: base connections invalidated by the active events.
        added: new connections, sorted by departure time.
        disrupted_trips: trips with at least one removed connection.
        removed_by_trip: removed connections grouped per trip (read by
            the taint analyzer to decide whether a label segment rides
            a patched portion of a trip).
        extra_trip_ids: trip ids of injected extra vehicles.
    """

    __slots__ = (
        "removed",
        "added",
        "added_runs",
        "disrupted_trips",
        "removed_by_trip",
        "extra_trip_ids",
        "_added_deps",
        "_added_by_arr",
        "_added_arrs",
    )

    def __init__(
        self,
        removed: Iterable[Connection],
        added: Iterable[Connection],
    ) -> None:
        self.removed = frozenset(removed)
        self.added: Tuple[Connection, ...] = tuple(
            sorted(added, key=lambda c: (c.dep, c.arr))
        )
        by_trip: Dict[int, List[Connection]] = {}
        for conn in self.removed:
            by_trip.setdefault(conn.trip, []).append(conn)
        self.removed_by_trip: Dict[int, Tuple[Connection, ...]] = {
            trip: tuple(conns) for trip, conns in by_trip.items()
        }
        self.disrupted_trips = frozenset(by_trip)
        base_trips = {c.trip for c in self.removed}
        self.extra_trip_ids = frozenset(
            c.trip for c in self.added if c.trip not in base_trips
        )
        self._added_deps = [c.dep for c in self.added]
        self._added_by_arr = sorted(self.added, key=lambda c: (c.arr, c.dep))
        self._added_arrs = [c.arr for c in self._added_by_arr]
        self.added_runs: Tuple[Tuple[Connection, ...], ...] = _group_runs(
            self.added
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def compile(
        cls, graph: TimetableGraph, events: Sequence[LiveEvent]
    ) -> "PatchSet":
        """Compile ``events`` (all taken as active) against ``graph``.

        Events on the same trip compose: delays stack in event order
        and a cancellation wins over any delay.  Extra trips without an
        explicit id get fresh ids above the graph's existing trips,
        assigned deterministically in event order.
        """
        cancelled: set = set()
        delays_by_trip: Dict[int, List[TripDelay]] = {}
        extras: List[ExtraTrip] = []
        for event in events:
            if isinstance(event, TripCancellation):
                if event.trip_id not in graph.trips:
                    raise UnknownTripError(event.trip_id)
                cancelled.add(event.trip_id)
            elif isinstance(event, TripDelay):
                if event.trip_id not in graph.trips:
                    raise UnknownTripError(event.trip_id)
                delays_by_trip.setdefault(event.trip_id, []).append(event)
            elif isinstance(event, ExtraTrip):
                extras.append(event)
            else:
                raise LiveEventError(f"unsupported event: {event!r}")

        removed: List[Connection] = []
        added: List[Connection] = []

        for trip_id in sorted(cancelled | set(delays_by_trip)):
            trip = graph.trips[trip_id]
            route = graph.route_of_trip(trip_id)
            original = trip_connections(route, trip)
            if trip_id in cancelled:
                removed.extend(original)
                continue
            times = list(trip.stop_times)
            for event in delays_by_trip[trip_id]:
                times = _delay_stop_times(times, event.delay, event.from_stop)
            retimed = [
                Connection(
                    u=route.stops[i],
                    v=route.stops[i + 1],
                    dep=times[i].dep,
                    arr=times[i + 1].arr,
                    trip=trip_id,
                )
                for i in range(len(route.stops) - 1)
            ]
            for old, new in zip(original, retimed):
                if old != new:
                    removed.append(old)
                    added.append(new)

        next_extra_id = max(graph.trips, default=-1) + 1
        for event in extras:
            for stop in event.stops:
                if not 0 <= stop < graph.n:
                    raise UnknownStationError(stop)
            if event.trip_id is not None:
                trip_id = event.trip_id
                if trip_id in graph.trips:
                    raise LiveEventError(
                        f"extra trip id {trip_id} already exists in the "
                        f"timetable"
                    )
            else:
                trip_id = next_extra_id
                next_extra_id += 1
            for i in range(len(event.stops) - 1):
                added.append(
                    Connection(
                        u=event.stops[i],
                        v=event.stops[i + 1],
                        dep=event.times[i][1],
                        arr=event.times[i + 1][0],
                        trip=trip_id,
                    )
                )
        return cls(removed, added)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the patch-set changes nothing."""
        return not self.removed and not self.added

    def affected_stations(self) -> frozenset:
        """Stations incident to at least one patched connection."""
        stations = set()
        for conn in self.removed:
            stations.add(conn.u)
            stations.add(conn.v)
        for conn in self.added:
            stations.add(conn.u)
            stations.add(conn.v)
        return frozenset(stations)

    def added_departing_in(self, t: int, t_end: int) -> Tuple[Connection, ...]:
        """Added connections with ``t <= dep <= t_end`` (dep order)."""
        lo = bisect_left(self._added_deps, t)
        hi = bisect_right(self._added_deps, t_end)
        return self.added[lo:hi]

    def added_arriving_by(self, t: int) -> Tuple[Connection, ...]:
        """Added connections with ``arr <= t`` (arrival order)."""
        hi = bisect_right(self._added_arrs, t)
        return tuple(self._added_by_arr[:hi])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatchSet(removed={len(self.removed)}, "
            f"added={len(self.added)}, "
            f"trips={len(self.disrupted_trips)})"
        )


def _group_runs(
    added: Sequence[Connection],
) -> Tuple[Tuple[Connection, ...], ...]:
    """Group added connections into maximal same-trip leg sequences.

    A retimed trip contributes its patched legs as one consecutive run
    and an extra trip is one run by construction; the improvement
    analysis in the engine reasons per run (board anywhere, alight
    anywhere later) instead of per connection.
    """
    by_trip: Dict[int, List[Connection]] = {}
    for conn in added:
        by_trip.setdefault(conn.trip, []).append(conn)
    runs: List[Tuple[Connection, ...]] = []
    for trip in sorted(by_trip):
        legs = sorted(by_trip[trip], key=lambda c: c.dep)
        run: List[Connection] = []
        for conn in legs:
            if run and (run[-1].v != conn.u or conn.dep < run[-1].arr):
                runs.append(tuple(run))
                run = []
            run.append(conn)
        if run:
            runs.append(tuple(run))
    return tuple(runs)


def _delay_stop_times(
    times: List[StopTime], delay: int, from_stop: int
) -> List[StopTime]:
    """Apply one delay to a stop-time sequence (incident semantics).

    A zero delay, or an incident at (or past) the final stop, changes
    nothing — there is no later departure left to slip.
    """
    if delay == 0 or from_stop >= len(times) - 1:
        return times
    out: List[StopTime] = []
    for i, st in enumerate(times):
        if i < from_stop:
            out.append(st)
        elif i == from_stop:
            out.append(StopTime(st.arr, st.dep + delay))
        else:
            out.append(StopTime(st.arr + delay, st.dep + delay))
    return out


class _PatchedEdges(dict):
    """Station -> edge timetables of an overlay: the base graph's for
    unpatched stations, derived from the overlay's adjacency on first
    lookup for patched ones (stations no search reaches cost nothing)."""

    __slots__ = ("_adjacency", "_derive")

    def __init__(self, base_edges, patched, adjacency, derive) -> None:
        super().__init__(
            (s, edges) for s, edges in enumerate(base_edges)
            if s not in patched
        )
        self._adjacency = adjacency
        self._derive = derive

    def __missing__(self, station: int):
        edges = self[station] = self._derive(self._adjacency[station])
        return edges


class OverlayTimetable:
    """A patched, read-only view of a base timetable.

    Shares the base graph's per-station adjacency lists and edge
    timetables for every station the patch-set does not touch; affected
    stations get fresh sorted lists, and edge timetables derived from
    them on first use.  Duck-types the slice of
    :class:`~repro.graph.timetable.TimetableGraph` the search
    algorithms use (``n``, ``out_edges`` / ``inc_edges`` and
    ``departure_times``), plus ``out`` / ``inc`` and the connections.
    """

    def __init__(self, base: TimetableGraph, patch: PatchSet) -> None:
        self.base = base
        self.patch = patch
        self.n = base.n
        self.station_names = base.station_names
        self.routes = base.routes

        removed = patch.removed
        added_out: Dict[int, List[Connection]] = {}
        added_in: Dict[int, List[Connection]] = {}
        for conn in patch.added:
            added_out.setdefault(conn.u, []).append(conn)
            added_in.setdefault(conn.v, []).append(conn)
        removed_out: Dict[int, bool] = {}
        removed_in: Dict[int, bool] = {}
        for conn in removed:
            removed_out[conn.u] = True
            removed_in[conn.v] = True

        self.out: List[List[Connection]] = list(base.out)
        self.inc: List[List[Connection]] = list(base.inc)
        patched_out = set(added_out) | set(removed_out)
        patched_in = set(added_in) | set(removed_in)
        self.patched_stations = frozenset(patched_out | patched_in)
        for s in patched_out:
            conns = [c for c in base.out[s] if c not in removed]
            conns.extend(added_out.get(s, ()))
            conns.sort(key=lambda c: (c.dep, c.arr))
            self.out[s] = conns
        for s in patched_in:
            conns = [c for c in base.inc[s] if c not in removed]
            conns.extend(added_in.get(s, ()))
            conns.sort(key=lambda c: (c.arr, c.dep))
            self.inc[s] = conns
        self.out_edges = _PatchedEdges(
            base.out_edges, patched_out, self.out, out_edge_timetables
        )
        self.inc_edges = _PatchedEdges(
            base.inc_edges, patched_in, self.inc, inc_edge_timetables
        )

        self._connections: Optional[Tuple[Connection, ...]] = None

    # ------------------------------------------------------------------
    # TimetableGraph protocol (the slice the searches use)
    # ------------------------------------------------------------------

    @property
    def connections(self) -> Tuple[Connection, ...]:
        """All live connections (materialized lazily; O(m) once)."""
        if self._connections is None:
            kept = [
                c for c in self.base.connections
                if c not in self.patch.removed
            ]
            kept.extend(self.patch.added)
            self._connections = tuple(kept)
        return self._connections

    @property
    def m(self) -> int:
        """Number of live connections."""
        return (
            self.base.m - len(self.patch.removed) + len(self.patch.added)
        )

    def station_name(self, station: int) -> str:
        """Delegates to the base graph."""
        return self.base.station_name(station)

    def departure_times(self, station: int) -> List[int]:
        """Sorted distinct departure times (live view)."""
        self._check_station(station)
        return sorted({c.dep for c in self.out[station]})

    def _check_station(self, station: int) -> None:
        if not 0 <= station < self.n:
            raise UnknownStationError(station)

    def materialize(self) -> TimetableGraph:
        """An independent :class:`TimetableGraph` of the live schedule.

        For tests and offline re-indexing; routes are dropped because
        patched trips no longer match their route's timetable.
        """
        return TimetableGraph(
            num_stations=self.n,
            connections=self.connections,
            routes={},
            station_names=self.station_names,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OverlayTimetable(n={self.n}, m={self.m}, "
            f"patched_stations={len(self.patched_stations)})"
        )
