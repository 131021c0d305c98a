"""The timetable graph (Section 2 of the paper).

:class:`TimetableGraph` is an immutable multigraph over ``n`` stations
whose edges are :class:`~repro.graph.connection.Connection` records.
Adjacency is pre-sorted for the search algorithms:

* ``out[u]`` — outgoing connections of ``u`` sorted by departure time;
* ``inc[v]`` — incoming connections of ``v`` sorted by arrival time;

with parallel key arrays (``out_deps`` / ``inc_arrs``, derived on first
use) for ``bisect`` lookups of the first boardable connection.

The searches relax *edge timetables* (derived on first use):
``out_edges[u]`` holds one ``(v, deps, best)`` per next stop ``v``, with
``deps`` the sorted ``u -> v`` departures and ``best[i]`` the first
connection of minimum arrival in ``deps[i:]``; ``inc_edges[v]`` mirrors
it as ``(u, arrs, best)`` (first maximum departure in ``arrs[:i+1]``).
First-index ties pick what a full scan's strict ``<`` / ``>`` would.

Graphs are built through :class:`~repro.graph.builders.GraphBuilder`;
constructing one directly requires already-consistent inputs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    UnknownRouteError,
    UnknownStationError,
    UnknownTripError,
    ValidationError,
)
from repro.graph.connection import Connection
from repro.graph.route import Route, Trip

#: ``(next stop, sorted times, best connection per time index)``.
EdgeTimetable = Tuple[int, List[int], List[Connection]]


@dataclass(frozen=True)
class GraphStats:
    """Summary characteristics of a timetable graph (cf. Table 3)."""

    num_stations: int
    num_connections: int
    num_trips: int
    num_routes: int
    min_time: int
    max_time: int
    avg_out_degree: float

    def row(self) -> Tuple[int, int, int, int]:
        """The ``(n, m, trips, routes)`` tuple reported in Table 3."""
        return (
            self.num_stations,
            self.num_connections,
            self.num_trips,
            self.num_routes,
        )


class TimetableGraph:
    """Immutable timetable multigraph.

    Args:
        num_stations: number of stations; station ids are
            ``0 .. num_stations - 1``.
        connections: every temporal edge in the network.
        routes: route structures (required for route-based compression;
            may be empty for ad-hoc graphs).
        station_names: optional human-readable station names.
        validate: run full consistency checks (default True).
    """

    def __init__(
        self,
        num_stations: int,
        connections: Iterable[Connection],
        routes: Optional[Dict[int, Route]] = None,
        station_names: Optional[Sequence[str]] = None,
        validate: bool = True,
    ) -> None:
        self.n = int(num_stations)
        self.connections: Tuple[Connection, ...] = tuple(connections)
        self.routes: Dict[int, Route] = dict(routes or {})
        self.station_names: Optional[Tuple[str, ...]] = (
            tuple(station_names) if station_names is not None else None
        )

        self.trips: Dict[int, Trip] = {}
        self.trip_to_route: Dict[int, int] = {}
        for route in self.routes.values():
            for trip in route.trips:
                self.trips[trip.trip_id] = trip
                self.trip_to_route[trip.trip_id] = route.route_id

        if validate:
            # Validate before building adjacency so malformed
            # connections raise ValidationError, not IndexError.
            self.validate()

        # Adjacency sorted for bisect-based boarding lookups.
        self.out: List[List[Connection]] = [[] for _ in range(self.n)]
        self.inc: List[List[Connection]] = [[] for _ in range(self.n)]
        for conn in self.connections:
            self.out[conn.u].append(conn)
            self.inc[conn.v].append(conn)
        for conns in self.out:
            conns.sort(key=lambda c: (c.dep, c.arr))
        for conns in self.inc:
            conns.sort(key=lambda c: (c.arr, c.dep))

    @cached_property
    def out_deps(self) -> List[List[int]]:
        """Departure keys parallel to ``out`` (derived on first use)."""
        return [[c.dep for c in conns] for conns in self.out]

    @cached_property
    def inc_arrs(self) -> List[List[int]]:
        """Arrival keys parallel to ``inc`` (derived on first use)."""
        return [[c.arr for c in conns] for conns in self.inc]

    @cached_property
    def out_edges(self) -> List[List[EdgeTimetable]]:
        """Forward edge timetables of every station (see module doc)."""
        return [out_edge_timetables(conns) for conns in self.out]

    @cached_property
    def inc_edges(self) -> List[List[EdgeTimetable]]:
        """Backward edge timetables of every station (see module doc)."""
        return [inc_edge_timetables(conns) for conns in self.inc]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of connections (temporal edges)."""
        return len(self.connections)

    def station_name(self, station: int) -> str:
        """Human-readable name for ``station`` (falls back to the id)."""
        self._check_station(station)
        if self.station_names is not None:
            return self.station_names[station]
        return f"s{station}"

    def out_degree(self, station: int) -> int:
        """Number of outgoing connections of ``station``."""
        self._check_station(station)
        return len(self.out[station])

    def in_degree(self, station: int) -> int:
        """Number of incoming connections of ``station``."""
        self._check_station(station)
        return len(self.inc[station])

    def departure_times(self, station: int) -> List[int]:
        """Sorted distinct departure times of ``station``'s outgoing
        connections (the paper's ``T_d``)."""
        self._check_station(station)
        return sorted({c.dep for c in self.out[station]})

    def arrival_times(self, station: int) -> List[int]:
        """Sorted distinct arrival times of ``station``'s incoming
        connections (the paper's ``T_a``)."""
        self._check_station(station)
        return sorted({c.arr for c in self.inc[station]})

    def route_of_trip(self, trip_id: int) -> Route:
        """The route served by ``trip_id``."""
        route_id = self.trip_to_route.get(trip_id)
        if route_id is None:
            raise UnknownTripError(trip_id)
        return self.routes[route_id]

    def route(self, route_id: int) -> Route:
        """Route by id."""
        try:
            return self.routes[route_id]
        except KeyError:
            raise UnknownRouteError(route_id) from None

    def stats(self) -> GraphStats:
        """Summary statistics of the network."""
        if self.connections:
            min_time = min(c.dep for c in self.connections)
            max_time = max(c.arr for c in self.connections)
        else:
            min_time = max_time = 0
        avg_out = self.m / self.n if self.n else 0.0
        return GraphStats(
            num_stations=self.n,
            num_connections=self.m,
            num_trips=len({c.trip for c in self.connections}),
            num_routes=len(self.routes),
            min_time=min_time,
            max_time=max_time,
            avg_out_degree=avg_out,
        )

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------

    def first_boardable(self, station: int, t: int) -> int:
        """Index of the first outgoing connection of ``station`` with
        departure time ``>= t`` (for forward searches)."""
        return bisect_left(self.out_deps[station], t)

    def last_alightable(self, station: int, t: int) -> int:
        """One past the index of the last incoming connection of
        ``station`` with arrival time ``<= t`` (for backward searches)."""
        return bisect_right(self.inc_arrs[station], t)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValidationError`."""
        if self.n < 0:
            raise ValidationError(f"negative station count: {self.n}")
        for conn in self.connections:
            if not (0 <= conn.u < self.n and 0 <= conn.v < self.n):
                raise ValidationError(f"connection off the graph: {conn}")
            if conn.u == conn.v:
                raise ValidationError(f"self-loop connection: {conn}")
            if conn.arr <= conn.dep:
                raise ValidationError(
                    f"connection must take positive time: {conn}"
                )
        for route in self.routes.values():
            route.validate()
            for stop in route.stops:
                if not 0 <= stop < self.n:
                    raise ValidationError(
                        f"route {route.route_id} visits unknown station {stop}"
                    )
        if self.station_names is not None and len(self.station_names) != self.n:
            raise ValidationError(
                f"{len(self.station_names)} names for {self.n} stations"
            )

    def _check_station(self, station: int) -> None:
        if not 0 <= station < self.n:
            raise UnknownStationError(station)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimetableGraph(n={self.n}, m={self.m}, "
            f"routes={len(self.routes)})"
        )


def out_edge_timetables(conns: Sequence[Connection]) -> List[EdgeTimetable]:
    """Edge timetables of one station's departure-sorted connections."""
    by_head: Dict[int, List[Connection]] = {}
    for c in conns:
        by_head.setdefault(c.v, []).append(c)
    edges = []
    for v, run in by_head.items():
        best = run[:]
        for i in range(len(run) - 2, -1, -1):
            if best[i + 1].arr < run[i].arr:
                best[i] = best[i + 1]
        edges.append((v, [c.dep for c in run], best))
    return edges


def inc_edge_timetables(conns: Sequence[Connection]) -> List[EdgeTimetable]:
    """Edge timetables of one station's arrival-sorted connections."""
    by_tail: Dict[int, List[Connection]] = {}
    for c in conns:
        by_tail.setdefault(c.u, []).append(c)
    edges = []
    for u, run in by_tail.items():
        best = run[:]
        for i in range(1, len(run)):
            if best[i - 1].dep >= run[i].dep:
                best[i] = best[i - 1]
        edges.append((u, [c.arr for c in run], best))
    return edges
