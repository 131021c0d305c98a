"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import random
import time

import pytest

from repro.graph.builders import GraphBuilder, graph_from_connections


def make_random_connection_graph(rng: random.Random, n: int, m: int):
    """A random timetable multigraph of bare connections."""
    conns = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        dep = rng.randrange(0, 200)
        arr = dep + rng.randrange(1, 30)
        conns.append((u, v, dep, arr))
    return graph_from_connections(conns, n)


def make_random_route_graph(
    rng: random.Random,
    n_stations: int,
    n_routes: int,
    max_trips: int = 5,
):
    """A random graph with genuine multi-stop route structure."""
    builder = GraphBuilder()
    builder.add_stations(n_stations)
    for _ in range(n_routes):
        length = rng.randrange(2, min(6, n_stations) + 1)
        stops = rng.sample(range(n_stations), length)
        route = builder.add_route(stops)
        t0 = rng.randrange(0, 100)
        legs = [rng.randrange(2, 15) for _ in range(length - 1)]
        for k in range(rng.randrange(1, max_trips + 1)):
            builder.add_trip_departures(route, t0 + k * rng.randrange(5, 20), legs)
    return builder.build()


class SlowPlanner:
    """Faults for serving tests, mixed in front of a planner class:
    ``SlowPlanner.of(TTLPlanner)(graph, delay_s=0.2, times=1)``.

    ``plan`` sleeps ``delay_s`` and then raises ``error`` (when given)
    on its first ``times`` calls, or on every call with ``times=None``;
    the one-time index build (``preprocess``) sleeps ``warm_s`` first.
    """

    def __init__(self, *args, delay_s=0.0, error=None, times=None,
                 warm_s=0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay_s, self.error = delay_s, error
        self.times, self.warm_s = times, warm_s

    @classmethod
    def of(cls, planner_cls):
        return type(f"Slow{planner_cls.__name__}", (cls, planner_cls), {})

    def plan(self, request):
        if self.times is None or self.times > 0:
            if self.times is not None:
                self.times -= 1
            time.sleep(self.delay_s)
            if self.error is not None:
                raise self.error
        return super().plan(request)

    def _build(self):
        time.sleep(self.warm_s)
        super()._build()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def line_graph():
    """Stations 0-1-2-3 on one route, three trips, plus an express.

    A small deterministic graph where optimal answers are easy to
    derive by hand.
    """
    builder = GraphBuilder()
    builder.add_stations(4)
    local = builder.add_route([0, 1, 2, 3], name="local")
    for start in (100, 200, 300):
        builder.add_trip_departures(local, start, [10, 10, 10])
    express = builder.add_route([0, 3], name="express")
    builder.add_trip_departures(express, 210, [25])
    return builder.build()


@pytest.fixture
def figure1_graph():
    """A graph in the spirit of the paper's Figure 1: six stations,
    three vehicles, transfers required for some pairs."""
    builder = GraphBuilder()
    builder.add_stations(6)
    b1 = builder.add_route([1, 5, 0], name="b1")
    builder.add_trip(b1, [(5, 5), (7, 8), (10, 10)])
    b2 = builder.add_route([3, 4, 0, 1], name="b2")
    builder.add_trip(b2, [(5, 5), (7, 7), (9, 9), (10, 10)])
    b3 = builder.add_route([1, 2, 5, 3], name="b3")
    builder.add_trip(b3, [(6, 6), (8, 8), (11, 11), (13, 13)])
    return builder.build()


@pytest.fixture
def route_graph(rng):
    return make_random_route_graph(rng, 10, 5)
