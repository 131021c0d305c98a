"""Tests for the temporal Dijkstra substrate (the correctness oracle
itself is checked here against exhaustive path enumeration)."""

import itertools
import random

import pytest

from repro.algorithms.temporal_dijkstra import (
    DijkstraPlanner,
    earliest_arrival_path,
    earliest_arrival_search,
    latest_departure_path,
    latest_departure_search,
)
from repro.errors import QueryError
from repro.graph.connection import validate_path
from repro.timeutil import INF, NEG_INF
from tests.conftest import make_random_connection_graph


def enumerate_paths(graph, source, max_len=6):
    """All simple-ish paths (bounded length) from ``source``."""
    paths = [[c] for c in graph.out[source]]
    complete = list(paths)
    for _ in range(max_len - 1):
        extended = []
        for path in paths:
            last = path[-1]
            for c in graph.out[last.v]:
                if c.dep >= last.arr:
                    extended.append(path + [c])
        complete.extend(extended)
        paths = extended
        if not paths:
            break
    return complete


class TestEarliestArrival:
    def test_line_graph_direct(self, line_graph):
        eat, _ = earliest_arrival_search(line_graph, 0, 95)
        assert eat[3] == 130  # local departing 100

    def test_express_wins_when_late(self, line_graph):
        eat, _ = earliest_arrival_search(line_graph, 0, 205)
        # express at 210 arrives 235; local at 300 arrives 330
        assert eat[3] == 235

    def test_unreachable_is_inf(self, line_graph):
        eat, _ = earliest_arrival_search(line_graph, 3, 0)
        assert eat[0] == INF

    def test_source_time(self, line_graph):
        eat, _ = earliest_arrival_search(line_graph, 0, 42)
        assert eat[0] == 42

    def test_path_extraction_valid(self, line_graph):
        path = earliest_arrival_path(line_graph, 0, 3, 95)
        assert path is not None
        validate_path(path)
        assert path[0].u == 0 and path[-1].v == 3
        assert path[-1].arr == 130

    def test_path_none_when_unreachable(self, line_graph):
        assert earliest_arrival_path(line_graph, 3, 0, 0) is None

    def test_allowed_filter_restricts(self, line_graph):
        # Forbid station 1: the local route is cut, only the express
        # remains.
        eat, _ = earliest_arrival_search(
            line_graph, 0, 95, allowed=lambda v: v != 1
        )
        assert eat[3] == 235

    def test_against_exhaustive_enumeration(self, rng):
        for _ in range(10):
            graph = make_random_connection_graph(
                rng, rng.randrange(3, 7), rng.randrange(3, 14)
            )
            for source in range(graph.n):
                t = rng.randrange(0, 150)
                eat, _ = earliest_arrival_search(graph, source, t)
                paths = [
                    p
                    for p in enumerate_paths(graph, source)
                    if p[0].dep >= t
                ]
                for v in range(graph.n):
                    if v == source:
                        continue
                    expected = min(
                        (p[-1].arr for p in paths if p[-1].v == v),
                        default=INF,
                    )
                    assert eat[v] == expected


class TestLatestDeparture:
    def test_line_graph(self, line_graph):
        ldt, _ = latest_departure_search(line_graph, 3, 330)
        assert ldt[0] == 300

    def test_tight_deadline(self, line_graph):
        ldt, _ = latest_departure_search(line_graph, 3, 235)
        assert ldt[0] == 210  # only the express makes it

    def test_unreachable(self, line_graph):
        ldt, _ = latest_departure_search(line_graph, 0, 1000)
        assert ldt[3] == NEG_INF

    def test_path_extraction(self, line_graph):
        path = latest_departure_path(line_graph, 0, 3, 330)
        assert path is not None
        validate_path(path)
        assert path[0].dep == 300

    def test_against_exhaustive_enumeration(self, rng):
        for _ in range(10):
            graph = make_random_connection_graph(
                rng, rng.randrange(3, 7), rng.randrange(3, 14)
            )
            all_paths = {
                source: enumerate_paths(graph, source)
                for source in range(graph.n)
            }
            target = rng.randrange(graph.n)
            t = rng.randrange(50, 250)
            ldt, _ = latest_departure_search(graph, target, t)
            for u in range(graph.n):
                if u == target:
                    continue
                expected = max(
                    (
                        p[0].dep
                        for p in all_paths[u]
                        if p[-1].v == target and p[-1].arr <= t
                    ),
                    default=NEG_INF,
                )
                assert ldt[u] == expected


class TestDijkstraPlanner:
    def test_same_station_queries(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        for method, args in [
            ("earliest_arrival", (1, 1, 50)),
            ("latest_departure", (1, 1, 50)),
            ("shortest_duration", (1, 1, 0, 100)),
        ]:
            journey = getattr(planner, method)(*args)
            assert journey is not None
            assert journey.duration == 0
            assert journey.path == []

    def test_unknown_station_rejected(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        with pytest.raises(QueryError):
            planner.earliest_arrival(0, 99, 0)
        with pytest.raises(QueryError):
            planner.latest_departure(-1, 0, 0)

    def test_empty_window_rejected(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        with pytest.raises(QueryError):
            planner.shortest_duration(0, 3, 100, 50)

    def test_sdp_picks_minimum_duration(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        journey = planner.shortest_duration(0, 3, 0, 400)
        # Express: 25s beats any local run (30s).
        assert journey is not None
        assert journey.duration == 25

    def test_sdp_respects_window(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        journey = planner.shortest_duration(0, 3, 0, 150)
        assert journey is not None
        assert journey.duration == 30
        assert journey.dep >= 0 and journey.arr <= 150

    def test_sdp_infeasible(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        assert planner.shortest_duration(0, 3, 0, 50) is None

    def test_index_bytes_zero(self, line_graph):
        planner = DijkstraPlanner(line_graph)
        planner.preprocess()
        assert planner.index_bytes() == 0
