"""Edge timetables pick the same connection a full scan picks.

The searches and IndexBuild relax ``graph.out_edges`` /
``graph.inc_edges``: one ``bisect`` per edge instead of a scan over
every later departure of the settled stop.  On graphs built to provoke
ties — duplicated ``(dep, arr)`` on different trips, several
connections per edge — this file checks that they return the same
times, the same parent/child connection objects and the same labels as
the scans they replace, kept here as the reference.  It also checks
that a live overlay's lazily derived edges equal those of the
materialized live graph.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.temporal_dijkstra import (
    earliest_arrival_search,
    latest_departure_search,
)
from repro.core.build import _Builder
from repro.datasets import load_dataset
from repro.graph.builders import GraphBuilder
from repro.live import synthetic_feed
from repro.live.overlay import OverlayTimetable, PatchSet
from repro.timeutil import INF, NEG_INF


def scan_earliest_arrival(graph, source, t, allowed=None):
    """Reference: relax every later departure of the settled stop."""
    eat = [INF] * graph.n
    parent = [None] * graph.n
    eat[source] = t
    settled = [False] * graph.n
    heap = [(t, source)]
    while heap:
        arr_u, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        conns = graph.out[u]
        for i in range(bisect_left(graph.out_deps[u], arr_u), len(conns)):
            c = conns[i]
            if c.arr < eat[c.v] and (allowed is None or allowed(c.v)):
                eat[c.v] = c.arr
                parent[c.v] = c
                heapq.heappush(heap, (c.arr, c.v))
    return eat, parent


def scan_latest_departure(graph, destination, t, allowed=None):
    """Reference: relax every earlier arrival of the settled stop."""
    ldt = [NEG_INF] * graph.n
    child = [None] * graph.n
    ldt[destination] = t
    settled = [False] * graph.n
    heap = [(-t, destination)]
    while heap:
        neg_dep, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        conns = graph.inc[v]
        for i in range(bisect_right(graph.inc_arrs[v], -neg_dep)):
            c = conns[i]
            if c.dep > ldt[c.u] and (allowed is None or allowed(c.u)):
                ldt[c.u] = c.dep
                child[c.u] = c
                heapq.heappush(heap, (-c.dep, c.u))
    return ldt, child


class ScanView:
    """``graph`` with one single-connection edge per connection, in scan
    order: relaxing these edges *is* the per-connection scan, so the
    builder run on this view is the reference build."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n
        self.out, self.out_deps = graph.out, graph.out_deps
        self.inc, self.inc_arrs = graph.inc, graph.inc_arrs
        self.out_edges = [
            [(c.v, [c.dep], [c]) for c in conns] for conns in graph.out
        ]
        self.inc_edges = [
            [(c.u, [c.arr], [c]) for c in conns] for conns in graph.inc
        ]

    def departure_times(self, station):
        return self.graph.departure_times(station)

    def arrival_times(self, station):
        return self.graph.arrival_times(station)


@st.composite
def tie_heavy_graphs(draw):
    """Route graphs whose trips often share a route's exact times, and
    whose routes overlap on edges, so ties on ``(dep, arr)`` abound."""
    n = draw(st.integers(min_value=3, max_value=6))
    builder = GraphBuilder()
    builder.add_stations(n)
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        length = draw(st.integers(min_value=2, max_value=min(4, n)))
        stops = draw(st.permutations(range(n)))[:length]
        route = builder.add_route(stops)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            start = draw(st.integers(min_value=0, max_value=40))
            legs = [
                draw(st.integers(min_value=1, max_value=12))
                for _ in range(length - 1)
            ]
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                builder.add_trip_departures(route, start, legs)
    return builder.build()


def _same_objects(a, b):
    return all(x is y for x, y in zip(a, b)) and len(a) == len(b)


def _labels(builder):
    return {
        (side, v, hub): (g.deps, g.arrs, g.trips, g.pivots)
        for side, tables in (("in", builder.in_groups),
                             ("out", builder.out_groups))
        for v, table in enumerate(tables)
        for hub, g in table.items()
    }


class TestAgainstScan:
    @settings(max_examples=120, deadline=None)
    @given(tie_heavy_graphs(), st.integers(0, 60), st.integers(0, 5))
    def test_searches_pick_the_scanned_connection(self, graph, t, station):
        station %= graph.n
        blocked = (station + 1) % graph.n
        for allowed in (None, lambda v: v != blocked):
            eat, parent = earliest_arrival_search(graph, station, t,
                                                  allowed=allowed)
            ref_eat, ref_parent = scan_earliest_arrival(graph, station, t,
                                                        allowed)
            assert eat == ref_eat
            assert _same_objects(parent, ref_parent)
            ldt, child = latest_departure_search(graph, station, t + 60,
                                                 allowed=allowed)
            ref_ldt, ref_child = scan_latest_departure(graph, station,
                                                       t + 60, allowed)
            assert ldt == ref_ldt
            assert _same_objects(child, ref_child)

    @settings(max_examples=80, deadline=None)
    @given(tie_heavy_graphs(), st.randoms(use_true_random=False))
    def test_build_emits_the_scanned_labels(self, graph, rnd):
        ranks = list(range(graph.n))
        rnd.shuffle(ranks)
        builders = [_Builder(g, ranks, True) for g in (graph, ScanView(graph))]
        for builder in builders:
            for h in sorted(range(graph.n), key=ranks.__getitem__):
                builder.forward_phase(h)
                builder.backward_phase(h)
        assert _labels(builders[0]) == _labels(builders[1])
        for name in ("forward_pops", "backward_pops", "cover_pruned"):
            assert getattr(builders[0].stats, name) == getattr(
                builders[1].stats, name
            )
        assert builders[0].stats.dominance_pruned == 0

    def test_edges_split_ties_by_first_index(self):
        builder = GraphBuilder()
        builder.add_stations(2)
        route = builder.add_route([0, 1])
        for start, leg in ((10, 20), (10, 20), (15, 5), (15, 5), (40, 9)):
            builder.add_trip_departures(route, start, [leg])
        graph = builder.build()
        (head, deps, best), = graph.out_edges[0]
        assert head == 1 and deps == [10, 10, 15, 15, 40]
        first_fast = graph.out[0][2]
        assert best == [first_fast, first_fast, first_fast, graph.out[0][3],
                        graph.out[0][4]]
        (tail, arrs, best), = graph.inc_edges[1]
        assert tail == 0 and arrs == [20, 20, 30, 30, 49]
        assert best == [graph.inc[1][0]] * 4 + [graph.inc[1][4]]


class TestOverlayEdges:
    def test_patched_edges_match_the_materialized_graph(self):
        graph = load_dataset("Berlin")
        feed = synthetic_feed(graph, rate=0.1, seed=11, extra_share=0.3)
        patch = PatchSet.compile(graph, [r.event for r in feed.records])
        overlay = OverlayTimetable(graph, patch)
        live = overlay.materialize()
        assert overlay.patched_stations
        for s in range(graph.n):
            assert sorted(overlay.out_edges[s]) == sorted(live.out_edges[s])
            assert sorted(overlay.inc_edges[s]) == sorted(live.inc_edges[s])
            if s not in overlay.patched_stations:
                assert overlay.out_edges[s] is graph.out_edges[s]
                assert overlay.inc_edges[s] is graph.inc_edges[s]
