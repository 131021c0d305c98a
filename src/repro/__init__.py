"""repro — Timetable Labelling (TTL) for public-transportation route
planning.

A from-scratch Python reproduction of *"Efficient Route Planning on
Public Transportation Networks: A Labelling Approach"* (SIGMOD 2015):
the TTL / C-TTL indices, the CSA and CHT baselines, temporal Dijkstra,
synthetic city/country timetable generators, and the full benchmark
harness for the paper's tables and figures.

Quickstart::

    from repro import GraphBuilder, TTLPlanner, hms

    builder = GraphBuilder()
    a, b, c = (builder.add_station(x) for x in "abc")
    line = builder.add_route([a, b, c])
    for minute in range(0, 60, 10):
        builder.add_trip_departures(line, hms(8, minute), [300, 300])
    graph = builder.build()

    planner = TTLPlanner(graph)
    journey = planner.earliest_arrival(a, c, hms(8, 5))
    print(journey.describe(graph))
"""

from repro.errors import (
    DatasetError,
    GraphError,
    IndexBuildError,
    QueryError,
    ReconstructionError,
    ReproError,
    SerializationError,
    ValidationError,
)
from repro.timeutil import (
    INF,
    NEG_INF,
    SECONDS_PER_DAY,
    format_duration,
    format_time,
    hms,
    parse_time,
)
from repro.graph import (
    Connection,
    GraphBuilder,
    Route,
    TimetableGraph,
    Trip,
    extend_with_next_day,
    load_graph_csv,
    reversed_graph,
    save_graph_csv,
)
from repro.journey import ConciseLeg, Journey
from repro.planner import RoutePlanner
from repro.query import BatchQuery, QueryRequest, QueryResult
from repro.service import PlannerService
from repro.algorithms import DijkstraPlanner, ParetoProfile
from repro.baselines import CHTPlanner, CSAPlanner, RaptorPlanner
from repro.core import (
    CompressedTTLPlanner,
    GroupView,
    LabelStore,
    TTLIndex,
    TTLPlanner,
    batch_plan,
    build_index,
    build_index_brute_force,
    compress_index,
    degree_order,
    hub_order,
    load_index,
    random_order,
    save_index,
)
from repro.serving import Scoreboard, ServingSupervisor, mapped_planner_factory

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "ValidationError",
    "IndexBuildError",
    "ReconstructionError",
    "QueryError",
    "SerializationError",
    "DatasetError",
    # time
    "INF",
    "NEG_INF",
    "SECONDS_PER_DAY",
    "hms",
    "parse_time",
    "format_time",
    "format_duration",
    # graph
    "Connection",
    "Trip",
    "Route",
    "TimetableGraph",
    "GraphBuilder",
    "reversed_graph",
    "extend_with_next_day",
    "load_graph_csv",
    "save_graph_csv",
    # results / planners
    "Journey",
    "ConciseLeg",
    "RoutePlanner",
    "QueryRequest",
    "QueryResult",
    "BatchQuery",
    "PlannerService",
    "DijkstraPlanner",
    "ParetoProfile",
    "CSAPlanner",
    "CHTPlanner",
    "RaptorPlanner",
    # TTL
    "TTLIndex",
    "TTLPlanner",
    "CompressedTTLPlanner",
    "build_index",
    "build_index_brute_force",
    "compress_index",
    "hub_order",
    "degree_order",
    "random_order",
    "save_index",
    "load_index",
    "LabelStore",
    "GroupView",
    # batched queries
    "batch_plan",
    # prefork serving
    "ServingSupervisor",
    "Scoreboard",
    "mapped_planner_factory",
]
