"""Batched label queries: one-to-many, matrix, and isochrone passes.

Accessibility studies ("which stations can I reach within 45 minutes
of 8am?", travel-time matrices for facility placement) ask the same
EAP question for one source against many targets.  With a TTL index
each target costs one merge of the source's out-labels with the
target's in-labels — no graph search at all.

The entry point is :func:`batch_plan`: it takes
:class:`~repro.query.BatchQuery` items and answers each with one
vectorized pass over the entire in-store when numpy is available
(:func:`repro.core.kernels.one_to_all_arrivals` — O(total labels)
columnar work per source, independent of target count), falling back
to the scalar per-target merge otherwise.  ``/v1/batch`` routes here.
:func:`batch_search` gives the same answers by one earliest-arrival
search per source over a timetable that no index describes — a live
service's overlay.  :func:`batch_answer` shapes any per-source row
function into the per-kind answers (the federation router's rows are
stitched across region workers).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.algorithms.temporal_dijkstra import earliest_arrival_search
from repro.core import kernels
from repro.core.index import TTLIndex
from repro.core.sketch import best_eap_sketch_from_lists
from repro.errors import QueryError
from repro.graph.timetable import TimetableGraph
from repro.query import BatchQuery
from repro.timeutil import INF

#: Earliest arrival at each target from one source (``None``:
#: unreachable).
Row = Dict[int, Optional[int]]

#: The per-kind result shapes, in request order.
BatchResult = Union[
    Row,                                # one_to_many
    Dict[Tuple[int, int], Optional[int]],  # matrix
    List[int],                          # isochrone
]


def batch_plan(
    index: TTLIndex, requests: Sequence[BatchQuery]
) -> List[BatchResult]:
    """Answer a sequence of batched queries, one result per request.

    Every request is validated up front (so a malformed item fails the
    whole batch before any work), then each is answered by the
    vectorized one-to-all kernel when available or the scalar
    per-target merge otherwise — both produce identical values.
    """
    _validate(index.graph.n, requests)
    vectorized = kernels.vectorized_available()

    def row(source: int, targets: Iterable[int], t: int) -> Row:
        return _one_to_many(index, source, targets, t, vectorized)

    return [batch_answer(request, index.graph.n, row) for request in requests]


def batch_search(
    graph: TimetableGraph, requests: Sequence[BatchQuery]
) -> List[BatchResult]:
    """Answer like :func:`batch_plan`, but with one earliest-arrival
    search per source over ``graph`` instead of label joins — for a
    timetable no index describes, such as a live overlay."""
    _validate(graph.n, requests)

    def row(source: int, targets: Iterable[int], t: int) -> Row:
        eat, _ = earliest_arrival_search(graph, source, t)
        return {v: eat[v] if eat[v] < INF else None for v in targets}

    return [batch_answer(request, graph.n, row) for request in requests]


def _validate(n: int, requests: Sequence[BatchQuery]) -> None:
    for request in requests:
        request.validated()
        for station in (*request.sources, *request.targets):
            if not 0 <= station < n:
                raise QueryError(f"unknown station: {station}")


def batch_answer(
    request: BatchQuery,
    n: int,
    row: Callable[[int, Iterable[int], int], Row],
) -> BatchResult:
    """Shape one request's answer from ``row(source, targets, t)``,
    the earliest arrival (``None`` where unreachable) per target."""
    if request.kind == "one_to_many":
        return row(request.sources[0], request.targets, request.t)
    if request.kind == "matrix":
        matrix: Dict[Tuple[int, int], Optional[int]] = {}
        for source in request.sources:
            for target, arr in row(source, request.targets, request.t).items():
                matrix[(source, target)] = arr
        return matrix
    # isochrone
    source, t, budget = request.sources[0], request.t, request.budget
    arrivals = row(source, range(n), t)
    reachable = [
        (arr, station)
        for station, arr in arrivals.items()
        if arr is not None and arr - t <= budget
    ]
    reachable.sort()
    return [station for _, station in reachable]


def _one_to_many(
    index: TTLIndex,
    source: int,
    targets: Iterable[int],
    t: int,
    vectorized: bool,
) -> Row:
    targets = list(targets)
    if vectorized and kernels.use_for_one_to_all(index, len(targets)):
        return kernels.one_to_many_values(index, source, targets, t)
    out_list = index.out_label_groups(source)
    result: Row = {}
    for target in targets:
        if target == source:
            result[target] = t
            continue
        sketch = best_eap_sketch_from_lists(
            out_list, index.in_label_groups(target), source, target, t
        )
        result[target] = sketch.arr if sketch is not None else None
    return result
