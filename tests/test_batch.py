"""Tests for batched label queries (one-to-many / matrix / isochrone).

Everything routes through :func:`repro.core.batch.batch_plan`.
"""

import os
from unittest import mock

import pytest

from repro.algorithms.temporal_dijkstra import earliest_arrival_search
from repro.core.batch import batch_plan
from repro.core.build import build_index
from repro.errors import QueryError
from repro.query import BatchQuery
from repro.timeutil import INF
from tests.conftest import make_random_route_graph


@pytest.fixture(scope="module")
def setting():
    import random

    rng = random.Random(17)
    graph = make_random_route_graph(rng, 12, 8)
    return graph, build_index(graph), rng


def one_to_many(index, source, targets, t):
    [result] = batch_plan(
        index,
        [
            BatchQuery(
                kind="one_to_many",
                sources=(source,),
                targets=tuple(targets),
                t=t,
            )
        ],
    )
    return result


def iso(index, source, t, budget):
    [result] = batch_plan(
        index,
        [BatchQuery(kind="isochrone", sources=(source,), t=t, budget=budget)],
    )
    return result


class TestOneToMany:
    def test_matches_dijkstra_one_to_all(self, setting):
        graph, index, rng = setting
        for _ in range(15):
            source = rng.randrange(graph.n)
            t = rng.randrange(0, 250)
            eat, _ = earliest_arrival_search(graph, source, t)
            batch = one_to_many(index, source, range(graph.n), t)
            for v in range(graph.n):
                expected = None
                if v == source:
                    expected = t
                elif eat[v] < INF:
                    expected = eat[v]
                assert batch[v] == expected

    def test_subset_of_targets(self, setting):
        graph, index, rng = setting
        targets = [0, 2, 5]
        result = one_to_many(index, 1, targets, 50)
        assert set(result) == set(targets)

    def test_unknown_stations_rejected(self, setting):
        graph, index, _ = setting
        with pytest.raises(QueryError):
            one_to_many(index, 999, [0], 0)
        with pytest.raises(QueryError):
            one_to_many(index, 0, [999], 0)

    def test_scalar_matches_vectorized(self, setting):
        graph, index, rng = setting
        cases = [
            (rng.randrange(graph.n), rng.randrange(0, 250))
            for _ in range(5)
        ]
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_KERNELS": "1"}):
            scalar = [
                one_to_many(index, source, range(graph.n), t)
                for source, t in cases
            ]
        vectorized = [
            one_to_many(index, source, range(graph.n), t)
            for source, t in cases
        ]
        assert scalar == vectorized


class TestMatrix:
    def test_matrix_consistent_with_rows(self, setting):
        graph, index, _ = setting
        sources = (0, 1, 2)
        targets = (3, 4)
        [matrix] = batch_plan(
            index,
            [BatchQuery(kind="matrix", sources=sources, targets=targets, t=60)],
        )
        assert set(matrix) == {(s, t) for s in sources for t in targets}
        for s in sources:
            row = one_to_many(index, s, targets, 60)
            for t in targets:
                assert matrix[(s, t)] == row[t]


class TestIsochrone:
    def test_contains_source_and_grows_with_budget(self, setting):
        graph, index, rng = setting
        for _ in range(10):
            source = rng.randrange(graph.n)
            t = rng.randrange(0, 200)
            small = set(iso(index, source, t, 30))
            large = set(iso(index, source, t, 300))
            assert source in small
            assert small <= large

    def test_budget_respected(self, setting):
        graph, index, _ = setting
        t, budget = 50, 120
        stations = iso(index, 0, t, budget)
        arrivals = one_to_many(index, 0, stations, t)
        for station in stations:
            assert arrivals[station] is not None
            assert arrivals[station] - t <= budget

    def test_sorted_by_arrival(self, setting):
        graph, index, _ = setting
        stations = iso(index, 0, 50, 500)
        arrivals = one_to_many(index, 0, stations, 50)
        values = [arrivals[s] for s in stations]
        assert values == sorted(values)

    def test_negative_budget_rejected(self, setting):
        graph, index, _ = setting
        with pytest.raises(QueryError):
            iso(index, 0, 0, -1)

    def test_zero_budget_only_source(self, setting):
        graph, index, _ = setting
        assert iso(index, 3, 100, 0) == [3]


class TestBatchPlan:
    def test_many_requests_one_call(self, setting):
        graph, index, _ = setting
        requests = [
            BatchQuery(
                kind="one_to_many",
                sources=(0,),
                targets=tuple(range(graph.n)),
                t=50,
            ),
            BatchQuery(kind="isochrone", sources=(1,), t=50, budget=200),
            BatchQuery(
                kind="matrix", sources=(0, 1), targets=(2, 3), t=50
            ),
        ]
        results = batch_plan(index, requests)
        assert len(results) == len(requests)
        assert results[0] == one_to_many(index, 0, range(graph.n), 50)
        assert results[1] == iso(index, 1, 50, 200)

    def test_validates_before_answering(self, setting):
        graph, index, _ = setting
        requests = [
            BatchQuery(
                kind="one_to_many", sources=(0,), targets=(1,), t=50
            ),
            BatchQuery(kind="isochrone", sources=(0,), t=50, budget=None),
        ]
        with pytest.raises(QueryError):
            batch_plan(index, requests)

    def test_malformed_kind_rejected(self, setting):
        graph, index, _ = setting
        with pytest.raises(QueryError):
            batch_plan(
                index, [BatchQuery(kind="nope", sources=(0,), t=0)]
            )
