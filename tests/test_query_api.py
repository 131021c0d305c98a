"""The unified query surface: ``QueryRequest`` validation,
``RoutePlanner.plan`` dispatch, and the typed capability error."""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.algorithms.temporal_dijkstra import DijkstraPlanner
from repro.baselines.csa import CSAPlanner
from repro.core import TTLPlanner
from repro.errors import QueryError, UnsupportedQueryError
from repro.query import QUERY_TYPES, QueryRequest
from tests.conftest import make_random_route_graph


def _dump(journey):
    return None if journey is None else journey.to_dict()


@pytest.fixture(scope="module")
def setting():
    rng = random.Random(31)
    graph = make_random_route_graph(rng, 12, 8)
    planner = TTLPlanner(graph)
    planner.preprocess()
    return graph, planner


class TestValidation:
    def test_unknown_type(self):
        with pytest.raises(QueryError, match="unknown query type"):
            QueryRequest("teleport", 0, 1, t=0).validated()

    @pytest.mark.parametrize("kind", ["eap", "sdp", "profile"])
    def test_missing_t(self, kind):
        with pytest.raises(QueryError, match="requires t "):
            QueryRequest(kind, 0, 1, t=None, t_end=100).validated()

    @pytest.mark.parametrize("kind", ["ldp", "sdp", "profile"])
    def test_missing_t_end(self, kind):
        with pytest.raises(QueryError, match="requires t_end"):
            QueryRequest(kind, 0, 1, t=0, t_end=None).validated()

    def test_bad_max_results(self):
        with pytest.raises(QueryError, match="max_results"):
            QueryRequest("profile", 0, 1, t=0, t_end=9, max_results=0
                         ).validated()

    def test_validated_chains(self):
        request = QueryRequest("eap", 0, 1, t=0)
        assert request.validated() is request

    def test_hashable_and_frozen(self):
        request = QueryRequest("eap", 0, 1, t=0)
        assert hash(request) == hash(QueryRequest("eap", 0, 1, t=0))
        with pytest.raises(AttributeError):
            request.t = 5


class TestPlanDispatch:
    def test_matches_direct_methods(self, setting):
        graph, planner = setting
        rng = random.Random(5)
        for _ in range(25):
            u = rng.randrange(graph.n)
            v = rng.randrange(graph.n)
            t = rng.randrange(0, 250)
            t_end = t + rng.randrange(0, 250)
            eap = planner.plan(QueryRequest("eap", u, v, t=t))
            assert _dump(eap.journey) == _dump(
                planner.earliest_arrival(u, v, t)
            )
            ldp = planner.plan(QueryRequest("ldp", u, v, t_end=t_end))
            assert _dump(ldp.journey) == _dump(
                planner.latest_departure(u, v, t_end)
            )
            sdp = planner.plan(
                QueryRequest("sdp", u, v, t=t, t_end=t_end)
            )
            assert _dump(sdp.journey) == _dump(
                planner.shortest_duration(u, v, t, t_end)
            )
            prof = planner.plan(
                QueryRequest("profile", u, v, t=t, t_end=t_end)
            )
            assert list(prof.pairs) == [
                tuple(p) for p in planner.profile(u, v, t, t_end)
            ]

    def test_feasible_semantics(self, setting):
        graph, planner = setting
        result = planner.plan(QueryRequest("eap", 0, 1, t=0))
        assert result.feasible == (result.journey is not None)
        prof = planner.plan(QueryRequest("profile", 0, 1, t=0, t_end=300))
        assert prof.feasible == bool(prof.pairs)

    def test_max_results_truncates(self, setting):
        graph, planner = setting
        full = None
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                pairs = planner.profile(u, v, 0, 400)
                if len(pairs) >= 2:
                    full = (u, v, pairs)
                    break
            if full:
                break
        assert full is not None, "workload has no multi-pair profile"
        u, v, pairs = full
        result = planner.plan(
            QueryRequest("profile", u, v, t=0, t_end=400, max_results=1)
        )
        assert list(result.pairs) == [tuple(pairs[0])]

    def test_plan_validates(self, setting):
        graph, planner = setting
        with pytest.raises(QueryError):
            planner.plan(QueryRequest("eap", 0, 1))

    def test_all_types_through_dijkstra_oracle(self, setting):
        graph, ttl = setting
        oracle = DijkstraPlanner(graph)
        oracle.preprocess()
        for kind in QUERY_TYPES:
            request = QueryRequest(kind, 0, 3, t=0, t_end=400)
            a = ttl.plan(request)
            b = oracle.plan(request)
            if kind == "profile":
                assert a.pairs == b.pairs
            else:
                feasible = a.journey is not None
                assert feasible == (b.journey is not None)
                if feasible and kind == "eap":
                    assert a.journey.arr == b.journey.arr


class TestCapabilityError:
    def test_csa_profile_unsupported(self, setting):
        graph, _ = setting
        csa = CSAPlanner(graph)
        csa.preprocess()
        with pytest.raises(UnsupportedQueryError) as err:
            csa.plan(QueryRequest("profile", 0, 1, t=0, t_end=100))
        assert "CSA" in str(err.value)
        assert "profile" in str(err.value)

    def test_is_a_query_error(self):
        assert issubclass(UnsupportedQueryError, QueryError)

    def test_service_maps_to_400(self, setting):
        from repro.service import PlannerService

        graph, _ = setting
        svc = PlannerService(CSAPlanner(graph))
        port = svc.start(port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/profile"
                    "?from=0&to=1&t=0&t_end=100",
                    timeout=10,
                )
            assert err.value.code == 400
            body = json.loads(err.value.read())
            assert "profile" in body["error"]
        finally:
            svc.stop()
