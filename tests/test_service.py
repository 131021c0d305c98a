"""Tests for the HTTP planner service."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import TTLPlanner
from repro.service import PlannerService


@pytest.fixture(scope="module")
def service(request):
    from tests.conftest import make_random_route_graph
    import random

    graph = make_random_route_graph(random.Random(23), 10, 7)
    svc = PlannerService(TTLPlanner(graph))
    port = svc.start(port=0)
    request.addfinalizer(svc.stop)
    return graph, port


def envelope(port, path, body=None):
    """Request ``/v1{path}``, a POST of ``body`` when given; returns
    (status, the whole envelope, headers)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if body is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            json.loads(response.read()),
            dict(response.headers),
        )


def get(port, path):
    """GET ``/v1{path}``: (status, data)."""
    status, body, _ = envelope(port, path)
    return status, body["data"]


def post(port, path, body):
    """POST ``body`` to ``/v1{path}``: (status, data)."""
    status, answer, _ = envelope(port, path, body)
    return status, answer["data"]


class TestEndpoints:
    def test_stations(self, service):
        graph, port = service
        status, body = get(port, "/stations")
        assert status == 200
        assert len(body["stations"]) == graph.n
        assert body["stations"][0]["id"] == 0

    def test_eap_matches_planner(self, service):
        graph, port = service
        planner = TTLPlanner(graph)
        found = 0
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                expected = planner.earliest_arrival(u, v, 0)
                _, body = get(port, f"/eap?from={u}&to={v}&t=0")
                if expected is None:
                    assert body["journey"] is None
                else:
                    found += 1
                    assert body["journey"]["arr"] == expected.arr
                if found >= 10:
                    return
        assert found > 0

    def test_sdp_and_ldp(self, service):
        graph, port = service
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                _, body = get(
                    port, f"/sdp?from={u}&to={v}&t=0&t_end=500"
                )
                if body["journey"] is not None:
                    journey = body["journey"]
                    assert 0 <= journey["dep"] <= journey["arr"] <= 500
                    _, ldp = get(
                        port, f"/ldp?from={u}&to={v}&t={journey['arr']}"
                    )
                    assert ldp["journey"] is not None
                    return
        pytest.skip("no feasible pair in sampled graph")

    def test_profile(self, service):
        graph, port = service
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                _, body = get(
                    port, f"/profile?from={u}&to={v}&t=0&t_end=500"
                )
                pairs = body["pairs"]
                if pairs:
                    deps = [p[0] for p in pairs]
                    assert deps == sorted(deps)
                    return
        pytest.skip("no feasible pair in sampled graph")

    def test_journey_roundtrips_through_json(self, service):
        from repro.journey import Journey

        graph, port = service
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                _, body = get(port, f"/eap?from={u}&to={v}&t=0")
                if body["journey"] is not None:
                    journey = Journey.from_dict(body["journey"])
                    assert journey.path is not None
                    return
        pytest.skip("no feasible pair")


class TestHealthz:
    def test_healthz_static_planner(self, service):
        graph, port = service
        status, body = get(port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["stations"] == graph.n
        assert body["live"] is False

    def test_healthz_reports_preprocess_seconds(self, service):
        _, port = service
        _, body = get(port, "/healthz")
        assert body["preprocess_seconds"] > 0.0


class TestMetrics:
    def test_metrics_counters_advance_with_queries(self, service):
        graph, port = service
        status, before = get(port, "/metrics")
        assert status == 200
        assert before["planner"] == "TTL"
        counters = before["query_metrics"]
        assert set(counters) == {
            "queries",
            "labels_scanned",
            "sketches_generated",
            "unfold_max_depth",
            "unfold_fallbacks",
        }
        for u in range(graph.n):
            get(port, f"/eap?from={u}&to={(u + 1) % graph.n}&t=0")
        _, after = get(port, "/metrics")
        assert after["query_metrics"]["queries"] >= (
            counters["queries"] + graph.n
        )
        assert (
            after["query_metrics"]["labels_scanned"]
            > counters["labels_scanned"]
        )

    def test_metrics_reports_index_info(self, service):
        _, port = service
        _, body = get(port, "/metrics")
        index = body["index"]
        assert index["num_labels"] > 0
        assert index["store_bytes"] > 0
        assert index["unfold_fallbacks"] >= 0


class TestErrors:
    def test_unknown_path_404(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/teleport")
        assert err.value.code == 404

    def test_404_body_is_json(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/teleport")
        assert err.value.headers["Content-Type"] == "application/json"
        assert "error" in json.loads(err.value.read())

    def test_unsupported_method_is_json(self, service):
        """The base handler's HTML error page must not leak through."""
        _, port = service
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/stations", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 501
        assert err.value.headers["Content-Type"] == "application/json"
        assert "error" in json.loads(err.value.read())

    def test_live_endpoints_rejected_for_static_planner(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/live/stats")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/live/events", {"kind": "cancel", "trip_id": 0})
        assert err.value.code == 400

    def test_bad_station_400(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=9999&to=0&t=0")
        assert err.value.code == 400

    def test_missing_param_400(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=0")
        assert err.value.code == 400

    def test_garbage_param_400(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=a&to=b&t=c")
        assert err.value.code == 400

    def test_missing_param_names_field(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=0&to=1")
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["field"] == "t"
        assert "t" in body["error"]

    def test_garbage_param_names_field(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/sdp?from=0&to=1&t=0&t_end=never")
        assert err.value.code == 400
        assert json.loads(err.value.read())["field"] == "t_end"


class TestInputHardening:
    def test_malformed_json_body_400(self, service):
        _, port = service
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/live/events",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def test_non_object_json_body_400(self, service):
        _, port = service
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/live/events",
            data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_oversized_body_413(self, service):
        from repro.resilience import ResilienceConfig

        _, port = service
        huge = b"x" * (ResilienceConfig().max_body_bytes + 1)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/live/events",
            data=huge,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 413
        assert "error" in json.loads(err.value.read())


class TestResilienceEndpoints:
    def test_healthz_live(self, service):
        _, port = service
        status, body = get(port, "/healthz/live")
        assert status == 200
        assert body == {"status": "alive"}

    def test_healthz_ready_when_warm(self, service):
        _, port = service
        status, body = get(port, "/healthz/ready")
        assert status == 200
        assert body == {"ready": True}

    def test_resilience_snapshot_shape(self, service):
        _, port = service
        status, body = get(port, "/resilience")
        assert status == 200
        assert body["deadline_exceeded"] == 0
        admission = body["admission"]
        assert admission["shed"] == 0
        assert admission["inflight"] == 0

    def test_metrics_include_resilience(self, service):
        _, port = service
        _, body = get(port, "/metrics")
        assert "resilience" in body
        assert "admission" in body["resilience"]


@pytest.fixture(scope="module")
def live_service(request):
    from tests.conftest import make_random_route_graph
    from repro.live import LiveOverlayEngine
    import random

    graph = make_random_route_graph(random.Random(23), 10, 7)
    engine = LiveOverlayEngine(graph)
    svc = PlannerService(engine)
    port = svc.start(port=0)
    request.addfinalizer(svc.stop)
    return graph, engine, port


class TestLiveEndpoints:
    def test_healthz_reports_live(self, live_service):
        _, _, port = live_service
        _, body = get(port, "/healthz")
        assert body["live"] is True
        assert "generation" in body and "events" in body

    def test_inject_query_clear_cycle(self, live_service):
        graph, engine, port = live_service
        trip_id = sorted(graph.trips)[0]
        status, body = post(
            port, "/live/events", {"kind": "cancel", "trip_id": trip_id}
        )
        assert status == 200
        event_id = body["id"]
        assert body["generation"] >= 1

        _, listing = get(port, "/live/events")
        assert [e["id"] for e in listing["events"]] == [event_id]
        assert listing["events"][0]["event"]["trip_id"] == trip_id

        # Queries still answer, and never use the cancelled trip.
        for u in range(graph.n):
            for v in range(graph.n):
                if u == v:
                    continue
                _, answer = get(port, f"/eap?from={u}&to={v}&t=0")
                journey = answer["journey"]
                if journey and journey.get("path"):
                    # path legs serialize as [u, v, dep, arr, trip]
                    assert all(
                        leg[4] != trip_id for leg in journey["path"]
                    )

        _, stats = get(port, "/live/stats")
        assert stats["queries"] > 0

        _, cleared = post(port, "/live/clear", {"id": event_id})
        assert cleared == {"cleared": 1}
        _, listing = get(port, "/live/events")
        assert listing["events"] == []

    def test_metrics_on_live_engine(self, live_service):
        _, _, port = live_service
        _, body = get(port, "/metrics")
        assert "query_metrics" in body
        assert body["query_metrics"]["queries"] >= 0

    def test_bad_event_rejected(self, live_service):
        _, _, port = live_service
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/live/events", {"kind": "cancel", "trip_id": 10**6})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/live/events", {"kind": "warp"})
        assert err.value.code == 400

    def test_advance_expires_events(self, live_service):
        graph, engine, port = live_service
        trip_id = sorted(graph.trips)[1]
        post(
            port,
            "/live/events",
            {
                "kind": "delay",
                "trip_id": trip_id,
                "delay": 60,
                "expires_at": engine.now + 100,
            },
        )
        _, body = post(port, "/live/advance", {"now": engine.now + 100})
        assert body["events"] == 0


class TestLiveCoordination:
    """Single-process checks for the prefork journal contracts: the
    advance monotonicity guard and the follower-role 409."""

    def test_advance_backwards_400_names_now(self, live_service):
        _, engine, port = live_service
        target = engine.now + 50
        post(port, "/live/advance", {"now": target})
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/live/advance", {"now": target - 10})
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["field"] == "now"
        assert "backwards" in body["error"]
        assert body["hint"]
        # The clock did not move.
        _, stats = get(port, "/live/stats")
        assert stats["now"] == target

    def test_advance_to_current_clock_is_allowed(self, live_service):
        _, engine, port = live_service
        status, body = post(port, "/live/advance", {"now": engine.now})
        assert status == 200

    def test_mutations_409_when_coordinated(self):
        from tests.conftest import make_random_route_graph
        from repro.live import LiveOverlayEngine
        import random

        graph = make_random_route_graph(random.Random(17), 8, 5)
        svc = PlannerService(
            LiveOverlayEngine(graph),
            coordinator="http://127.0.0.1:9999",
        )
        port = svc.start(port=0)
        try:
            for path, body in (
                ("/live/events", {"kind": "cancel", "trip_id": 0}),
                ("/live/advance", {"now": 10}),
                ("/live/clear", {}),
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    post(port, path, body)
                assert err.value.code == 409, path
                payload = json.loads(err.value.read())
                assert "coordinated" in payload["error"]
                assert f"http://127.0.0.1:9999/v1{path}" in payload["hint"]
            # Reads still answer locally.
            status, _ = get(port, "/live/events")
            assert status == 200
        finally:
            svc.stop()

    def test_journal_and_coordinator_are_exclusive(self):
        from tests.conftest import make_random_route_graph
        from repro.live import LiveOverlayEngine
        import random

        graph = make_random_route_graph(random.Random(17), 8, 5)
        with pytest.raises(ValueError, match="never both"):
            PlannerService(
                LiveOverlayEngine(graph),
                journal=object(),
                coordinator="http://127.0.0.1:9999",
            )


class TestBackgroundBuildReadiness:
    """``warm=False`` serves immediately; 503s carry build progress."""

    def test_warming_responses_include_build_progress(self):
        import threading

        from tests.conftest import make_random_route_graph
        import random as random_mod

        release = threading.Event()

        class SlowPlanner(TTLPlanner):
            def preprocess(self):
                self.build_progress.configure(
                    jobs=2, hubs_total=5, chunks_total=3
                )
                self.build_progress.start_phase("build")
                self.build_progress.chunk_done(labels_committed=10)
                release.wait(timeout=30)
                return super().preprocess()

        graph = make_random_route_graph(random_mod.Random(5), 8, 5)
        svc = PlannerService(SlowPlanner(graph))
        port = svc.start(port=0, warm=False)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/healthz/ready", timeout=10
                )
            assert err.value.code == 503
            assert err.value.headers["Retry-After"]
            body = json.loads(err.value.read())
            build = body["build"]
            assert build["phase"] == "build"
            assert build["jobs"] == 2
            assert build["chunks_done"] == 1
            assert build["labels_committed"] == 10

            _, health = get(port, "/healthz")
            assert health["build"]["chunks_total"] == 3

            release.set()
            assert svc._warm_thread is not None
            svc._warm_thread.join(timeout=30)
            status, body = get(port, "/healthz/ready")
            assert status == 200
            assert body == {"ready": True}
            _, health = get(port, "/healthz")
            assert "build" not in health
        finally:
            release.set()
            svc.stop()


def bare(port, path, body=None):
    """Request ``path`` as given, without the ``/v1`` prefix."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method="GET" if body is None else "POST",
    )
    return urllib.request.urlopen(request, timeout=10)


class TestV1Envelope:
    def test_eap_wrapped_in_envelope(self, service):
        graph, port = service
        status, body, _ = envelope(port, "/eap?from=0&to=1&t=0")
        assert status == 200
        assert set(body) == {"data", "meta"}
        assert "journey" in body["data"]
        meta = body["meta"]
        assert meta["elapsed_us"] >= 0
        assert meta["degraded"] is False
        assert meta["worker"] == 0

    def test_all_get_endpoints_enveloped(self, service):
        _, port = service
        for path in (
            "/stations",
            "/healthz",
            "/healthz/ready",
            "/metrics",
            "/resilience",
            "/sdp?from=0&to=1&t=0&t_end=500",
            "/profile?from=0&to=1&t=0&t_end=500",
        ):
            status, body, _ = envelope(port, path)
            assert status == 200, path
            assert set(body) == {"data", "meta"}, path

    def test_v1_and_health_probes_not_deprecated(self, service):
        _, port = service
        for path in ("/eap?from=0&to=1&t=0", "/healthz/live"):
            _, _, headers = envelope(port, path)
            assert "Deprecation" not in headers, path

    def test_unknown_v1_path_404(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/teleport")
        assert err.value.code == 404

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/eap?from=0&to=1&t=0", None),
            ("/stations", None),
            ("/healthz", None),
            ("/healthz/live", None),
            ("/metrics", None),
            ("/live/stats", None),
            ("/live/events", {"kind": "cancel", "trip_id": 0}),
        ],
    )
    def test_unversioned_paths_404(self, service, path, body):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            bare(port, path, body)
        assert err.value.code == 404
        assert "Deprecation" not in err.value.headers
        assert json.loads(err.value.read()) == {
            "error": f"unknown path: {path}",
            "field": None,
            "hint": None,
        }


class TestOneErrorShape:
    """Every error payload is {"error", "field", "hint"}."""

    def _assert_shape(self, err):
        body = json.loads(err.read())
        assert set(body) >= {"error", "field", "hint"}, body
        return body

    def test_validation_error_with_field(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=0&to=1")
        assert err.value.code == 400
        body = self._assert_shape(err.value)
        assert body["field"] == "t"

    def test_query_error_null_field(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/eap?from=9999&to=0&t=0")
        assert err.value.code == 400
        body = self._assert_shape(err.value)
        assert body["field"] is None
        assert body["hint"] is None

    def test_404_shape(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            get(port, "/nope")
        self._assert_shape(err.value)

    def test_batch_cap_hint(self, service):
        _, port = service
        from repro.core import TTLPlanner as _P  # noqa: F401
        from repro.resilience import ResilienceConfig
        from repro.service import PlannerService
        from tests.conftest import make_random_route_graph
        import random as _random

        graph = make_random_route_graph(_random.Random(11), 8, 4)
        svc = PlannerService(
            TTLPlanner(graph),
            resilience=ResilienceConfig(max_batch_pairs=3),
        )
        capped_port = svc.start(port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(
                    capped_port,
                    "/batch",
                    {
                        "kind": "one_to_many",
                        "source": 0,
                        "targets": [1, 2, 3, 4],
                        "t": 0,
                    },
                )
            assert err.value.code == 400
            body = self._assert_shape(err.value)
            assert body["field"] == "targets"
            assert "max_batch_pairs" in body["hint"]
        finally:
            svc.stop()


class TestBatchEndpoint:
    def test_one_to_many(self, service):
        graph, port = service
        targets = list(range(graph.n))
        status, data = post(
            port,
            "/batch",
            {"kind": "one_to_many", "source": 0, "targets": targets, "t": 0},
        )
        assert status == 200
        assert data["kind"] == "one_to_many"
        arrivals = data["arrivals"]
        assert len(arrivals) == graph.n
        assert arrivals["0"] == 0  # source reaches itself at t
        planner = TTLPlanner(graph)
        for v in range(graph.n):
            journey = planner.earliest_arrival(0, v, 0)
            expected = journey.arr if journey else None
            if v == 0:
                expected = 0
            assert arrivals[str(v)] == expected, v

    def test_matrix(self, service):
        graph, port = service
        status, data = post(
            port,
            "/batch",
            {"kind": "matrix", "sources": [0, 1], "targets": [2, 3], "t": 0},
        )
        assert status == 200
        matrix = data["matrix"]
        assert set(matrix) == {"0", "1"}
        assert set(matrix["0"]) == {"2", "3"}

    def test_isochrone(self, service):
        graph, port = service
        status, data = post(
            port,
            "/batch",
            {"kind": "isochrone", "source": 0, "t": 0, "budget": 100},
        )
        assert status == 200
        assert 0 in data["stations"]
        planner = TTLPlanner(graph)
        for v in data["stations"]:
            if v == 0:
                continue
            journey = planner.earliest_arrival(0, v, 0)
            assert journey is not None and journey.arr <= 100

    def test_bad_kind_400(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            post(port, "/batch", {"kind": "teleport", "t": 0})
        assert err.value.code == 400
        assert json.loads(err.value.read())["field"] == "kind"

    def test_non_integer_targets_400(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            post(
                port,
                "/batch",
                {"kind": "one_to_many", "source": 0, "targets": ["x"], "t": 0},
            )
        assert err.value.code == 400
        assert json.loads(err.value.read())["field"] == "targets"

    def test_batch_is_v1_only(self, service):
        _, port = service
        with pytest.raises(urllib.error.HTTPError) as err:
            bare(
                port,
                "/batch",
                {"kind": "one_to_many", "source": 0, "targets": [1], "t": 0},
            )
        assert err.value.code == 404


class TestLiveBatch:
    """A live service answers ``/v1/batch`` for the live timetable, not
    for the sealed index underneath it."""

    def test_batch_follows_live_events(self):
        import random

        from repro.algorithms.temporal_dijkstra import earliest_arrival_search
        from repro.live import LiveOverlayEngine
        from repro.live.events import event_from_dict
        from repro.live.overlay import OverlayTimetable, PatchSet
        from repro.resilience import ResilienceConfig
        from repro.timeutil import INF
        from tests.conftest import make_random_route_graph

        graph = make_random_route_graph(random.Random(23), 10, 7)

        def arrivals(timetable, source):
            eat, _ = earliest_arrival_search(timetable, source, 0)
            return {str(v): a if a < INF else None for v, a in enumerate(eat)}

        def cancelled(trip):
            event = event_from_dict({"kind": "cancel", "trip_id": trip})
            return OverlayTimetable(graph, PatchSet.compile(graph, [event]))

        # A cancellation that moves some arrival from some source.
        source, trip = next(
            (s, trip)
            for trip in sorted(graph.trips)
            for s in range(graph.n)
            if arrivals(cancelled(trip), s) != arrivals(graph, s)
        )
        targets = list(range(graph.n))
        requests = {
            "one_to_many": {"kind": "one_to_many", "source": source,
                            "targets": targets, "t": 0},
            "matrix": {"kind": "matrix", "sources": [source],
                       "targets": targets, "t": 0},
            "isochrone": {"kind": "isochrone", "source": source, "t": 0,
                          "budget": 10**6},
        }
        engine = LiveOverlayEngine(graph)
        svc = PlannerService(
            engine, resilience=ResilienceConfig(cache_size=64)
        )
        port = svc.start(port=0)
        try:
            def ask():
                return {
                    kind: post(port, "/batch", body)[1]
                    for kind, body in requests.items()
                }

            before = ask()
            assert before["one_to_many"]["arrivals"] == arrivals(graph, source)
            post(port, "/live/events", {"kind": "cancel", "trip_id": trip})
            after = ask()
            expected = arrivals(engine.overlay, source)
            assert expected != arrivals(graph, source)
            assert after["one_to_many"]["arrivals"] == expected
            assert after["matrix"]["matrix"] == {str(source): expected}
            reachable = sorted(
                (a, int(v)) for v, a in expected.items() if a is not None
            )
            assert after["isochrone"]["stations"] == [v for _, v in reachable]
        finally:
            svc.stop()
