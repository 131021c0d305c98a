"""Hot-pair answer cache suite.

Three layers:

* unit tests over :class:`~repro.serving.cache.AnswerCache` — keying,
  LRU accounting, and the revalidation protocol in isolation;
* an end-to-end selective-invalidation test over real HTTP — two
  disjoint corridors, a delay on one, and the *other* corridor's
  cached answer must survive the sweep (taint-driven, not
  flush-the-world);
* the metamorphic property the whole design hangs on: a cache-enabled
  service is byte-for-byte indistinguishable from a cache-disabled one
  before, during, and after seeded live-event churn.
"""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.graph.builders import GraphBuilder
from repro.live import LiveOverlayEngine, TripCancellation, TripDelay
from repro.resilience import ResilienceConfig
from repro.serving.cache import AnswerCache
from repro.service import PlannerService
from tests.conftest import make_random_route_graph

#: Committed seeds: CI replays these exact disruption sequences.
SEEDS = (11, 23, 47)


def fetch(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def start_service(request, planner, cache_size):
    svc = PlannerService(
        planner,
        resilience=ResilienceConfig(cache_size=cache_size),
    )
    port = svc.start(port=0)
    request.addfinalizer(svc.stop)
    return svc, port


class TestAnswerCacheUnit:
    def make(self, capacity=4, bucket_s=900):
        return AnswerCache(capacity, bucket_s=bucket_s)

    def key(self, cache, origin=1, destination=2, t=1000, generation=0,
            **kw):
        return cache.make_key(
            "eap", origin, destination, t, epoch="e", generation=generation,
            **kw
        )

    def test_exact_params_in_key(self):
        cache = self.make()
        # Same bucket, different t: distinct keys — a hit must be the
        # byte-for-byte identical question.
        a = self.key(cache, t=1000)
        b = self.key(cache, t=1001)
        assert a.departure_bucket == b.departure_bucket
        assert a != b
        cache.put(a, {"journey": "A"}, static_ok=True)
        assert cache.get(b) is None
        assert cache.get(a) == {"journey": "A"}

    def test_lru_eviction_and_counters(self):
        cache = self.make(capacity=2)
        k1, k2, k3 = (self.key(cache, t=t) for t in (1, 2, 3))
        cache.put(k1, {"j": 1}, static_ok=True)
        cache.put(k2, {"j": 2}, static_ok=True)
        cache.get(k1)  # refresh k1: k2 becomes the LRU victim
        cache.put(k3, {"j": 3}, static_ok=True)
        assert cache.get(k2) is None
        assert cache.get(k1) == {"j": 1}
        assert cache.get(k3) == {"j": 3}
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert cache.counters()["cache_evictions"] == 1

    def test_revalidate_rekeys_only_certified_static_entries(self):
        cache = self.make()
        static = self.key(cache, origin=1, destination=2, generation=1)
        tainted = self.key(cache, origin=3, destination=4, generation=1)
        overlay = self.key(cache, origin=5, destination=6, generation=1)
        current = self.key(cache, origin=7, destination=8, generation=2)
        cache.put(static, {"j": "s"}, static_ok=True)
        cache.put(tainted, {"j": "t"}, static_ok=True)
        cache.put(overlay, {"j": "o"}, static_ok=False)
        cache.put(current, {"j": "c"}, static_ok=True)
        invalidated = cache.revalidate(
            2, certify=lambda entry: entry.origin == 1
        )
        # static: certified, re-keyed to generation 2.  tainted:
        # certify refused.  overlay: never certifiable.  current:
        # already at generation 2, untouched.
        assert invalidated == 2
        assert cache.stats.invalidations == 2
        assert cache.get(static._replace(live_generation=2)) == {"j": "s"}
        assert cache.get(static) is None  # old key gone
        assert cache.get(tainted._replace(live_generation=2)) is None
        assert cache.get(overlay._replace(live_generation=2)) is None
        assert cache.get(current) == {"j": "c"}

    def test_revalidate_without_certify_drops_old_generations(self):
        cache = self.make()
        key = self.key(cache, generation=1)
        cache.put(key, {"j": 1}, static_ok=True)
        assert cache.revalidate(2) == 1
        assert len(cache) == 0

    def test_clear_counts_invalidations(self):
        cache = self.make()
        cache.put(self.key(cache), {"j": 1}, static_ok=True)
        assert cache.clear() == 1
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_snapshot_shape(self):
        cache = self.make(capacity=3, bucket_s=60)
        key = self.key(cache)
        cache.put(key, {"j": 1}, static_ok=True)
        cache.get(key)
        snap = cache.snapshot()
        assert snap["capacity"] == 3
        assert snap["bucket_s"] == 60
        assert snap["size"] == 1
        assert snap["hits"] == 1
        assert snap["hit_rate"] == 1.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AnswerCache(0)
        with pytest.raises(ValueError):
            AnswerCache(4, bucket_s=0)


def two_corridor_graph():
    """Two disjoint line corridors: 0-1-2 (trips 0..) and 3-4-5."""
    builder = GraphBuilder()
    builder.add_stations(6)
    a = builder.add_route([0, 1, 2])
    b = builder.add_route([3, 4, 5])
    for start in (0, 30, 60):
        builder.add_trip_departures(a, start, [10, 10])
        builder.add_trip_departures(b, start, [10, 10])
    return builder.build()


class TestSelectiveInvalidation:
    def test_disjoint_corridor_survives_sweep(self, request):
        graph = two_corridor_graph()
        engine = LiveOverlayEngine(graph)
        service, port = start_service(request, engine, cache_size=32)

        # Prime both corridors.
        status, before_a = fetch(port, "/v1/eap?from=0&to=2&t=0")
        assert status == 200
        status, before_b = fetch(port, "/v1/eap?from=3&to=5&t=0")
        assert status == 200
        assert service.cache.stats.misses == 2

        # Delay corridor A's first trip enough to change its answer.
        trip_a = before_a["data"]["journey"]["path"][0][4]
        status, _ = post(
            port,
            "/v1/live/events",
            {"kind": "delay", "trip_id": trip_a, "delay": 100},
        )
        assert status == 200

        # Corridor B's entry was certified clean and re-keyed: a hit.
        hits_before = service.cache.stats.hits
        status, after_b = fetch(port, "/v1/eap?from=3&to=5&t=0")
        assert status == 200
        assert service.cache.stats.hits == hits_before + 1
        assert after_b["data"] == before_b["data"]

        # Corridor A's entry was invalidated and recomputed fresh.
        assert service.cache.stats.invalidations >= 1
        status, after_a = fetch(port, "/v1/eap?from=0&to=2&t=0")
        assert status == 200
        assert after_a["data"] != before_a["data"]
        oracle = engine.earliest_arrival(0, 2, 0)
        assert after_a["data"]["journey"]["arr"] == oracle.arr


def seeded_events(graph, rng, count=4):
    """A seeded mix of delays and cancellations over real trips."""
    trip_ids = sorted(graph.trips)
    events = []
    for _ in range(count):
        trip_id = rng.choice(trip_ids)
        if rng.random() < 0.5:
            events.append(
                {"kind": "delay", "trip_id": trip_id,
                 "delay": rng.randrange(5, 120)}
            )
        else:
            events.append({"kind": "cancel", "trip_id": trip_id})
    return events


@pytest.mark.parametrize("seed", SEEDS)
class TestMetamorphicCacheTransparency:
    """Cached answers must be byte-identical to a cache-disabled
    worker before, during, and after disruptions."""

    def assert_identical(self, cached_port, plain_port, queries):
        for path in queries:
            status_c, body_c = fetch(cached_port, path)
            status_p, body_p = fetch(plain_port, path)
            assert status_c == status_p == 200, path
            blob_c = json.dumps(body_c["data"], sort_keys=True)
            blob_p = json.dumps(body_p["data"], sort_keys=True)
            assert blob_c == blob_p, path
            assert (
                body_c["meta"]["degraded"] == body_p["meta"]["degraded"]
            )

    def test_cache_is_observably_transparent(self, request, seed):
        rng = random.Random(seed)
        graph = make_random_route_graph(rng, 8, 5)
        cached_svc, cached_port = start_service(
            request, LiveOverlayEngine(graph), cache_size=128
        )
        _, plain_port = start_service(
            request, LiveOverlayEngine(graph), cache_size=0
        )

        pairs = [
            (u, v)
            for u in range(graph.n)
            for v in range(graph.n)
            if u != v
        ]
        rng.shuffle(pairs)
        hot = pairs[:6]
        times = [0, 40, 90]
        queries = [
            f"/v1/eap?from={u}&to={v}&t={t}" for u, v in hot for t in times
        ] + [
            f"/v1/ldp?from={u}&to={v}&t=500" for u, v in hot[:3]
        ] + [
            f"/v1/sdp?from={u}&to={v}&t=0&t_end=500" for u, v in hot[:3]
        ]

        # Before any disruption — and twice, so the second pass is
        # served from the cache.
        self.assert_identical(cached_port, plain_port, queries)
        self.assert_identical(cached_port, plain_port, queries)

        # During churn: apply each event to BOTH services, re-compare
        # (twice again: the repeat pass hits whatever survived or was
        # restored by the sweep).  One event is aimed at a trip a hot
        # cached journey actually rides, so at least one sweep must
        # invalidate rather than re-key.
        events = seeded_events(graph, rng)
        for u, v in hot:
            _, body = fetch(cached_port, f"/v1/eap?from={u}&to={v}&t=0")
            journey = body["data"]["journey"]
            if journey and journey.get("path"):
                events.append(
                    {"kind": "cancel", "trip_id": journey["path"][0][4]}
                )
                break
        event_ids = []
        for event in events:
            status, applied = post(cached_port, "/v1/live/events", event)
            assert status == 200
            post(plain_port, "/v1/live/events", event)
            event_ids.append(applied["data"]["id"])
            self.assert_identical(cached_port, plain_port, queries)
            self.assert_identical(cached_port, plain_port, queries)

        # After: clear one event by id, then the rest wholesale.
        post(cached_port, "/v1/live/clear", {"id": event_ids[0]})
        post(plain_port, "/v1/live/clear", {"id": event_ids[0]})
        self.assert_identical(cached_port, plain_port, queries)
        post(cached_port, "/v1/live/clear", {})
        post(plain_port, "/v1/live/clear", {})
        self.assert_identical(cached_port, plain_port, queries)
        self.assert_identical(cached_port, plain_port, queries)

        # The property is vacuous unless the cache actually served
        # hits and the churn actually invalidated entries.
        stats = cached_svc.cache.stats
        assert stats.hits > 0
        assert stats.invalidations > 0

        # The counters thread through to /metrics and /resilience.
        _, metrics = fetch(cached_port, "/v1/metrics")
        assert metrics["data"]["cache"]["hits"] == stats.hits
        _, resilience = fetch(cached_port, "/v1/resilience")
        assert resilience["data"]["cache"]["hits"] == stats.hits
