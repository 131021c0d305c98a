"""Tests for the hybrid live overlay engine."""

import pytest

from repro.algorithms.temporal_dijkstra import DijkstraPlanner
from repro.errors import LiveEventError, UnknownTripError
from repro.live import (
    EventFeed,
    ExtraTrip,
    LiveOverlayEngine,
    TimedEvent,
    TripCancellation,
    TripDelay,
    replay,
    synthetic_feed,
)


@pytest.fixture
def engine(route_graph):
    eng = LiveOverlayEngine(route_graph)
    eng.preprocess()
    return eng


def assert_matches_oracle(engine, graph, t_lo=0, t_hi=260, step=65):
    """Engine answers must equal temporal Dijkstra on the overlay."""
    oracle = DijkstraPlanner(engine.overlay)
    for u in range(graph.n):
        for v in range(graph.n):
            if u == v:
                continue
            for t in range(t_lo, t_hi, step):
                a = engine.earliest_arrival(u, v, t)
                b = oracle.earliest_arrival(u, v, t)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.arr == b.arr, (u, v, t)
                a = engine.latest_departure(u, v, t)
                b = oracle.latest_departure(u, v, t)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.dep == b.dep, (u, v, t)
                a = engine.shortest_duration(u, v, t, t + 200)
                b = oracle.shortest_duration(u, v, t, t + 200)
                assert (a is None) == (b is None), (u, v, t)
                if a is not None:
                    assert a.duration == b.duration, (u, v, t)


class TestNoEvents:
    def test_all_queries_fast_path(self, engine, route_graph):
        assert_matches_oracle(engine, route_graph)
        assert engine.stats.fallbacks == 0
        assert engine.stats.fast_path_rate == 1.0

    def test_generation_starts_at_one(self, engine):
        assert engine.generation == 1


class TestWithEvents:
    def test_delays_and_cancellations_exact(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)
        engine.apply_event(TripDelay(trip_id=trip_ids[0], delay=40))
        engine.apply_event(
            TripDelay(trip_id=trip_ids[1], delay=25, from_stop=1)
        )
        engine.apply_event(TripCancellation(trip_id=trip_ids[2]))
        assert_matches_oracle(engine, route_graph)
        assert engine.stats.queries > 0

    def test_extra_trip_exact(self, engine, route_graph):
        engine.apply_event(
            ExtraTrip(stops=(0, 5, 9), times=((0, 10), (40, 45), (80, 80)))
        )
        assert_matches_oracle(engine, route_graph)

    def test_generation_bumps_on_every_swap(self, engine, route_graph):
        trip_id = sorted(route_graph.trips)[0]
        g0 = engine.generation
        eid = engine.apply_event(TripDelay(trip_id=trip_id, delay=30))
        assert engine.generation == g0 + 1
        engine.clear_event(eid)
        assert engine.generation == g0 + 2

    def test_clear_restores_static_answers(self, engine, route_graph):
        ttl_answers = {}
        for u in range(route_graph.n):
            journey = engine.earliest_arrival(u, (u + 1) % route_graph.n, 0)
            ttl_answers[u] = journey.arr if journey else None
        eid = engine.apply_event(
            TripCancellation(trip_id=sorted(route_graph.trips)[0])
        )
        engine.clear_event(eid)
        assert engine.patch.is_empty()
        for u in range(route_graph.n):
            journey = engine.earliest_arrival(u, (u + 1) % route_graph.n, 0)
            assert (journey.arr if journey else None) == ttl_answers[u]

    def test_unknown_trip_rejected_eagerly(self, engine):
        with pytest.raises(UnknownTripError):
            engine.apply_event(TripCancellation(trip_id=10**9))
        assert engine.events() == []

    def test_clear_unknown_id_rejected(self, engine):
        with pytest.raises(LiveEventError):
            engine.clear_event(424242)

    def test_clear_all(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)[:3]
        for trip_id in trip_ids:
            engine.apply_event(TripDelay(trip_id=trip_id, delay=10))
        assert engine.clear_all() == 3
        assert engine.events() == []
        assert engine.patch.is_empty()


class TestClock:
    def test_pending_event_invisible_until_apply_at(
        self, engine, route_graph
    ):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(
            TripDelay(trip_id=trip_id, delay=60, apply_at=100,
                      expires_at=200)
        )
        assert engine.patch.is_empty()  # now == 0 < apply_at
        engine.advance_to(150)
        assert not engine.patch.is_empty()
        engine.advance_to(250)
        assert engine.patch.is_empty()
        assert engine.events() == []  # expired events are dropped

    def test_advance_without_activation_or_expiry_keeps_generation(
        self, engine, route_graph
    ):
        trip_ids = sorted(route_graph.trips)[:2]
        engine.apply_event(TripDelay(trip_id=trip_ids[0], delay=30))
        engine.apply_event(
            TripDelay(trip_id=trip_ids[1], delay=60, apply_at=500,
                      expires_at=900)
        )
        generation, patch = engine.generation, engine.patch
        for now in (10, 200, 499):
            engine.advance_to(now)
        assert engine.generation == generation
        assert engine.patch is patch

    def test_crossing_apply_or_expiry_bumps_generation(
        self, engine, route_graph
    ):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(
            TripDelay(trip_id=trip_id, delay=60, apply_at=100,
                      expires_at=200)
        )
        generation = engine.generation
        engine.advance_to(100)  # activates
        assert engine.generation == generation + 1
        assert not engine.patch.is_empty()
        engine.advance_to(199)
        assert engine.generation == generation + 1
        engine.advance_to(200)  # expires
        assert engine.generation == generation + 2
        assert engine.patch.is_empty()

    def test_clock_cannot_move_backwards(self, engine):
        engine.advance_to(100)
        with pytest.raises(LiveEventError):
            engine.advance_to(50)

    def test_taint_report_follows_clock(self, engine, route_graph):
        trip_id = sorted(route_graph.trips)[0]
        engine.apply_event(
            TripCancellation(trip_id=trip_id, apply_at=100)
        )
        assert engine.taint_report().num_tainted == 0
        engine.advance_to(100)
        assert engine.taint_report().num_tainted > 0


class TestFeeds:
    def test_replay_drives_clock_and_events(self, engine, route_graph):
        feed = synthetic_feed(route_graph, rate=0.4, seed=5)
        assert len(feed) > 0
        played = list(replay(engine, feed))
        assert len(played) == len(feed)
        assert engine.now == feed.records[-1].at
        assert_matches_oracle(engine, route_graph)

    def test_replay_until(self, engine, route_graph):
        trip_ids = sorted(route_graph.trips)[:2]
        feed = EventFeed(
            [
                TimedEvent(10, TripDelay(trip_id=trip_ids[0], delay=5)),
                TimedEvent(90, TripDelay(trip_id=trip_ids[1], delay=5)),
            ]
        )
        played = list(replay(engine, feed, until=50))
        assert len(played) == 1

    def test_feed_json_round_trip(self, route_graph):
        feed = synthetic_feed(
            route_graph, rate=0.3, seed=8, extra_share=0.5, duration=600
        )
        assert EventFeed.from_json(feed.to_json()).records == feed.records

    def test_malformed_feed_rejected(self):
        with pytest.raises(LiveEventError):
            EventFeed.from_json("{not json")
        with pytest.raises(LiveEventError):
            EventFeed.from_json('{"at": 3}')
        with pytest.raises(LiveEventError):
            EventFeed.from_json('[{"event": {"kind": "cancel"}}]')

    def test_bad_rate_rejected(self, route_graph):
        with pytest.raises(LiveEventError):
            synthetic_feed(route_graph, rate=2.0)


class TestFeedRobustness:
    """A long-running consumer must survive a misbehaving feed."""

    def test_tolerant_from_json_skips_and_counts(self):
        import json

        text = json.dumps(
            [
                {"at": 5, "event": {"kind": "cancel", "trip_id": 0}},
                {"at": 7},  # missing event payload
                "garbage",  # not even an object
                {"at": 9, "event": {"kind": "warp"}},  # unknown kind
            ]
        )
        with pytest.warns(UserWarning):
            feed = EventFeed.from_json(text, strict=False)
        assert len(feed) == 1
        assert feed.skipped == 3
        # The envelope itself must still be well-formed.
        with pytest.raises(LiveEventError):
            EventFeed.from_json("{not json", strict=False)
        with pytest.raises(LiveEventError):
            EventFeed.from_json('{"at": 3}', strict=False)

    def test_strict_from_json_still_raises(self):
        with pytest.raises(LiveEventError):
            EventFeed.from_json('[{"at": 7}]')

    def test_replay_skips_out_of_order_and_rejected(
        self, engine, route_graph
    ):
        trip = sorted(route_graph.trips)[0]
        engine.advance_to(50)
        feed = EventFeed(
            [
                # Announced behind the engine clock: out of order.
                TimedEvent(10, TripDelay(trip_id=trip, delay=5)),
                # Unknown trip: the engine rejects it on apply.
                TimedEvent(60, TripDelay(trip_id=10**9, delay=5)),
                # Healthy record.
                TimedEvent(70, TripDelay(trip_id=trip, delay=5)),
            ]
        )
        with pytest.warns(UserWarning):
            played = list(replay(engine, feed))
        assert [at for at, _, _ in played] == [70]
        assert engine.feed_skipped == 2
        assert engine.now == 70

    def test_replay_raise_mode_fails_fast(self, engine, route_graph):
        trip = sorted(route_graph.trips)[0]
        engine.advance_to(50)
        feed = EventFeed([TimedEvent(10, TripDelay(trip_id=trip, delay=5))])
        with pytest.raises(LiveEventError):
            list(replay(engine, feed, on_error="raise"))
        assert engine.feed_skipped == 0

    def test_replay_rejects_bad_on_error(self, engine):
        with pytest.raises(ValueError):
            list(replay(engine, EventFeed(), on_error="ignore"))


class TestStats:
    def test_counters_add_up(self, engine, route_graph):
        feed = synthetic_feed(route_graph, rate=0.3, seed=1)
        for _ in replay(engine, feed):
            pass
        assert_matches_oracle(engine, route_graph)
        stats = engine.stats
        assert stats.queries == stats.fast_path + stats.fallbacks
        snapshot = stats.snapshot()
        assert snapshot["queries"] == stats.queries
        stats.reset()
        assert stats.queries == 0
