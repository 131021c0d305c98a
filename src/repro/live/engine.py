"""The hybrid live query engine.

:class:`LiveOverlayEngine` keeps the sealed TTL index untouched and
answers each query with a two-stage safety argument:

1. **Feasibility** — the static answer's label segments are checked by
   the :class:`~repro.live.taint.TaintAnalyzer`; a clean verdict proves
   the unfolded path uses no removed/retimed connection, i.e. it still
   runs under the live schedule.
2. **Optimality** — any live journey that *beats* the static optimum
   must ride at least one *added* connection (live minus additions is a
   subset of the base timetable, over which the index is exact).  The
   engine therefore scans the few added connections inside the query's
   time window and bounds, optimistically (static label lookups give
   lower bounds on live travel times because the base timetable is a
   superset of the live one minus additions), the best journey that
   could route through them — chaining through multiple additions is
   covered by a small fixpoint.  If even the optimistic bound cannot
   beat the static answer, the fast path is safe.

When either stage fails, the query falls back to temporal Dijkstra on
the :class:`~repro.live.overlay.OverlayTimetable`, so every answer —
fast path or fallback — is exact for the live schedule.  Per-query
counters record how often each path is taken; the
``bench_live_overlay`` benchmark reports the resulting fast-path rate
against the full re-index baseline.

Patch swaps build a fresh immutable snapshot (patch-set, overlay,
taint analyzer, fallback planner) under a lock and publish it with one
reference assignment, so queries already in flight keep reading a
consistent snapshot.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.algorithms.temporal_dijkstra import DijkstraPlanner
from repro.core.build import OrderSpec
from repro.core.index import TTLIndex
from repro.core.queries import TTLPlanner
from repro.core.sketch import (
    best_eap_sketch,
    best_ldp_sketch,
    best_sdp_sketch,
)
from repro.core.unfold import sketch_to_journey
from repro.errors import LiveEventError
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.live.events import LiveEvent
from repro.live.overlay import OverlayTimetable, PatchSet
from repro.live.taint import TaintAnalyzer, TaintReport
from repro.planner import RoutePlanner
from repro.timeutil import INF, NEG_INF


class LiveQueryStats:
    """Counters for the engine's per-query routing decisions."""

    __slots__ = (
        "queries",
        "fast_path",
        "fallback_taint",
        "fallback_improvement",
        "fallback_flood",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.fast_path = 0
        #: Static answer used a patched connection.
        self.fallback_taint = 0
        #: An added connection could beat the static answer.
        self.fallback_improvement = 0
        #: Too many candidate additions to analyze; gave up early.
        self.fallback_flood = 0

    @property
    def fallbacks(self) -> int:
        """Total queries answered by search on the overlay."""
        return (
            self.fallback_taint
            + self.fallback_improvement
            + self.fallback_flood
        )

    @property
    def fast_path_rate(self) -> float:
        """Share of queries served from the untouched TTL index."""
        return self.fast_path / self.queries if self.queries else 1.0

    def snapshot(self) -> dict:
        """JSON-safe counter dump (served by ``/live/stats``)."""
        return {
            "queries": self.queries,
            "fast_path": self.fast_path,
            "fallback_taint": self.fallback_taint,
            "fallback_improvement": self.fallback_improvement,
            "fallback_flood": self.fallback_flood,
            "fast_path_rate": self.fast_path_rate,
        }

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__slots__:
            setattr(self, name, 0)


class _LiveState(NamedTuple):
    """One immutable published snapshot of the live schedule."""

    generation: int
    patch: PatchSet
    overlay: OverlayTimetable
    taint: TaintAnalyzer
    fallback: DijkstraPlanner


class LiveOverlayEngine(RoutePlanner):
    """Delay/cancellation-aware planner over a frozen TTL index."""

    name = "Live-TTL"

    def __init__(
        self,
        graph: TimetableGraph,
        order: OrderSpec = "hub",
        index: Optional[TTLIndex] = None,
        now: int = 0,
        max_candidates: int = 32,
    ) -> None:
        """Create the engine.

        Args:
            graph: the base (published) timetable.
            order: node-order specification for index construction.
            index: adopt a pre-built index instead of building one.
            now: initial engine clock (event visibility).
            max_candidates: added connections a single improvement
                check will analyze before giving up and falling back.
        """
        super().__init__(graph)
        self._ttl = TTLPlanner(graph, order=order, index=index)
        self._lock = threading.RLock()
        self._events: Dict[int, LiveEvent] = {}
        self._next_event_id = 1
        self._now = now
        self._max_candidates = max_candidates
        self._state: Optional[_LiveState] = None
        #: Whether the most recent query was answered verbatim from the
        #: sealed static index (read under the caller's lock).
        self._last_fast_path = False
        self.stats = LiveQueryStats()
        #: Malformed / out-of-order feed records skipped by
        #: :func:`repro.live.feed.replay` (surfaced in ``/live/stats``).
        self.feed_skipped = 0

    # ------------------------------------------------------------------
    # Lifecycle / event management
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self._ttl.preprocess()
        with self._lock:
            self._rebuild()

    def index_bytes(self) -> int:
        return self._ttl.index_bytes()

    @property
    def index(self) -> TTLIndex:
        """The underlying sealed TTL index."""
        self.preprocess()
        assert self._ttl.index is not None
        return self._ttl.index

    @property
    def metrics(self):
        """Query counters of the wrapped TTL planner (fast-path
        queries; fallback searches are tracked in :attr:`stats`)."""
        return self._ttl.metrics

    def note_feed_skip(self, count: int = 1) -> None:
        """Count feed records skipped during replay."""
        self.feed_skipped += count

    @property
    def now(self) -> int:
        """The engine clock governing event visibility."""
        return self._now

    @property
    def generation(self) -> int:
        """Monotone patch generation (bumps on every overlay swap)."""
        state = self._state
        return state.generation if state is not None else 0

    @property
    def overlay(self) -> OverlayTimetable:
        """The current live view of the timetable."""
        self.preprocess()
        assert self._state is not None
        return self._state.overlay

    @property
    def patch(self) -> PatchSet:
        """The currently active compiled patch-set."""
        self.preprocess()
        assert self._state is not None
        return self._state.patch

    def apply_event(
        self, event: LiveEvent, event_id: Optional[int] = None
    ) -> int:
        """Register ``event`` and swap the overlay; returns its id.

        The event is validated against the base timetable immediately,
        so a bad feed entry fails here instead of poisoning queries.

        ``event_id`` pins an explicit id instead of assigning the next
        one — the journal replay path, where every process must bind
        the same id to the same event so ``clear``-by-id keeps meaning
        the same disruption everywhere.  Ids stay unique either way.
        """
        self.preprocess()
        with self._lock:
            PatchSet.compile(self.graph, [event])  # validate eagerly
            if event_id is None:
                event_id = self._next_event_id
            elif event_id in self._events:
                raise LiveEventError(
                    f"event id {event_id} is already registered"
                )
            elif event_id < 1:
                raise LiveEventError(f"event ids start at 1: {event_id}")
            self._next_event_id = max(self._next_event_id, event_id + 1)
            self._events[event_id] = event
            self._rebuild()
        return event_id

    def clear_event(self, event_id: int) -> None:
        """Remove one event by id and swap the overlay."""
        with self._lock:
            if event_id not in self._events:
                raise LiveEventError(f"unknown event id: {event_id}")
            del self._events[event_id]
            self._rebuild()

    def clear_all(self) -> int:
        """Drop every registered event; returns how many were dropped."""
        with self._lock:
            count = len(self._events)
            self._events.clear()
            if count:
                self._rebuild()
        return count

    def advance_to(self, now: int) -> None:
        """Move the engine clock forward, expiring events on the way;
        the overlay is swapped only if an event activates or expires."""
        with self._lock:
            if now < self._now:
                raise LiveEventError(
                    f"clock cannot move backwards: {now} < {self._now}"
                )
            before, self._now = self._now, now
            changed = False
            for eid, e in list(self._events.items()):
                changed = changed or e.active_at(before) != e.active_at(now)
                if e.expires_at <= now:
                    del self._events[eid]
            if changed and self._state is not None:
                self._rebuild()

    def events(self) -> List[Tuple[int, LiveEvent]]:
        """Snapshot of registered (id, event) pairs, pending included."""
        with self._lock:
            return sorted(self._events.items())

    def taint_report(self) -> TaintReport:
        """Taint statistics of the whole index under the active patch."""
        self.preprocess()
        assert self._state is not None
        return self._state.taint.report()

    def _rebuild(self) -> None:
        """Compile active events and publish a fresh snapshot."""
        assert self._ttl.index is not None
        active = [
            event for _, event in sorted(self._events.items())
            if event.active_at(self._now)
        ]
        patch = PatchSet.compile(self.graph, active)
        overlay = OverlayTimetable(self.graph, patch)
        generation = (
            self._state.generation + 1 if self._state is not None else 1
        )
        taint = TaintAnalyzer(self._ttl.index, patch)
        # Taint verdicts are memoized on label identity (src, dst, dep)
        # and are only meaningful against the patch they were decided
        # under — a stale clean verdict carried across a generation
        # (e.g. after clear_event) would certify a path against the
        # wrong patch.  Every swap therefore gets a *fresh* analyzer;
        # assert the invariant instead of trusting it silently.
        assert taint.patch is patch and not taint.memo_size, (
            "taint analyzer must start empty for its own patch-set"
        )
        self._state = _LiveState(
            generation=generation,
            patch=patch,
            overlay=overlay,
            taint=taint,
            fallback=DijkstraPlanner(overlay),
        )

    def _ready_state(self) -> _LiveState:
        self.preprocess()
        state = self._state
        assert state is not None
        return state

    @property
    def last_query_fast_path(self) -> bool:
        """True when the most recent query was answered verbatim from
        the sealed static index.

        Such an answer is a pure function of the index — independent of
        the patch generation that happened to be active — which is what
        makes it eligible for the serving cache's generation re-keying
        (:meth:`static_answer_valid`).  Callers must hold the same lock
        across the query and this read; the service's planner lock
        already provides that.
        """
        return self._last_fast_path

    def static_answer_valid(
        self,
        kind: str,
        source: int,
        destination: int,
        t: int,
        t_end: Optional[int] = None,
    ) -> bool:
        """Certify that the static index's answer is exact right now.

        Runs the same two-stage safety argument the query paths use —
        the TaintAnalyzer over the active patch-set (Definition 7 /
        Lemma 4) plus the added-connection improvement bound — without
        materializing the journey.  ``True`` is a proof that re-running
        the query would take the fast path and reproduce the static
        answer byte for byte; ``False`` means tainted, improvable, or
        punted (candidate flood), i.e. *cannot certify* — the serving
        cache treats all three as invalidation.
        """
        if source == destination:
            return True
        state = self._ready_state()
        if state.patch.is_empty():
            return True
        index = self._ttl.index
        assert index is not None
        if kind == "eap":
            sketch = best_eap_sketch(index, source, destination, t)
            if sketch is not None and state.taint.sketch_tainted(sketch):
                return False
            bound = sketch.arr if sketch is not None else INF
            verdict = self._eap_improvable(
                state, source, destination, t, bound
            )
        elif kind == "ldp":
            sketch = best_ldp_sketch(index, source, destination, t)
            if sketch is not None and state.taint.sketch_tainted(sketch):
                return False
            bound = sketch.dep if sketch is not None else NEG_INF
            verdict = self._ldp_improvable(
                state, source, destination, t, bound
            )
        elif kind == "sdp":
            if t_end is None:
                return False
            sketch = best_sdp_sketch(index, source, destination, t, t_end)
            if sketch is not None and state.taint.sketch_tainted(sketch):
                return False
            bound = sketch.duration if sketch is not None else INF
            verdict = self._sdp_improvable(
                state, source, destination, t, t_end, bound
            )
        else:
            return False
        return verdict is False

    # ------------------------------------------------------------------
    # Optimistic bounds through the static index
    # ------------------------------------------------------------------
    #
    # The base timetable is a superset of (live minus additions), so
    # static label lookups *lower*-bound arrival times and
    # *upper*-bound departure times of any live path segment that does
    # not itself ride an addition.  That is exactly the direction a
    # sound "no better journey exists" proof needs.

    def _static_eat(self, x: int, y: int, t: int) -> int:
        """Optimistic earliest arrival ``x -> y`` departing >= ``t``."""
        if x == y:
            return t
        assert self._ttl.index is not None
        sketch = best_eap_sketch(self._ttl.index, x, y, t)
        return sketch.arr if sketch is not None else INF

    def _static_ldt(self, x: int, y: int, t: int) -> int:
        """Optimistic latest departure ``x -> y`` arriving <= ``t``."""
        if x == y:
            return t
        assert self._ttl.index is not None
        sketch = best_ldp_sketch(self._ttl.index, x, y, t)
        return sketch.dep if sketch is not None else NEG_INF

    def _eap_improvable(
        self, state: _LiveState, u: int, v: int, t: int, bound_arr: int
    ) -> Optional[bool]:
        """Could an added connection yield arrival < ``bound_arr``?

        Returns ``None`` when there are too many candidates to decide
        cheaply (the caller falls back).
        """
        cands = [
            c for c in state.patch.added_departing_in(t, bound_arr)
            if c.arr < bound_arr
        ]
        if not cands:
            return False
        if len(cands) > self._max_candidates:
            return None
        points = {v}
        for c in cands:
            points.add(c.u)
            points.add(c.v)
        best = {x: self._static_eat(u, x, t) for x in points}
        # Chains run forward in time, so one pass in departure order
        # usually converges; iterate to a fixpoint regardless.
        for _ in range(len(cands)):
            changed = False
            for c in cands:
                if best[c.u] <= c.dep and c.arr < best[c.v]:
                    best[c.v] = c.arr
                    changed = True
                    for y in points:
                        if y != c.v:
                            alt = self._static_eat(c.v, y, c.arr)
                            if alt < best[y]:
                                best[y] = alt
            if not changed:
                break
        return best[v] < bound_arr

    def _ldp_improvable(
        self, state: _LiveState, u: int, v: int, t: int, bound_dep: int
    ) -> Optional[bool]:
        """Could an added connection yield departure > ``bound_dep``?"""
        cands = [
            c for c in state.patch.added_arriving_by(t)
            if c.dep > bound_dep
        ]
        if not cands:
            return False
        if len(cands) > self._max_candidates:
            return None
        points = {u}
        for c in cands:
            points.add(c.u)
            points.add(c.v)
        # late[x]: optimistic latest time to be at x and still reach v
        # by t on the live schedule.
        late = {x: self._static_ldt(x, v, t) for x in points}
        cands_desc = sorted(cands, key=lambda c: -c.arr)
        for _ in range(len(cands)):
            changed = False
            for c in cands_desc:
                if c.arr <= late[c.v] and c.dep > late[c.u]:
                    late[c.u] = c.dep
                    changed = True
                    for y in points:
                        if y != c.u:
                            alt = self._static_ldt(y, c.u, c.dep)
                            if alt > late[y]:
                                late[y] = alt
            if not changed:
                break
        return late[u] > bound_dep

    def _sdp_improvable(
        self,
        state: _LiveState,
        u: int,
        v: int,
        t: int,
        t_end: int,
        bound_duration: int,
    ) -> Optional[bool]:
        """Could an added connection yield duration < ``bound_duration``
        inside the ``[t, t_end]`` window?

        Additions are analyzed per *run* (maximal same-trip leg
        sequence, see ``PatchSet.added_runs``).  A journey beating the
        static optimum boards its first added leg in some run and
        alights its last added leg in some (possibly the same) run;
        everything before/after those legs rides live-minus-added
        connections, which the static index bounds optimistically.  So
        the exact board/alight pairing within each run plus a coarse
        pairing across runs covers every possible chain, without the
        per-connection pair explosion a retimed multi-leg trip would
        otherwise cause.
        """
        runs = []
        for run in state.patch.added_runs:
            # Window filters keep legs a conforming journey could ride.
            legs = [c for c in run if c.dep >= t and c.arr <= t_end]
            if legs:
                runs.append(legs)
        if not runs:
            return False
        if len(runs) > self._max_candidates:
            return None
        boards: List[Tuple[int, int]] = []  # (latest dep >= t, min arr)
        alights: List[Tuple[int, int]] = []  # (earliest arr <= t_end, max dep)
        for legs in runs:
            # prefix = optimistic latest in-window departure from ``u``
            # boarding this run at or before the current leg; ``ea`` =
            # earliest arrival at ``v`` alighting after the current leg.
            # Legs are time-sorted, so board index <= alight index.
            prefix = NEG_INF
            best_ea = INF
            for c in legs:
                ld = self._static_ldt(u, c.u, c.dep)
                if ld >= t:
                    prefix = max(prefix, ld)
                ea = self._static_eat(c.v, v, c.arr)
                if ea <= t_end:
                    best_ea = min(best_ea, ea)
                    if prefix > NEG_INF and ea - prefix < bound_duration:
                        return True
            boards.append((prefix, legs[0].arr))
            alights.append((best_ea, legs[-1].dep))
        # Cross-run chains: board run ``a`` first, alight run ``b``
        # last.  Coarse but sound: duration >= (earliest arrival after
        # b) - (latest departure boarding a), and the chain is feasible
        # only if some a-leg alights no later than some b-leg departs.
        for a, (ld_a, min_arr_a) in enumerate(boards):
            if ld_a == NEG_INF:
                continue
            for b, (ea_b, max_dep_b) in enumerate(alights):
                if a == b or ea_b == INF:
                    continue
                if min_arr_a <= max_dep_b and ea_b - ld_a < bound_duration:
                    return True
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        self._last_fast_path = True
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        state = self._ready_state()
        self.stats.queries += 1
        if state.patch.is_empty():
            self.stats.fast_path += 1
            return self._ttl.earliest_arrival(source, destination, t)
        self._last_fast_path = False
        index = self._ttl.index
        assert index is not None
        sketch = best_eap_sketch(index, source, destination, t)
        if sketch is not None and state.taint.sketch_tainted(sketch):
            self.stats.fallback_taint += 1
            return state.fallback.earliest_arrival(source, destination, t)
        bound = sketch.arr if sketch is not None else INF
        verdict = self._eap_improvable(state, source, destination, t, bound)
        if verdict is None:
            self.stats.fallback_flood += 1
            return state.fallback.earliest_arrival(source, destination, t)
        if verdict:
            self.stats.fallback_improvement += 1
            return state.fallback.earliest_arrival(source, destination, t)
        self.stats.fast_path += 1
        self._last_fast_path = True
        if sketch is None:
            return None
        return sketch_to_journey(
            index, sketch, source, destination, self._ttl.concise
        )

    def latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        self._last_fast_path = True
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        state = self._ready_state()
        self.stats.queries += 1
        if state.patch.is_empty():
            self.stats.fast_path += 1
            return self._ttl.latest_departure(source, destination, t)
        self._last_fast_path = False
        index = self._ttl.index
        assert index is not None
        sketch = best_ldp_sketch(index, source, destination, t)
        if sketch is not None and state.taint.sketch_tainted(sketch):
            self.stats.fallback_taint += 1
            return state.fallback.latest_departure(source, destination, t)
        bound = sketch.dep if sketch is not None else NEG_INF
        verdict = self._ldp_improvable(state, source, destination, t, bound)
        if verdict is None:
            self.stats.fallback_flood += 1
            return state.fallback.latest_departure(source, destination, t)
        if verdict:
            self.stats.fallback_improvement += 1
            return state.fallback.latest_departure(source, destination, t)
        self.stats.fast_path += 1
        self._last_fast_path = True
        if sketch is None:
            return None
        return sketch_to_journey(
            index, sketch, source, destination, self._ttl.concise
        )

    def profile(self, source: int, destination: int, t: int, t_end: int):
        """All non-dominated ``(dep, arr)`` journeys in the window,
        exact for the live schedule.

        With no active disruptions the sealed index answers directly;
        under a patch the whole frontier could shift, so rather than
        certifying every frontier point the engine goes straight to
        the exact departure-time sweep on the overlay (counted as a
        punt, like the candidate-flood fallbacks).
        """
        self._check_query(source, destination)
        self._check_window(t, t_end)
        self._last_fast_path = True
        if source == destination:
            return [(t, t)]
        state = self._ready_state()
        self.stats.queries += 1
        if state.patch.is_empty():
            self.stats.fast_path += 1
            return self._ttl.profile(source, destination, t, t_end)
        self._last_fast_path = False
        self.stats.fallback_flood += 1
        return state.fallback.profile(source, destination, t, t_end)

    def shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        self._check_window(t, t_end)
        self._last_fast_path = True
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        state = self._ready_state()
        self.stats.queries += 1
        if state.patch.is_empty():
            self.stats.fast_path += 1
            return self._ttl.shortest_duration(source, destination, t, t_end)
        self._last_fast_path = False
        index = self._ttl.index
        assert index is not None
        sketch = best_sdp_sketch(index, source, destination, t, t_end)
        if sketch is not None and state.taint.sketch_tainted(sketch):
            self.stats.fallback_taint += 1
            return state.fallback.shortest_duration(
                source, destination, t, t_end
            )
        bound = sketch.duration if sketch is not None else INF
        verdict = self._sdp_improvable(
            state, source, destination, t, t_end, bound
        )
        if verdict is None:
            self.stats.fallback_flood += 1
            return state.fallback.shortest_duration(
                source, destination, t, t_end
            )
        if verdict:
            self.stats.fallback_improvement += 1
            return state.fallback.shortest_duration(
                source, destination, t, t_end
            )
        self.stats.fast_path += 1
        self._last_fast_path = True
        if sketch is None:
            return None
        return sketch_to_journey(
            index, sketch, source, destination, self._ttl.concise
        )
