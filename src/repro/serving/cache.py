"""The hot-pair answer cache with taint-driven invalidation.

Real journey-planning traffic is Zipfian: a small set of
``(origin, destination, departure)`` tuples dominates, yet every
``/v1`` request re-runs the full sketch-merge/unfold pipeline even
when nothing changed.  :class:`AnswerCache` stores the serialized
response payloads the service would otherwise recompute, behind a
bounded LRU, one cache per worker process (no cross-process
coordination — the prefork scoreboard aggregates the counters).

Keying
------

A :class:`CacheKey` is
``(query_type, origin, destination, departure_bucket, timetable_epoch,
live_generation, params)``:

* ``departure_bucket`` (``t // bucket_s``) groups a pair's traffic by
  time-of-day slice — the granularity hot-pair statistics and
  invalidation sweeps reason at;
* ``params`` carries the *exact* query parameters (``t``, ``t_end``,
  canonical batch body).  Two requests only share an entry when they
  are byte-for-byte the same question, so a hit is always the answer
  the pipeline would have produced — the metamorphic suite in
  ``tests/test_cache.py`` asserts byte-identical bodies;
* ``timetable_epoch`` fingerprints the sealed index, so a worker that
  is handed a different index can never resurrect answers computed on
  the old one;
* ``live_generation`` is the live engine's patch generation at store
  time.  A generation bump is the **conservative fallback**: any entry
  the invalidation sweep cannot positively certify simply stops being
  addressable and is dropped.

Taint-driven invalidation
-------------------------

On every live mutation (``apply_event`` / ``clear_event`` / clock
advance) the service calls :meth:`AnswerCache.revalidate` under the
planner lock with a *certify* callback —
:meth:`repro.live.engine.LiveOverlayEngine.static_answer_valid`, which
runs the TaintAnalyzer (and the added-connection improvement bound)
over the freshly compiled patch-set.  Entries whose canonical label
segments are provably untouched (Definition 7 / Lemma 4: a clean
verdict means the unfolded path exists verbatim in the live schedule,
and no added connection can beat it) are re-keyed to the new
generation and survive; everything else — tainted pairs, fallback
answers, batch payloads, punted taint resolutions — is evicted and
counted in ``invalidations``.  The cache therefore composes with the
live overlay without ever serving a stale journey: a kept entry is a
*proof-carrying* answer, not a TTL guess.

Only answers that are pure functions of the sealed index are eligible
for re-keying (``static_ok=True`` — the engine's fast path).  Answers
computed on the overlay (Dijkstra fallback) are correct only for the
generation that produced them and always die with it.  Degraded
(circuit-broken) answers are never stored at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Optional, Tuple


class CacheKey(NamedTuple):
    """Identity of one cached answer (see module docstring)."""

    query_type: str
    origin: int
    destination: int
    departure_bucket: int
    timetable_epoch: str
    live_generation: int
    #: Exact query parameters: ``(t,)``, ``(t, t_end)``, or a
    #: canonical-JSON batch body.  Hits require full equality.
    params: Tuple


class CacheEntry(NamedTuple):
    """One stored answer plus what revalidation needs to certify it."""

    payload: dict
    #: True when the payload is the sealed index's own (fast-path)
    #: answer — a pure function of the index, so it may be re-keyed to
    #: a new generation once certified against the new patch-set.
    static_ok: bool
    query_type: str
    origin: int
    destination: int
    t: int
    t_end: Optional[int]


class CacheStats:
    """Monotonic cache counters (fed to the prefork scoreboard)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        """Share of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AnswerCache:
    """Bounded per-worker LRU over serialized ``/v1`` answers."""

    def __init__(self, capacity: int, bucket_s: int = 900) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        if bucket_s < 1:
            raise ValueError(f"bucket seconds must be positive: {bucket_s}")
        self.capacity = capacity
        self.bucket_s = bucket_s
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------

    def make_key(
        self,
        query_type: str,
        origin: int,
        destination: int,
        t: int,
        epoch: str,
        generation: int,
        t_end: Optional[int] = None,
        extra: Tuple = (),
    ) -> CacheKey:
        """Build the key for one query (see the module docstring)."""
        params: Tuple = (t,) if t_end is None else (t, t_end)
        return CacheKey(
            query_type=query_type,
            origin=origin,
            destination=destination,
            departure_bucket=t // self.bucket_s,
            timetable_epoch=epoch,
            live_generation=generation,
            params=params + extra,
        )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[dict]:
        """The cached payload or ``None``; callers only serialize it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.payload

    def put(
        self,
        key: CacheKey,
        payload: dict,
        static_ok: bool,
        t_end: Optional[int] = None,
    ) -> None:
        """Store one answer, evicting LRU victims past capacity."""
        entry = CacheEntry(
            payload=dict(payload),
            static_ok=static_ok,
            query_type=key.query_type,
            origin=key.origin,
            destination=key.destination,
            t=key.params[0],
            t_end=t_end,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def revalidate(
        self,
        generation: int,
        certify: Optional[Callable[[CacheEntry], bool]] = None,
    ) -> int:
        """Sweep the cache after a live-generation bump.

        Entries already at ``generation`` are kept as-is.  Older
        entries are re-keyed to ``generation`` when they are
        ``static_ok`` *and* ``certify(entry)`` proves the static answer
        exact under the new patch-set; every other entry is evicted.
        With no ``certify`` (or for non-certifiable entries) the
        generation key mismatch is the conservative fallback — the
        entry is dropped.  Returns the number of invalidated entries.
        """
        with self._lock:
            retained: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
            invalidated = 0
            for key, entry in self._entries.items():
                if key.live_generation == generation:
                    retained[key] = entry
                    continue
                if (
                    entry.static_ok
                    and certify is not None
                    and certify(entry)
                ):
                    retained[key._replace(live_generation=generation)] = entry
                else:
                    invalidated += 1
            self._entries = retained
            self.stats.invalidations += invalidated
            return invalidated

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict:
        """Flat counter dict matching the scoreboard field names."""
        return {
            "cache_hits": self.stats.hits,
            "cache_misses": self.stats.misses,
            "cache_evictions": self.stats.evictions,
            "cache_invalidations": self.stats.invalidations,
        }

    def snapshot(self) -> dict:
        """JSON-safe state for ``/metrics`` and ``/resilience``."""
        return {
            "capacity": self.capacity,
            "bucket_s": self.bucket_s,
            "size": len(self._entries),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "invalidations": self.stats.invalidations,
            "hit_rate": round(self.stats.hit_rate, 4),
        }
