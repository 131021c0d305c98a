"""Cross-region query stitching: the hub-label join between shards.

A federated query ``u -> v`` decomposes at the region boundary.  Any
journey that changes region has a *first* cut connection — its tail
``b1`` is a border stop in ``u``'s region, and everything before it is
internal to that region — and a *last* cut connection whose head
``b2`` is a border stop in ``v``'s region, with everything after it
internal there.  The section between ``b1`` and ``b2`` may wander the
whole network, which is exactly what the border mini-index covers.
The stitched answer is therefore the three-way join

    local-labels(u, b1)  ⋈  border-index(b1, b2)  ⋈  local-labels(b2, v)

with dominance filtering at the seam, and it is **exact**:

* **EAP** composes forward through the two seams by monotonicity
  (leaving earlier never arrives later):
  ``arr = min_b2 localB.eap(b2, v, min_b1 border.eap(b1, b2,
  localA.eap(u, b1, t)))``.
* **LDP** is the mirror image, composed backward.
* **Profile** enumerates candidate departures from the *local* Pareto
  profiles ``u -> b1`` (their departures are the journeys' actual
  departures), pushes each through the EAP composition, and
  Pareto-filters; every candidate is realizable and every monolithic
  Pareto pair is matched (a candidate that weakly dominates a
  realizable non-dominated pair must equal it), so the stitched pair
  set is byte-identical to the monolithic profile.

Intra-region queries are *also* exact without leaving the worker: a
journey between two stations of region ``A`` either stays internal
(the local shard answers it) or leaves and re-enters through border
stops of ``A`` on both sides — the same stitch, joined entirely
against the worker's own shard plus the shared border index.  The
final answer is the dominance merge of both, so an intra-region query
never touches another shard (no fan-out), yet still matches the
monolith even when the optimal route detours through a neighboring
region.

EAP/LDP answers are returned as the canonical Pareto corner: the
arrival is computed first, then the departure as the latest departure
achieving it (and vice versa for LDP).  Monolithic planners tie-break
departures by hub order, which is index-layout-dependent; the
federation returns the well-defined corner instead, so its EAP
arrivals / LDP departures — the optimized quantities — always equal
the monolith's.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.profiles import ParetoProfile
from repro.core.metrics import QueryMetrics
from repro.core.order import graph_digest
from repro.core.queries import TTLPlanner
from repro.core.serialize import load_index
from repro.errors import FederationError
from repro.federation.border import BorderIndex
from repro.federation.manifest import FederationManifest
from repro.graph.timetable import TimetableGraph
from repro.graph.transforms import induced_subgraph
from repro.journey import Journey
from repro.planner import RoutePlanner
from repro.query import QueryRequest
from repro.timeutil import INF, NEG_INF


class RegionShard:
    """One region's local planner, queried with *global* station ids.

    ``stops`` is the sorted global-id list from the manifest; local id
    ``i`` is the i-th stop, which is exactly the id assignment
    :func:`~repro.graph.transforms.induced_subgraph` makes, so a shard
    built at federation time and one reloaded from the manifest agree.
    """

    def __init__(
        self,
        region: int,
        stops: Sequence[int],
        graph: TimetableGraph,
        index=None,
        planner: Optional[TTLPlanner] = None,
    ) -> None:
        if graph.n != len(stops):
            raise FederationError(
                f"region {region}: shard graph has {graph.n} stations "
                f"but the manifest lists {len(stops)} stops"
            )
        self.region = region
        self.stops = list(stops)
        self.graph = graph
        self._local = {g: i for i, g in enumerate(self.stops)}
        self.planner = planner or TTLPlanner(graph, index=index)

    @property
    def index(self):
        return self.planner.index

    def has(self, station: int) -> bool:
        return station in self._local

    def local(self, station: int) -> int:
        try:
            return self._local[station]
        except KeyError:
            raise FederationError(
                f"station {station} is not in region {self.region}"
            ) from None

    # Value-level queries (global ids in, plain times out).  All three
    # go through the planner's unified ``plan`` entry point — the shard
    # never names a query method.

    def eap_value(self, u: int, v: int, t: int) -> int:
        result = self.planner.plan(
            QueryRequest("eap", self.local(u), self.local(v), t=t)
        )
        return result.journey.arr if result.journey is not None else INF

    def ldp_value(self, u: int, v: int, t: int) -> int:
        result = self.planner.plan(
            QueryRequest("ldp", self.local(u), self.local(v), t_end=t)
        )
        return (
            result.journey.dep if result.journey is not None else NEG_INF
        )

    def profile_pairs(
        self, u: int, v: int, t: int, t_end: int
    ) -> List[Tuple[int, int]]:
        result = self.planner.plan(
            QueryRequest(
                "profile", self.local(u), self.local(v), t=t, t_end=t_end
            )
        )
        return [tuple(pair) for pair in result.pairs]


class FederatedPlanner(RoutePlanner):
    """Exact EAP/LDP/SDP/profile over a federation of region shards.

    ``shards`` may hold every region (the in-process / CLI view) or a
    single one (a serving worker, which stitches intra-region queries
    itself and exposes the seam primitives for the router to join
    cross-region queries across workers).  Queries touching a region
    that is not loaded raise :class:`FederationError`.
    """

    name = "TTL-fed"

    def __init__(
        self,
        graph: TimetableGraph,
        manifest: FederationManifest,
        shards: Dict[int, RegionShard],
        border: BorderIndex,
    ) -> None:
        super().__init__(graph)
        self.manifest = manifest
        self.shards = shards
        self.border = border
        self.borders_by_region = manifest.borders_by_region()
        self.metrics = QueryMetrics()
        #: Query-routing counters (benchmarks read these).
        self.intra_queries = 0
        self.cross_queries = 0

    # ------------------------------------------------------------------
    # RoutePlanner lifecycle
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for shard in self.shards.values():
            shard.planner.preprocess()

    def index_bytes(self) -> int:
        self.preprocess()
        return (
            sum(s.planner.index_bytes() for s in self.shards.values())
            + self.border.nbytes()
        )

    def store_bytes(self) -> int:
        """Retained bytes of the loaded shards + border index (the
        per-worker memory bound the benchmark verifies)."""
        total = self.border.nbytes()
        for shard in self.shards.values():
            index = shard.index
            if index is not None:
                total += index.store_bytes()
        return total

    # ------------------------------------------------------------------
    # Region plumbing
    # ------------------------------------------------------------------

    def region(self, station: int) -> int:
        return self.manifest.stop_region(station)

    def _shard(self, region: int) -> RegionShard:
        shard = self.shards.get(region)
        if shard is None:
            raise FederationError(
                f"region {region} is not loaded in this planner "
                f"(loaded: {sorted(self.shards)})"
            )
        return shard

    # ------------------------------------------------------------------
    # Seam primitives (one shard each — a worker can run any of them;
    # the router chains out -> close across two workers)
    # ------------------------------------------------------------------

    def reach_out(
        self, u: int, t: int, target_region: int
    ) -> Dict[int, int]:
        """Earliest arrival at each border stop of ``target_region``
        for a journey leaving ``u`` no sooner than ``t`` (source-shard
        labels joined with the border index)."""
        region = self.region(u)
        shard = self._shard(region)
        t1 = {}
        for b1 in self.borders_by_region[region]:
            arr = shard.eap_value(u, b1, t)
            if arr < INF:
                t1[b1] = arr
        out: Dict[int, int] = {}
        for b2 in self.borders_by_region[target_region]:
            best = INF
            for b1, arr in t1.items():
                cand = arr if b1 == b2 else self.border.eap(b1, b2, arr)
                if cand < best:
                    best = cand
            if best < INF:
                out[b2] = best
        return out

    def eap_close(self, v: int, t2: Dict[int, int]) -> int:
        """Finish an EAP stitch on ``v``'s shard: earliest arrival at
        ``v`` over the border arrivals ``t2``."""
        shard = self._shard(self.region(v))
        best = INF
        for b2, t in t2.items():
            arr = shard.eap_value(b2, v, t)
            if arr < best:
                best = arr
        return best

    def reach_back(
        self, v: int, t: int, source_region: int
    ) -> Dict[int, int]:
        """LDP mirror of :meth:`reach_out`: latest departure from each
        border stop of ``source_region`` that still reaches ``v`` by
        ``t`` (target-shard labels joined with the border index)."""
        region = self.region(v)
        shard = self._shard(region)
        s2 = {}
        for b2 in self.borders_by_region[region]:
            dep = shard.ldp_value(b2, v, t)
            if dep > NEG_INF:
                s2[b2] = dep
        out: Dict[int, int] = {}
        for b1 in self.borders_by_region[source_region]:
            best = NEG_INF
            for b2, dep in s2.items():
                cand = dep if b1 == b2 else self.border.ldp(b1, b2, dep)
                if cand > best:
                    best = cand
            if best > NEG_INF:
                out[b1] = best
        return out

    def ldp_close(self, u: int, s1: Dict[int, int]) -> int:
        """Finish an LDP stitch on ``u``'s shard."""
        shard = self._shard(self.region(u))
        best = NEG_INF
        for b1, t in s1.items():
            dep = shard.ldp_value(u, b1, t)
            if dep > best:
                best = dep
        return best

    def profile_out(
        self, u: int, t: int, t_end: int, target_region: int
    ) -> List[Tuple[int, int, int]]:
        """Profile candidates ``(dep, b2, arr_at_b2)`` reaching the
        border of ``target_region``, Pareto-pruned per border stop.

        Candidate departures come from the local Pareto profiles
        ``u -> b1`` — or, when ``u`` is itself a border stop, from the
        border profiles directly (the local profile of ``u -> u``
        cannot enumerate departures).
        """
        region = self.region(u)
        shard = self._shard(region)
        per_b2: Dict[int, ParetoProfile] = {}
        targets = self.borders_by_region[target_region]
        for b1 in self.borders_by_region[region]:
            if b1 == u:
                for b2 in targets:
                    profile = None
                    for dep, a2 in self.border.pairs(u, b2, t, t_end):
                        if profile is None:
                            profile = per_b2.setdefault(
                                b2, ParetoProfile()
                            )
                        profile.add(dep, a2)
                continue
            base = shard.profile_pairs(u, b1, t, t_end)
            if not base:
                continue
            for b2 in targets:
                profile = per_b2.setdefault(b2, ParetoProfile())
                for dep, a1 in base:
                    a2 = a1 if b1 == b2 else self.border.eap(b1, b2, a1)
                    if a2 < INF:
                        profile.add(dep, a2)
        return [
            (dep, b2, a2)
            for b2, profile in sorted(per_b2.items())
            for dep, a2 in profile
        ]

    def profile_close(
        self,
        v: int,
        t_end: int,
        candidates: Iterable[Tuple[int, int, int]],
        seed_pairs: Iterable[Tuple[int, int]] = (),
    ) -> List[Tuple[int, int]]:
        """Finish a profile stitch on ``v``'s shard: push every
        candidate through the local suffix and dominance-filter,
        merged with ``seed_pairs`` (the local profile, for intra-region
        queries)."""
        shard = self._shard(self.region(v))
        profile = ParetoProfile(seed_pairs)
        for dep, b2, a2 in candidates:
            arr = shard.eap_value(b2, v, a2)
            if arr < INF and arr <= t_end:
                profile.add(dep, arr)
        return profile.pairs()

    # ------------------------------------------------------------------
    # Value-level stitched queries
    # ------------------------------------------------------------------

    def _eap_value(self, u: int, v: int, t: int) -> int:
        region_u, region_v = self.region(u), self.region(v)
        stitched = self.eap_close(v, self.reach_out(u, t, region_v))
        if region_u != region_v:
            return stitched
        return min(stitched, self._shard(region_u).eap_value(u, v, t))

    def _ldp_value(self, u: int, v: int, t: int) -> int:
        region_u, region_v = self.region(u), self.region(v)
        stitched = self.ldp_close(u, self.reach_back(v, t, region_u))
        if region_u != region_v:
            return stitched
        return max(stitched, self._shard(region_u).ldp_value(u, v, t))

    def _profile_pairs(
        self, u: int, v: int, t: int, t_end: int
    ) -> List[Tuple[int, int]]:
        region_u, region_v = self.region(u), self.region(v)
        candidates = self.profile_out(u, t, t_end, region_v)
        seed: Iterable[Tuple[int, int]] = ()
        if region_u == region_v:
            seed = self._shard(region_u).profile_pairs(u, v, t, t_end)
        return self.profile_close(v, t_end, candidates, seed_pairs=seed)

    def _count(self, u: int, v: int) -> None:
        self.metrics.queries += 1
        if self.region(u) == self.region(v):
            self.intra_queries += 1
        else:
            self.cross_queries += 1

    # ------------------------------------------------------------------
    # RoutePlanner queries
    # ------------------------------------------------------------------

    def earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        self.preprocess()
        self._count(source, destination)
        arr = self._eap_value(source, destination, t)
        if arr >= INF:
            return None
        dep = self._ldp_value(source, destination, arr)
        return Journey(source, destination, dep, arr)

    def latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        self.preprocess()
        self._count(source, destination)
        dep = self._ldp_value(source, destination, t)
        if dep <= NEG_INF:
            return None
        arr = self._eap_value(source, destination, dep)
        return Journey(source, destination, dep, arr)

    def shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        self._check_query(source, destination)
        self._check_window(t, t_end)
        if source == destination:
            return Journey(source, destination, t, t, path=[])
        self.preprocess()
        self._count(source, destination)
        best = ParetoProfile(
            self._profile_pairs(source, destination, t, t_end)
        ).best_duration(t, t_end)
        if best is None:
            return None
        dep, arr, _ = best
        return Journey(source, destination, dep, arr)

    def profile(
        self, source: int, destination: int, t: int, t_end: int
    ) -> List[Tuple[int, int]]:
        """All non-dominated ``(dep, arr)`` journeys in the window —
        byte-identical to the monolithic index's profile."""
        self._check_query(source, destination)
        self._check_window(t, t_end)
        if source == destination:
            return [(t, t)]
        self.preprocess()
        self._count(source, destination)
        return self._profile_pairs(source, destination, t, t_end)

    def one_to_many(
        self, source: int, targets: Iterable[int], t: int
    ) -> Dict[int, Optional[int]]:
        """Federated one-to-many earliest arrivals (matches a
        ``one_to_many`` :func:`repro.core.batch.batch_plan` answer)."""
        self._check_query(source, source)
        self.preprocess()
        result: Dict[int, Optional[int]] = {}
        for target in targets:
            self._check_query(source, target)
            if target == source:
                result[target] = t
                continue
            self._count(source, target)
            arr = self._eap_value(source, target, t)
            result[target] = arr if arr < INF else None
        return result


def load_federation(
    manifest_path: str,
    graph: TimetableGraph,
    regions: Optional[Iterable[int]] = None,
    mmap: bool = False,
    verify: bool = True,
) -> FederatedPlanner:
    """Load a federation directory into a :class:`FederatedPlanner`.

    Args:
        manifest_path: the ``federation.json`` written by
            :func:`repro.federation.build.build_federation`.
        graph: the full timetable the federation was built for (its
            digest is checked against the manifest).
        regions: restrict to these region shards (a serving worker
            passes its own region); default loads every shard.
        mmap: memory-map the shard files (zero-copy TTLIDX03 load).
        verify: re-hash every shard + the border index against the
            manifest before loading (a worker behind a supervisor that
            already verified passes ``False``).
    """
    manifest = FederationManifest.load(manifest_path)
    manifest.check_graph(graph_digest(graph))
    if verify:
        manifest.verify_files()
    with open(manifest.resolve(manifest.border_path)) as fh:
        border = BorderIndex.from_json(fh.read())
    wanted = set(regions) if regions is not None else None
    shards: Dict[int, RegionShard] = {}
    for entry in manifest.regions:
        if wanted is not None and entry.region not in wanted:
            continue
        sub, _ = induced_subgraph(graph, entry.stops)
        index = load_index(
            manifest.resolve(entry.path), sub, mmap=mmap, verify=False
        )
        shards[entry.region] = RegionShard(
            entry.region, entry.stops, sub, index=index
        )
    if wanted is not None and wanted != set(shards):
        raise FederationError(
            f"regions {sorted(wanted - set(shards))} not in the "
            f"manifest (it has 0..{manifest.num_regions - 1})"
        )
    return FederatedPlanner(graph, manifest, shards, border)
