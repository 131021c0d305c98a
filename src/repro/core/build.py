"""IndexBuild — TTL index construction (Section 5, Algorithm 3).

Nodes are processed from highest rank to lowest.  For the node ``h`` of
rank ``i`` the builder derives every canonical path that starts or ends
at ``h`` while avoiding work on paths that cannot be canonical:

* **Rank restriction** — searches never enter nodes ranked higher than
  ``h`` (they were processed earlier and removed from ``G_i``), so the
  Rank Constraint of Definition 5 holds by construction.
* **Self pruning** (Observations 1-2) — departure times of ``h`` are
  swept in descending order; a freshly found path to ``v`` is kept only
  if it arrives strictly earlier than every path found with a later
  departure, enforcing the Dominance Constraint incrementally.
* **Hub-cover pruning** (Algorithm 3, lines 31-32) — a path dominated
  (weakly, ``⊆``-interval) by a label pair through an earlier, higher
  ranked hub is discarded, and the search does not expand through it:
  any extension would be dominated through the same hub.

The backward half mirrors this with latest-departure sweeps over
``h``'s arrival times (Lemma 7), filling out-label sets.

:func:`build_index_brute_force` is Appendix D.2's baseline: full
temporal Dijkstra from every node and departure time, canonical paths
filtered afterwards by inspecting each path's highest-ranked node.  It
produces an equivalent index at far greater cost (Figure 8).
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.label import LabelGroup
from repro.core.order import (
    approximation_order,
    betweenness_order,
    degree_order,
    hub_order,
    random_order,
)
from repro.errors import IndexBuildError
from repro.graph.timetable import TimetableGraph
from repro.timeutil import INF, NEG_INF

OrderSpec = Union[str, Sequence[int], Callable[[TimetableGraph], List[int]]]


@dataclass
class BuildStats:
    """Bookkeeping from one index construction run."""

    seconds: float = 0.0
    order_seconds: float = 0.0
    num_labels: int = 0
    forward_pops: int = 0
    backward_pops: int = 0
    cover_pruned: int = 0
    #: Always 0 (dominance is enforced at push time); the footer stores it.
    dominance_pruned: int = 0
    dijkstra_runs: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def resolve_order(graph: TimetableGraph, order: OrderSpec) -> List[int]:
    """Turn an order specification into a rank array.

    Accepts the strings ``"hub"`` (H-Order, the default everywhere),
    ``"random"``, ``"degree"``, ``"betweenness"``, ``"approx"``
    (A-Order), an explicit rank array, or a callable
    ``graph -> ranks``.
    """
    if callable(order):
        ranks = list(order(graph))
    elif isinstance(order, str):
        if order == "hub":
            ranks = hub_order(graph)
        elif order == "random":
            ranks = random_order(graph)
        elif order == "degree":
            ranks = degree_order(graph)
        elif order == "betweenness":
            ranks = betweenness_order(graph)
        elif order == "approx":
            ranks = approximation_order(graph)
        else:
            raise IndexBuildError(f"unknown order spec: {order!r}")
    else:
        ranks = list(order)
    if sorted(ranks) != list(range(graph.n)):
        raise IndexBuildError("ranks must be a permutation of 0..n-1")
    return ranks


def _pair_covers(
    out_group: LabelGroup, in_group: LabelGroup, dep: int, arr: int
) -> bool:
    """Can labels through this hub weakly dominate ``(dep, arr)``?

    ``out_group`` holds src->hub pairs, ``in_group`` hub->dst pairs,
    both strict Pareto frontiers sorted ascending.  The cheapest viable
    combination uses the earliest-arriving src->hub label departing no
    sooner than ``dep``; thanks to Pareto sortedness that is simply the
    first label at/after ``dep``.
    """
    i = bisect_left(out_group.deps, dep)
    if i == len(out_group.deps):
        return False
    mid = out_group.arrs[i]
    j = bisect_left(in_group.deps, mid)
    if j == len(in_group.deps):
        return False
    return in_group.arrs[j] <= arr


def _covered(
    src_out: Dict[int, LabelGroup],
    dst_in: Dict[int, LabelGroup],
    dep: int,
    arr: int,
) -> bool:
    """Hub-cover check: is some label pair weakly dominating (dep, arr)?

    Iterates the smaller of the two hub maps, looking up the other.
    """
    if len(src_out) <= len(dst_in):
        for hub, out_group in src_out.items():
            in_group = dst_in.get(hub)
            if in_group is not None and _pair_covers(
                out_group, in_group, dep, arr
            ):
                return True
    else:
        for hub, in_group in dst_in.items():
            out_group = src_out.get(hub)
            if out_group is not None and _pair_covers(
                out_group, in_group, dep, arr
            ):
                return True
    return False


class _Builder:
    """Mutable state shared by the per-hub phases.

    Two table pairs are distinguished so the parallel build farm can
    reuse the phases unchanged:

    * ``in_groups`` / ``out_groups`` — the **emission** tables new
      labels are appended to;
    * ``prune_in`` / ``prune_out`` — the **pruning state** the
      hub-cover checks consult.

    The serial build passes nothing and both pairs are the *same*
    objects (labels become pruning state the moment they are emitted —
    Algorithm 3's behavior).  A farm worker instead points the pruning
    pair at its read-only mirror of the committed prefix and keeps
    emissions separate, so candidates never leak into its own cover
    checks; the emission entries are inert for the current hub either
    way because ``L_out(h)`` / ``L_in(h)`` never contain ``h`` itself.
    """

    def __init__(
        self,
        graph: TimetableGraph,
        ranks: List[int],
        prune_cover: bool,
        prune_in: Optional[List[Dict[int, LabelGroup]]] = None,
        prune_out: Optional[List[Dict[int, LabelGroup]]] = None,
    ) -> None:
        self.graph = graph
        self.ranks = ranks
        self.prune_cover = prune_cover
        n = graph.n
        self.in_groups: List[Dict[int, LabelGroup]] = [dict() for _ in range(n)]
        self.out_groups: List[Dict[int, LabelGroup]] = [dict() for _ in range(n)]
        self.prune_in = prune_in if prune_in is not None else self.in_groups
        self.prune_out = (
            prune_out if prune_out is not None else self.out_groups
        )
        self.stats = BuildStats()
        # Per-search stamped scratch arrays (reset-free Dijkstra).
        self._stamp = [0] * n
        self._gen = 0
        self._dist = [0] * n
        self._trip: List[Optional[int]] = [None] * n
        self._pivot: List[Optional[int]] = [None] * n

    # ------------------------------------------------------------------
    # Forward phase: canonical paths h -> v, labels into L_in(v)
    # ------------------------------------------------------------------

    def forward_phase(self, h: int) -> List[Tuple[int, LabelGroup]]:
        """Run the forward phase of ``h``; returns the ``(node, group)``
        pairs created (ascending-departure order restored)."""
        graph = self.graph
        ranks = self.ranks
        rank_h = ranks[h]
        out_edges = graph.out_edges
        in_groups = self.in_groups
        prune_in = self.prune_in
        out_map_h = self.prune_out[h]
        prune_cover = self.prune_cover
        stats = self.stats

        best_arr = [INF] * graph.n
        stamp, dist = self._stamp, self._dist
        trip_of, pivot_of = self._trip, self._pivot
        touched: List[Tuple[int, LabelGroup]] = []

        for t_d in reversed(graph.departure_times(h)):
            self._gen += 1
            gen = self._gen
            stats.dijkstra_runs += 1
            heap: List = []
            # Seed only with connections departing exactly at t_d
            # (Observation 1 / Lemma 6): later departures were swept in
            # earlier iterations, so a later ``best[k]`` arrives no
            # sooner than ``best_arr[v]`` and is skipped below.
            for v, deps, best in out_edges[h]:
                k = bisect_left(deps, t_d)
                if ranks[v] <= rank_h or k == len(deps) or deps[k] != t_d:
                    continue
                c = best[k]
                if c.arr >= best_arr[v]:
                    continue
                if stamp[v] != gen or c.arr < dist[v]:
                    dist[v] = c.arr
                    stamp[v] = gen
                    trip_of[v] = c.trip
                    pivot_of[v] = None
                    heapq.heappush(heap, (c.arr, v))

            while heap:
                arr_v, v = heapq.heappop(heap)
                if stamp[v] != gen or arr_v != dist[v]:
                    continue
                best_arr[v] = arr_v
                stats.forward_pops += 1
                if prune_cover and _covered(out_map_h, prune_in[v], t_d, arr_v):
                    stats.cover_pruned += 1
                    continue
                group = in_groups[v].get(h)
                if group is None:
                    group = in_groups[v][h] = LabelGroup(h, rank_h)
                    touched.append((v, group))
                group.append(t_d, arr_v, trip_of[v], pivot_of[v])

                trip_v = trip_of[v]
                pivot_v = pivot_of[v]
                pivot_if_via_v = (
                    v
                    if pivot_v is None or ranks[v] < ranks[pivot_v]
                    else pivot_v
                )
                for w, deps, best in out_edges[v]:
                    if ranks[w] <= rank_h:
                        continue
                    idx = bisect_left(deps, arr_v)
                    if idx == len(deps):
                        continue
                    c = best[idx]
                    na = c.arr
                    if na >= best_arr[w]:
                        continue
                    if stamp[w] != gen or na < dist[w]:
                        dist[w] = na
                        stamp[w] = gen
                        trip_of[w] = c.trip if trip_v == c.trip else None
                        pivot_of[w] = pivot_if_via_v
                        heapq.heappush(heap, (na, w))

        # Phase appended labels in descending departure order; flip to
        # the ascending order the index requires.
        for _, group in touched:
            group.reverse()
        return touched

    # ------------------------------------------------------------------
    # Backward phase: canonical paths v -> h, labels into L_out(v)
    # ------------------------------------------------------------------

    def backward_phase(self, h: int) -> List[Tuple[int, LabelGroup]]:
        """Run the backward phase of ``h``; returns the ``(node, group)``
        pairs created (already in ascending-departure order)."""
        graph = self.graph
        ranks = self.ranks
        rank_h = ranks[h]
        inc_edges = graph.inc_edges
        out_groups = self.out_groups
        prune_out = self.prune_out
        in_map_h = self.prune_in[h]
        prune_cover = self.prune_cover
        stats = self.stats

        best_dep = [NEG_INF] * graph.n
        stamp, dist = self._stamp, self._dist
        trip_of, pivot_of = self._trip, self._pivot
        touched: List[Tuple[int, LabelGroup]] = []

        for t_a in graph.arrival_times(h):
            self._gen += 1
            gen = self._gen
            stats.dijkstra_runs += 1
            heap: List = []
            # Mirror of the forward seeding: an earlier ``best[k - 1]``
            # departs no later than ``best_dep[x]``.
            for x, arrs, best in inc_edges[h]:
                k = bisect_right(arrs, t_a)
                if ranks[x] <= rank_h or not k or arrs[k - 1] != t_a:
                    continue
                c = best[k - 1]
                if c.dep <= best_dep[x]:
                    continue
                if stamp[x] != gen or c.dep > dist[x]:
                    dist[x] = c.dep
                    stamp[x] = gen
                    trip_of[x] = c.trip
                    pivot_of[x] = None
                    heapq.heappush(heap, (-c.dep, x))

            while heap:
                neg_dep, v = heapq.heappop(heap)
                dep_v = -neg_dep
                if stamp[v] != gen or dep_v != dist[v]:
                    continue
                best_dep[v] = dep_v
                stats.backward_pops += 1
                if prune_cover and _covered(
                    prune_out[v], in_map_h, dep_v, t_a
                ):
                    stats.cover_pruned += 1
                    continue
                group = out_groups[v].get(h)
                if group is None:
                    group = out_groups[v][h] = LabelGroup(h, rank_h)
                    touched.append((v, group))
                # Ascending arrival sweep appends in ascending departure
                # order already; no reversal needed.
                group.append(dep_v, t_a, trip_of[v], pivot_of[v])

                trip_v = trip_of[v]
                pivot_v = pivot_of[v]
                pivot_if_via_v = (
                    v
                    if pivot_v is None or ranks[v] < ranks[pivot_v]
                    else pivot_v
                )
                for x, arrs, best in inc_edges[v]:
                    if ranks[x] <= rank_h:
                        continue
                    idx = bisect_right(arrs, dep_v)
                    if not idx:
                        continue
                    c = best[idx - 1]
                    nd = c.dep
                    if nd <= best_dep[x]:
                        continue
                    if stamp[x] != gen or nd > dist[x]:
                        dist[x] = nd
                        stamp[x] = gen
                        trip_of[x] = c.trip if trip_v == c.trip else None
                        pivot_of[x] = pivot_if_via_v
                        heapq.heappush(heap, (-nd, x))

        return touched


def build_index(
    graph: TimetableGraph,
    order: OrderSpec = "hub",
    prune_cover: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
):
    """Construct a TTL index (Algorithm 3).

    Args:
        graph: the timetable graph.
        order: node-order specification (see :func:`resolve_order`).
        prune_cover: disable only for the pruning ablation; the index
            stays correct either way but grows and builds slower.
        progress: optional callback invoked after each hub's phases as
            ``progress(hubs_done, total_hubs)`` (long builds on large
            networks take minutes; this feeds the CLI's progress line).

    Returns:
        A sealed :class:`~repro.core.index.TTLIndex`.
    """
    from repro.core.index import TTLIndex

    start = time.perf_counter()
    ranks = resolve_order(graph, order)
    order_seconds = time.perf_counter() - start

    builder = _Builder(graph, ranks, prune_cover)
    nodes_by_rank = sorted(range(graph.n), key=lambda v: ranks[v])
    for done, h in enumerate(nodes_by_rank, start=1):
        builder.forward_phase(h)
        builder.backward_phase(h)
        if progress is not None:
            progress(done, graph.n)

    stats = builder.stats
    stats.order_seconds = order_seconds
    stats.seconds = time.perf_counter() - start
    index = TTLIndex(
        graph, ranks, builder.in_groups, builder.out_groups, stats
    )
    stats.num_labels = index.num_labels
    return index


def build_index_brute_force(graph: TimetableGraph, order: OrderSpec = "hub"):
    """Appendix D.2's baseline: unpruned construction.

    Runs a *full-graph* temporal Dijkstra from every node for every
    distinct departure time, materializes each non-dominated path, and
    keeps it only when its highest-ranked node is an endpoint (the Rank
    Constraint, checked after the fact instead of during the search).
    """
    from repro.algorithms.temporal_dijkstra import earliest_arrival_search
    from repro.core.index import TTLIndex

    start = time.perf_counter()
    ranks = resolve_order(graph, order)
    order_seconds = time.perf_counter() - start

    n = graph.n
    in_groups: List[Dict[int, LabelGroup]] = [dict() for _ in range(n)]
    out_groups: List[Dict[int, LabelGroup]] = [dict() for _ in range(n)]
    stats = BuildStats()

    for u in range(n):
        best_arr = [INF] * n
        rank_u = ranks[u]
        for t_d in reversed(graph.departure_times(u)):
            stats.dijkstra_runs += 1
            eat, parent = earliest_arrival_search(graph, u, t_d)
            for v in range(n):
                if v == u or eat[v] >= INF or eat[v] >= best_arr[v]:
                    continue
                best_arr[v] = eat[v]
                stats.forward_pops += 1
                # Materialize the path to find its pivot and vehicle.
                conn = parent[v]
                pivot: Optional[int] = None
                trip: Optional[int] = conn.trip
                max_rank_node = v if ranks[v] < rank_u else u
                ok = True
                while conn is not None:
                    if conn.trip != trip:
                        trip = None
                    x = conn.u
                    if x == u:
                        break
                    if ranks[x] < ranks[max_rank_node]:
                        ok = False
                        break
                    if pivot is None or ranks[x] < ranks[pivot]:
                        pivot = x
                    conn = parent[x]
                if not ok:
                    continue  # Rank Constraint violated: not canonical.
                if rank_u < ranks[v]:
                    table, key, hub, hub_rank = in_groups[v], v, u, rank_u
                else:
                    table, key, hub, hub_rank = out_groups[u], u, v, ranks[v]
                group = table.get(hub)
                if group is None:
                    group = table[hub] = LabelGroup(hub, hub_rank)
                group.append(t_d, eat[v], trip, pivot)

    for table in (*in_groups, *out_groups):
        for group in table.values():
            group.reverse()

    stats.order_seconds = order_seconds
    stats.seconds = time.perf_counter() - start
    index = TTLIndex(graph, ranks, in_groups, out_groups, stats)
    stats.num_labels = index.num_labels
    return index
