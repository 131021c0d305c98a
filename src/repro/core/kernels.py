"""Vectorized label-scan kernels over the sealed int64 columns.

The flat :class:`~repro.core.store.LabelStore` (PR 2) and the TTLIDX03
raw-int64 mmap blobs (PR 5) keep every label column contiguous exactly
so label scans can stop being per-label Python loops.  This module is
where that pays off: every kernel operates on **zero-copy**
``numpy.int64`` views of the sealed columns (``np.frombuffer`` over
heap ``array('q')`` columns, ``np.asarray`` over the ``'q'``-cast
memoryviews of a mapped store — see
:meth:`~repro.core.store.LabelStore.ndarray_columns`), replacing the
selector loops with ``searchsorted`` window selection and per-group
``minimum.reduceat``/``maximum.reduceat`` reductions.

Correctness is anchored to the scalar selectors in
:mod:`repro.core.sketch`, which remain the oracle:

* the per-hub reductions compute exactly the candidate each scalar
  bisection pair finds (within a group ``deps``/``arrs`` both ascend,
  so "first label with ``dep >= t``" *is* "min ``arr`` among
  ``dep >= t``");
* the winning candidate is then chosen by walking the same
  rank-ordered group merge (:func:`_iter_merge` mirrors
  ``sketch._merge_groups``) with the same strict comparisons, so
  tie-breaks — and therefore journeys — are byte-identical;
* profile enumeration generates **all** window combinations and
  Pareto-filters them columnar; the scalar generator's incremental
  suppression only ever drops weakly-dominated pairs, so the final
  frontier is provably the same set.

Set ``REPRO_SCALAR_KERNELS=1`` to force the scalar paths (the
equality gate in tests and CI diffes the two).  When numpy is absent
the kernels degrade to the scalar paths with a one-time log warning.

Assumption shared with the rest of the store layer: label groups are
never empty (the builder only seals groups with at least one label).
Nodes with no groups are handled explicitly.
"""

from __future__ import annotations

import logging
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.metrics import QueryMetrics
from repro.timeutil import INF, NEG_INF

try:  # pragma: no cover - exercised by the numpy-absent degrade test
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

logger = logging.getLogger(__name__)

#: Environment switch forcing the scalar (oracle) paths.
SCALAR_ENV = "REPRO_SCALAR_KERNELS"

#: Point and profile queries over fewer labels than this stay scalar:
#: a handful of bisections beats the fixed cost of ~20 numpy
#: dispatches.  Batch one-to-all passes use their own break-even
#: (``use_for_one_to_all``), but honor 0 as the same force switch.
#: Override with REPRO_KERNEL_MIN_LABELS (0 forces vectorized).
POINT_MIN_LABELS_ENV = "REPRO_KERNEL_MIN_LABELS"
_DEFAULT_POINT_MIN_LABELS = 4096

_warned_absent = False


def _scalar_forced() -> bool:
    return os.environ.get(SCALAR_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def vectorized_available() -> bool:
    """True when the numpy kernels may be used at all."""
    global _warned_absent
    if _scalar_forced():
        return False
    if np is None:
        if not _warned_absent:
            _warned_absent = True
            logger.warning(
                "numpy is not installed; repro.core.kernels degrades to "
                "the scalar label-scan paths (install numpy>=1.22 for "
                "vectorized queries)"
            )
        return False
    return True


def point_min_labels() -> int:
    """Label-count threshold below which point queries stay scalar."""
    raw = os.environ.get(POINT_MIN_LABELS_ENV)
    if raw is None:
        return _DEFAULT_POINT_MIN_LABELS
    try:
        return max(0, int(raw))
    except ValueError:
        return _DEFAULT_POINT_MIN_LABELS


def use_for_point(index, u: int, v: int) -> bool:
    """Dispatch decision for one point query on ``index``."""
    if not vectorized_available():
        return False
    return (
        index.out_label_count(u) + index.in_label_count(v)
        >= point_min_labels()
    )


def use_for_one_to_all(index, num_targets: int) -> bool:
    """Dispatch decision for one one-to-many/matrix-row pass.

    The one-to-all kernel costs one columnar sweep over the *entire*
    in-store regardless of how many targets the caller wants; the
    scalar path costs one pair merge per target.  Per-node label
    counts are roughly uniform, so the break-even is a fixed fraction
    of the station count.  ``REPRO_KERNEL_MIN_LABELS=0`` (the test
    force switch) also forces this path.
    """
    if not vectorized_available():
        return False
    if point_min_labels() == 0:
        return True
    return 4 * num_targets >= index.graph.n


# ----------------------------------------------------------------------
# Column-extent plumbing
# ----------------------------------------------------------------------


class _Side:
    """The ndarray views and one node's extents on one store side."""

    __slots__ = (
        "nd", "g0", "g1", "lo", "hi", "deps", "arrs",
        "hubs", "ranks", "starts_rel", "sizes",
    )

    def __init__(self, store, node: int) -> None:
        nd = store.ndarray_columns()
        self.nd = nd
        g0, g1 = store.node_group_extent(node)
        self.g0 = g0
        self.g1 = g1
        gs = nd["group_starts"][g0:g1 + 1]
        lo = int(gs[0]) if g1 > g0 else 0
        hi = int(gs[-1]) if g1 > g0 else 0
        self.lo = lo
        self.hi = hi
        self.deps = nd["deps"][lo:hi]
        self.arrs = nd["arrs"][lo:hi]
        self.hubs = nd["hubs"][g0:g1]
        self.ranks = nd["group_ranks"][g0:g1]
        self.starts_rel = gs[:-1] - lo if g1 > g0 else gs[:0]
        self.sizes = np.diff(gs) if g1 > g0 else gs[:0]

    def __len__(self) -> int:
        return self.g1 - self.g0

    @property
    def num_labels(self) -> int:
        return self.hi - self.lo

    def group_slice(self, local: int) -> Tuple[int, int]:
        """Absolute label range of local group ``local``."""
        gs = self.nd["group_starts"]
        g = self.g0 + local
        return int(gs[g]), int(gs[g + 1])

    def segment(self, local: int, k: int, src: int, dst: int):
        """Materialize label ``k`` of local group ``local``."""
        from repro.core.sketch import Segment

        lo, _ = self.group_slice(local)
        i = lo + k
        nd = self.nd
        trip = int(nd["trips"][i])
        pivot = int(nd["pivots"][i])
        return Segment(
            src,
            dst,
            int(nd["deps"][i]),
            int(nd["arrs"][i]),
            None if trip < 0 else trip,
            None if pivot < 0 else pivot,
        )


def _iter_merge(hubs_o, ranks_o, hubs_i, ranks_i, u: int, v: int):
    """Mirror of ``sketch._merge_groups`` over bare metadata lists.

    Yields ``(kind, i, j)`` with local group positions; the emission
    order (directs checked before the rank comparison) is what makes
    kernel tie-breaks identical to the scalar selectors.
    """
    i = j = 0
    len_out, len_in = len(hubs_o), len(hubs_i)
    while i < len_out or j < len_in:
        if i < len_out and hubs_o[i] == v:
            yield ("out", i, -1)
            i += 1
            continue
        if j < len_in and hubs_i[j] == u:
            yield ("in", -1, j)
            j += 1
            continue
        if j == len_in or (i < len_out and ranks_o[i] < ranks_i[j]):
            i += 1
            continue
        if i == len_out or ranks_i[j] < ranks_o[i]:
            j += 1
            continue
        yield ("pair", i, j)
        i += 1
        j += 1


def _count_scan(
    metrics: Optional[QueryMetrics],
    out_side: _Side,
    in_side: _Side,
    candidates: int,
) -> None:
    if metrics is None:
        return
    metrics.labels_scanned += out_side.num_labels + in_side.num_labels
    metrics.sketches_generated += candidates


def _group_reduce_min(values, mask, starts_rel):
    """Per-group min of ``values`` where ``mask``, else ``INF``."""
    if not len(starts_rel):
        return values[:0]
    return np.minimum.reduceat(np.where(mask, values, INF), starts_rel)


def _group_reduce_max(values, mask, starts_rel):
    """Per-group max of ``values`` where ``mask``, else ``NEG_INF``."""
    if not len(starts_rel):
        return values[:0]
    return np.maximum.reduceat(np.where(mask, values, NEG_INF), starts_rel)


def _shared_ranks(ranks_o, ranks_i):
    """Positions of rank-matched (pairable) groups on both sides."""
    _, idx_o, idx_i = np.intersect1d(
        ranks_o, ranks_i, assume_unique=True, return_indices=True
    )
    return idx_o, idx_i


# ----------------------------------------------------------------------
# Point-query kernels (EAP / LDP / SDP)
# ----------------------------------------------------------------------


def eap_sketch(index, u: int, v: int, t: int,
               metrics: Optional[QueryMetrics] = None):
    """Vectorized twin of ``sketch.best_eap_sketch``."""
    from repro.core.sketch import Sketch

    side_o = _Side(index.out_store, u)
    side_i = _Side(index.in_store, v)
    # Per out-group: arrival at the hub of the first label departing
    # >= t (INF when the whole group departs earlier).
    mid = _group_reduce_min(side_o.arrs, side_o.deps >= t, side_o.starts_rel)
    # Per in-group departure threshold: the matched out-group's hub
    # arrival for pairable groups, t itself for the direct in-group
    # (hub == u), INF (no candidate) otherwise.
    thr = np.full(len(side_i), INF, dtype=np.int64)
    if len(side_o) and len(side_i):
        idx_o, idx_i = _shared_ranks(side_o.ranks, side_i.ranks)
        thr[idx_i] = mid[idx_o]
    thr[side_i.hubs == u] = t
    cand_i = _group_reduce_min(
        side_i.arrs,
        side_i.deps >= np.repeat(thr, side_i.sizes),
        side_i.starts_rel,
    )

    hubs_o, ranks_o = side_o.hubs.tolist(), side_o.ranks.tolist()
    hubs_i, ranks_i = side_i.hubs.tolist(), side_i.ranks.tolist()
    mid_l, cand_l = mid.tolist(), cand_i.tolist()
    best_arr = INF
    best = None
    candidates = 0
    for kind, i, j in _iter_merge(hubs_o, ranks_o, hubs_i, ranks_i, u, v):
        arr = mid_l[i] if kind == "out" else cand_l[j]
        if arr >= INF:
            continue
        candidates += 1
        if arr < best_arr:
            best_arr = arr
            best = (kind, i, j)
    _count_scan(metrics, side_o, side_i, candidates)
    if best is None:
        return None
    kind, i, j = best
    if kind == "out":
        lo, hi = side_o.group_slice(i)
        k = int(np.searchsorted(side_o.nd["deps"][lo:hi], t))
        seg = side_o.segment(i, k, u, v)
        return Sketch(seg.dep, seg.arr, seg, None)
    if kind == "in":
        lo, hi = side_i.group_slice(j)
        k = int(np.searchsorted(side_i.nd["deps"][lo:hi], t))
        seg = side_i.segment(j, k, u, v)
        return Sketch(seg.dep, seg.arr, None, seg)
    lo, hi = side_o.group_slice(i)
    k = int(np.searchsorted(side_o.nd["deps"][lo:hi], t))
    mid_val = int(side_o.nd["arrs"][lo + k])
    lo2, hi2 = side_i.group_slice(j)
    jj = int(np.searchsorted(side_i.nd["deps"][lo2:hi2], mid_val))
    hub = int(side_o.nd["hubs"][side_o.g0 + i])
    first = side_o.segment(i, k, u, hub)
    second = side_i.segment(j, jj, hub, v)
    return Sketch(first.dep, second.arr, first, second)


def ldp_sketch(index, u: int, v: int, t_end: int,
               metrics: Optional[QueryMetrics] = None):
    """Vectorized twin of ``sketch.best_ldp_sketch``."""
    from repro.core.sketch import Sketch

    side_o = _Side(index.out_store, u)
    side_i = _Side(index.in_store, v)
    # Per in-group: departure from the hub of the last label arriving
    # <= t_end (NEG_INF when the whole group arrives later).
    mid = _group_reduce_max(
        side_i.deps, side_i.arrs <= t_end, side_i.starts_rel
    )
    # Per out-group arrival threshold at the hub.
    thr = np.full(len(side_o), NEG_INF, dtype=np.int64)
    if len(side_o) and len(side_i):
        idx_o, idx_i = _shared_ranks(side_o.ranks, side_i.ranks)
        thr[idx_o] = mid[idx_i]
    thr[side_o.hubs == v] = t_end
    cand_o = _group_reduce_max(
        side_o.deps,
        side_o.arrs <= np.repeat(thr, side_o.sizes),
        side_o.starts_rel,
    )

    hubs_o, ranks_o = side_o.hubs.tolist(), side_o.ranks.tolist()
    hubs_i, ranks_i = side_i.hubs.tolist(), side_i.ranks.tolist()
    mid_l, cand_l = mid.tolist(), cand_o.tolist()
    best_dep = NEG_INF
    best = None
    candidates = 0
    for kind, i, j in _iter_merge(hubs_o, ranks_o, hubs_i, ranks_i, u, v):
        dep = mid_l[j] if kind == "in" else cand_l[i]
        if dep <= NEG_INF:
            continue
        candidates += 1
        if dep > best_dep:
            best_dep = dep
            best = (kind, i, j)
    _count_scan(metrics, side_o, side_i, candidates)
    if best is None:
        return None
    kind, i, j = best
    if kind == "out":
        lo, hi = side_o.group_slice(i)
        k = int(np.searchsorted(side_o.nd["arrs"][lo:hi], t_end, "right")) - 1
        seg = side_o.segment(i, k, u, v)
        return Sketch(seg.dep, seg.arr, seg, None)
    if kind == "in":
        lo, hi = side_i.group_slice(j)
        k = int(np.searchsorted(side_i.nd["arrs"][lo:hi], t_end, "right")) - 1
        seg = side_i.segment(j, k, u, v)
        return Sketch(seg.dep, seg.arr, None, seg)
    lo2, hi2 = side_i.group_slice(j)
    jj = int(np.searchsorted(side_i.nd["arrs"][lo2:hi2], t_end, "right")) - 1
    mid_val = int(side_i.nd["deps"][lo2 + jj])
    lo, hi = side_o.group_slice(i)
    k = int(np.searchsorted(side_o.nd["arrs"][lo:hi], mid_val, "right")) - 1
    hub = int(side_o.nd["hubs"][side_o.g0 + i])
    first = side_o.segment(i, k, u, hub)
    second = side_i.segment(j, jj, hub, v)
    return Sketch(first.dep, second.arr, first, second)


def _window(deps, arrs, t: int, t_end: int) -> Tuple[int, int]:
    """Label range with ``dep >= t`` and ``arr <= t_end`` — contiguous
    because both columns ascend within a group."""
    k0 = int(np.searchsorted(deps, t))
    k1 = k0 + int(np.searchsorted(arrs[k0:], t_end, "right"))
    return k0, k1


def _pair_combos(side_o: _Side, i: int, side_i: _Side, j: int,
                 t: int, t_end: int):
    """The scalar two-pointer's candidate sequence for one shared hub.

    Returns ``(k0, out_deps, in_pos, in_arrs)`` for the counted
    (prefix-valid) candidates, all ascending in ``k`` — empty arrays
    when the group pair yields none.  The scalar loop's three break
    conditions are each monotone in ``k``, so the candidates it counts
    form exactly this prefix.
    """
    lo, hi = side_o.group_slice(i)
    deps_o = side_o.nd["deps"][lo:hi]
    arrs_o = side_o.nd["arrs"][lo:hi]
    k0, k1 = _window(deps_o, arrs_o, t, t_end)
    empty = deps_o[:0]
    if k0 >= k1:
        return k0, empty, empty, empty
    lo2, hi2 = side_i.group_slice(j)
    deps_i = side_i.nd["deps"][lo2:hi2]
    arrs_i = side_i.nd["arrs"][lo2:hi2]
    len_in = hi2 - lo2
    mids = arrs_o[k0:k1]
    pos = np.searchsorted(deps_i, mids)
    exhausted = pos >= len_in
    arrs = arrs_i[np.minimum(pos, len_in - 1)]
    invalid = exhausted | (arrs > t_end)
    m = int(np.argmax(invalid)) if invalid.any() else k1 - k0
    if m == 0:
        return k0, empty, empty, empty
    return k0, deps_o[k0:k0 + m], pos[:m], arrs[:m]


def sdp_sketch(index, u: int, v: int, t: int, t_end: int,
               metrics: Optional[QueryMetrics] = None):
    """Vectorized twin of ``sketch.best_sdp_sketch``."""
    from repro.core.sketch import Sketch

    side_o = _Side(index.out_store, u)
    side_i = _Side(index.in_store, v)
    hubs_o, ranks_o = side_o.hubs.tolist(), side_o.ranks.tolist()
    hubs_i, ranks_i = side_i.hubs.tolist(), side_i.ranks.tolist()
    best_duration = INF
    best = None  # (kind, i, j, k, jj)
    candidates = 0
    for kind, i, j in _iter_merge(hubs_o, ranks_o, hubs_i, ranks_i, u, v):
        if kind == "pair":
            k0, deps_c, pos_c, arrs_c = _pair_combos(
                side_o, i, side_i, j, t, t_end
            )
            m = len(deps_c)
            if not m:
                continue
            candidates += m
            durations = arrs_c - deps_c
            am = int(np.argmin(durations))
            duration = int(durations[am])
            if duration < best_duration:
                best_duration = duration
                best = (kind, i, j, k0 + am, int(pos_c[am]))
        else:
            side = side_o if kind == "out" else side_i
            local = i if kind == "out" else j
            lo, hi = side.group_slice(local)
            deps = side.nd["deps"][lo:hi]
            arrs = side.nd["arrs"][lo:hi]
            k0, k1 = _window(deps, arrs, t, t_end)
            if k0 >= k1:
                continue
            candidates += k1 - k0
            durations = arrs[k0:k1] - deps[k0:k1]
            am = int(np.argmin(durations))
            duration = int(durations[am])
            if duration < best_duration:
                best_duration = duration
                best = (kind, i, j, k0 + am, 0)
    _count_scan(metrics, side_o, side_i, candidates)
    if best is None:
        return None
    kind, i, j, k, jj = best
    if kind == "out":
        seg = side_o.segment(i, k, u, v)
        return Sketch(seg.dep, seg.arr, seg, None)
    if kind == "in":
        seg = side_i.segment(j, k, u, v)
        return Sketch(seg.dep, seg.arr, None, seg)
    hub = int(side_o.nd["hubs"][side_o.g0 + i])
    first = side_o.segment(i, k, u, hub)
    second = side_i.segment(j, jj, hub, v)
    return Sketch(first.dep, second.arr, first, second)


# ----------------------------------------------------------------------
# Profile enumeration: columnar candidate generation + dominance filter
# ----------------------------------------------------------------------


def pareto_filter(deps, arrs) -> List[Tuple[int, int]]:
    """Non-dominated ``(dep, arr)`` pairs, ascending by departure.

    Columnar equivalent of folding every candidate through
    :meth:`repro.algorithms.profiles.ParetoProfile.add`: weak
    dominance, ties collapsed.
    """
    if not len(deps):
        return []
    order = np.lexsort((arrs, deps))
    d = deps[order]
    a = arrs[order]
    # Per departure keep the earliest arrival (later same-dep arrivals
    # are weakly dominated); d is then strictly increasing.
    first = np.empty(len(d), dtype=bool)
    first[0] = True
    first[1:] = d[1:] != d[:-1]
    d = d[first]
    a = a[first]
    # A pair survives iff every strictly later departure arrives
    # strictly later: compare against the suffix minimum of arrivals.
    keep = np.empty(len(d), dtype=bool)
    keep[-1] = True
    if len(d) > 1:
        suffix = np.minimum.accumulate(a[::-1])[::-1]
        keep[:-1] = a[:-1] < suffix[1:]
    return list(zip(d[keep].tolist(), a[keep].tolist()))


def _emitted_count(arrs_c) -> int:
    """How many sketches the scalar pair generator would yield for this
    candidate sequence: consecutive equal-arrival candidates collapse
    into one (the pending-suppression in ``sketch._pair_sketches``)."""
    if not len(arrs_c):
        return 0
    return 1 + int(np.count_nonzero(arrs_c[1:] != arrs_c[:-1]))


def profile_pairs(index, u: int, v: int, t: int, t_end: int,
                  metrics: Optional[QueryMetrics] = None,
                  ) -> List[Tuple[int, int]]:
    """Vectorized twin of ``profile_queries.ttl_profile``."""
    side_o = _Side(index.out_store, u)
    side_i = _Side(index.in_store, v)
    dep_parts = []
    arr_parts = []
    generated = 0

    # Direct labels spanning u -> v on either side.  Group order does
    # not matter here: the Pareto frontier of a candidate set is
    # insertion-order independent.
    for side, hub_match in ((side_o, v), (side_i, u)):
        for local in np.nonzero(side.hubs == hub_match)[0].tolist():
            lo, hi = side.group_slice(local)
            deps = side.nd["deps"][lo:hi]
            arrs = side.nd["arrs"][lo:hi]
            k0, k1 = _window(deps, arrs, t, t_end)
            if k0 < k1:
                dep_parts.append(deps[k0:k1])
                arr_parts.append(arrs[k0:k1])
                generated += k1 - k0

    if len(side_o) and len(side_i):
        idx_o, idx_i = _shared_ranks(side_o.ranks, side_i.ranks)
        for i, j in zip(idx_o.tolist(), idx_i.tolist()):
            _, deps_c, _, arrs_c = _pair_combos(
                side_o, i, side_i, j, t, t_end
            )
            if len(deps_c):
                dep_parts.append(deps_c)
                arr_parts.append(arrs_c)
                generated += _emitted_count(arrs_c)

    if metrics is not None:
        metrics.labels_scanned += side_o.num_labels + side_i.num_labels
        metrics.sketches_generated += generated
    if not dep_parts:
        return []
    return pareto_filter(
        np.concatenate(dep_parts), np.concatenate(arr_parts)
    )


# ----------------------------------------------------------------------
# Batched one-to-many / matrix / isochrone: one pass over the in-store
# ----------------------------------------------------------------------


def _derived(store, key: str, build):
    """Memoize a derived array in the store's ndarray cache dict (the
    cache lives exactly as long as the zero-copy views themselves)."""
    nd = store.ndarray_columns()
    value = nd.get(key)
    if value is None:
        value = build(nd)
        nd[key] = value
    return value


def _rank_per_label(store):
    """Each label's group hub rank, expanded to label granularity."""
    return _derived(
        store,
        "_rank_per_label",
        lambda nd: np.repeat(
            nd["group_ranks"], np.diff(nd["group_starts"])
        ),
    )


def one_to_all_arrivals(index, source: int, t: int):
    """Earliest arrival from ``source`` (departing >= ``t``) to every
    station, as an int64 ndarray with ``INF`` where unreachable.

    One columnar pass over the *entire* in-store: each out-label hub
    arrival is scattered to a per-rank threshold, every in-label in
    the index is masked against its group's threshold in one shot, and
    two ``reduceat`` levels (labels -> groups -> nodes) produce the
    answers.  Cost is O(total labels) vectorized, independent of how
    many targets the caller wants — this is the kernel behind
    ``/v1/batch``.
    """
    n = index.graph.n
    side_o = _Side(index.out_store, source)
    mid = _group_reduce_min(side_o.arrs, side_o.deps >= t, side_o.starts_rel)

    thr_by_rank = np.full(n, INF, dtype=np.int64)
    if len(side_o):
        thr_by_rank[side_o.ranks] = mid
    # Direct in-labels (hub == source): any departure >= t works.
    thr_by_rank[index.ranks[source]] = t

    in_store = index.in_store
    ndi = in_store.ndarray_columns()
    group_starts = ndi["group_starts"]
    num_groups = len(ndi["hubs"])
    if num_groups:
        thr_label = thr_by_rank[_rank_per_label(in_store)]
        masked = np.where(ndi["deps"] >= thr_label, ndi["arrs"], INF)
        per_group = np.minimum.reduceat(masked, group_starts[:-1])
    else:
        per_group = ndi["deps"][:0]

    if len(per_group):
        empty_nodes = _derived(
            in_store,
            "_empty_nodes",
            lambda nd: np.diff(nd["node_starts"]) == 0,
        )
        # reduceat over the raw node starts, with one INF sentinel
        # appended so a trailing empty node's start (== num_groups) is
        # a valid index.  Clipping the starts instead would be wrong:
        # it silently truncates the *previous* node's segment by one
        # group.  Mid-array empty nodes produce a one-element garbage
        # reduction (reduceat semantics for starts[i] >= starts[i+1]),
        # which the empty_nodes mask overwrites.
        padded = np.concatenate(
            (per_group, np.array([INF], dtype=np.int64))
        )
        per_node = np.minimum.reduceat(padded, ndi["node_starts"][:-1])
        per_node[empty_nodes] = INF
    else:
        per_node = np.full(n, INF, dtype=np.int64)

    # Direct out-labels (hub == target).
    if len(side_o):
        direct = np.full(n, INF, dtype=np.int64)
        direct[side_o.hubs] = mid
        per_node = np.minimum(per_node, direct)
    per_node[source] = t
    return per_node


def one_to_many_values(
    index, source: int, targets: Iterable[int], t: int
) -> Dict[int, Optional[int]]:
    """Vectorized twin of the scalar ``batch._one_to_many`` (values only —
    identical because the minimum candidate arrival is unique
    regardless of merge order)."""
    arrivals = one_to_all_arrivals(index, source, t)
    result: Dict[int, Optional[int]] = {}
    for target in targets:
        arr = int(arrivals[target])
        result[target] = arr if arr < INF else None
    return result
