"""One function per paper table / figure (see DESIGN.md's index).

Every function takes a :class:`~repro.bench.harness.PlannerCache` and
returns an :class:`ExperimentResult` whose rows mirror what the paper
reports; ``str(result)`` renders the aligned text table the benchmark
suite writes to ``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines import CHTPlanner, CSAPlanner
from repro.bench.harness import (
    PlannerCache,
    render_table,
    time_queries,
)
from repro.core import (
    TTLPlanner,
    build_index,
    build_index_brute_force,
    compress_index,
)
from repro.core.order import approximation_order, hub_order, random_order


@dataclass
class ExperimentResult:
    """Rows + rendering of one experiment."""

    name: str
    headers: List[str]
    rows: List[List[object]]

    def __str__(self) -> str:
        return render_table(self.name, self.headers, self.rows)

    def column(self, header: str) -> List[object]:
        i = self.headers.index(header)
        return [row[i] for row in self.rows]

    def by_dataset(self, header: str) -> Dict[str, object]:
        i = self.headers.index(header)
        return {row[0]: row[i] for row in self.rows}


#: Methods plotted in Figures 3, 6, 7 (query-time figures).
QUERY_METHODS = [
    "TTL",
    "TTL-concise",
    "C-TTL",
    "C-TTL-concise",
    "CHT",
    "CSA",
]

#: The small datasets used where the paper restricts A-Order /
#: brute-force construction (Appendix D.2 memory / time gates).
SMALL_DATASETS = ["Austin", "Denver", "Toronto"]


# ----------------------------------------------------------------------
# Table 3 — dataset characteristics
# ----------------------------------------------------------------------


def table3_datasets(cache: PlannerCache) -> ExperimentResult:
    """Table 3: per-dataset n, m, trips, routes."""
    rows: List[List[object]] = []
    for name in cache.config.datasets:
        stats = cache.graph(name).stats()
        rows.append(
            [
                name,
                stats.num_stations,
                stats.num_connections,
                stats.num_trips,
                stats.num_routes,
            ]
        )
    return ExperimentResult(
        "Table 3: dataset characteristics",
        ["dataset", "stations", "connections", "trips", "routes"],
        rows,
    )


# ----------------------------------------------------------------------
# Figures 3 / 6 / 7 — query time per method
# ----------------------------------------------------------------------


def _query_figure(
    cache: PlannerCache, kind: str, title: str
) -> ExperimentResult:
    rows: List[List[object]] = []
    for name in cache.config.datasets:
        queries = cache.queries(name)
        row: List[object] = [name]
        for method in QUERY_METHODS:
            planner = cache.planner(name, method)
            seconds = time_queries(planner, queries, kind)
            row.append(seconds * 1e6)  # microseconds, as in the paper
        rows.append(row)
    return ExperimentResult(
        title, ["dataset"] + [f"{m} (us)" for m in QUERY_METHODS], rows
    )


def figure3_sdp(cache: PlannerCache) -> ExperimentResult:
    """Figure 3: average SDP query time."""
    return _query_figure(cache, "sdp", "Figure 3: SDP query time")


def figure6_eap(cache: PlannerCache) -> ExperimentResult:
    """Figure 6 (Appendix D.1): average EAP query time."""
    return _query_figure(cache, "eap", "Figure 6: EAP query time")


def figure7_ldp(cache: PlannerCache) -> ExperimentResult:
    """Figure 7 (Appendix D.1): average LDP query time."""
    return _query_figure(cache, "ldp", "Figure 7: LDP query time")


# ----------------------------------------------------------------------
# Figure 4 — index size
# ----------------------------------------------------------------------


def figure4_space(cache: PlannerCache) -> ExperimentResult:
    """Figure 4: index size per method (model bytes)."""
    methods = ["TTL", "C-TTL", "CHT", "CSA"]
    rows: List[List[object]] = []
    for name in cache.config.datasets:
        row: List[object] = [name]
        for method in methods:
            row.append(cache.planner(name, method).index_bytes())
        rows.append(row)
    return ExperimentResult(
        "Figure 4: index size (bytes)",
        ["dataset"] + [f"{m} (B)" for m in methods],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 5 — preprocessing time
# ----------------------------------------------------------------------


def figure5_preprocessing(cache: PlannerCache) -> ExperimentResult:
    """Figure 5: preprocessing time per method (fresh builds)."""
    rows: List[List[object]] = []
    # Collector paused, as timeit does: a full collection over the cached
    # planners takes tens of ms and would swamp CSA's few-ms builds.
    gc.disable()
    try:
        for name in cache.config.datasets:
            graph = cache.graph(name)
            csa_s = CSAPlanner(graph).preprocess()
            cht_s = CHTPlanner(graph).preprocess()
            start = time.perf_counter()
            index = build_index(graph)
            ttl_s = time.perf_counter() - start
            start = time.perf_counter()
            compress_index(index, mode="both")
            cttl_s = ttl_s + (time.perf_counter() - start)
            rows.append([name, csa_s, cht_s, ttl_s, cttl_s])
    finally:
        gc.enable()
    return ExperimentResult(
        "Figure 5: preprocessing time (s)",
        ["dataset", "CSA (s)", "CHT (s)", "TTL (s)", "C-TTL (s)"],
        rows,
    )


# ----------------------------------------------------------------------
# Table 4 — compression effectiveness
# ----------------------------------------------------------------------


def table4_compression(cache: PlannerCache) -> ExperimentResult:
    """Table 4: label-count reduction of each compression scheme."""
    rows: List[List[object]] = []
    for name in cache.config.datasets:
        # Reuse the cached plain index.
        planner = cache.planner(name, "TTL")
        assert isinstance(planner, TTLPlanner) and planner.index is not None
        index = planner.index
        reductions = []
        for mode in ("route", "pivot", "both"):
            _, stats = compress_index(index, mode=mode)
            reductions.append(100.0 * stats.reduction)
        rows.append([name, index.num_labels] + reductions)
    return ExperimentResult(
        "Table 4: compression (label reduction %)",
        ["dataset", "|L|", "route d1 (%)", "pivot d2 (%)", "both d3 (%)"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 8 — IndexBuild vs brute-force construction (Appendix D.2)
# ----------------------------------------------------------------------


def figure8_construction(
    cache: PlannerCache, datasets: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Figure 8: pruned IndexBuild vs brute-force Dijkstra."""
    rows: List[List[object]] = []
    names = list(datasets) if datasets is not None else [
        d for d in cache.config.datasets if d in SMALL_DATASETS
    ] or SMALL_DATASETS[:1]
    for name in names:
        graph = cache.graph(name)
        ranks = hub_order(graph)
        start = time.perf_counter()
        pruned = build_index(graph, order=ranks)
        pruned_s = time.perf_counter() - start
        start = time.perf_counter()
        brute = build_index_brute_force(graph, order=ranks)
        brute_s = time.perf_counter() - start
        rows.append(
            [
                name,
                pruned_s,
                brute_s,
                brute_s / max(pruned_s, 1e-9),
                pruned.num_labels,
                brute.num_labels,
            ]
        )
    return ExperimentResult(
        "Figure 8: index construction time (s)",
        [
            "dataset",
            "IndexBuild (s)",
            "brute force (s)",
            "speedup",
            "labels (pruned)",
            "labels (brute)",
        ],
        rows,
    )


# ----------------------------------------------------------------------
# Figures 9 / 10 — node orders (Appendix D.2)
# ----------------------------------------------------------------------


_ORDER_ROWS_MEMO: Dict[tuple, List[List[object]]] = {}


def _order_rows(
    cache: PlannerCache, datasets: Optional[Sequence[str]]
) -> List[List[object]]:
    names = list(datasets) if datasets is not None else [
        d for d in cache.config.datasets if d in SMALL_DATASETS
    ] or SMALL_DATASETS[:1]
    memo_key = (id(cache), tuple(names))
    memoized = _ORDER_ROWS_MEMO.get(memo_key)
    if memoized is not None:
        return memoized
    rows: List[List[object]] = []
    for name in names:
        graph = cache.graph(name)
        row: List[object] = [name]
        for order_fn in (hub_order, random_order, approximation_order):
            start = time.perf_counter()
            try:
                ranks = order_fn(graph)
            except Exception:
                row.extend([None, None])
                continue
            order_s = time.perf_counter() - start
            start = time.perf_counter()
            index = build_index(graph, order=ranks)
            build_s = time.perf_counter() - start
            row.extend([index.num_labels, order_s + build_s])
        rows.append(row)
    _ORDER_ROWS_MEMO[memo_key] = rows
    return rows


def figure9_order_size(
    cache: PlannerCache, datasets: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Figure 9: index size per node-ordering method."""
    rows = [
        [row[0], row[1], row[3], row[5]] for row in _order_rows(cache, datasets)
    ]
    return ExperimentResult(
        "Figure 9: index size by node order (labels)",
        ["dataset", "H-Order", "Rand-Order", "A-Order"],
        rows,
    )


def figure10_order_time(
    cache: PlannerCache, datasets: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Figure 10: total preprocessing time per node-ordering method."""
    rows = [
        [row[0], row[2], row[4], row[6]] for row in _order_rows(cache, datasets)
    ]
    return ExperimentResult(
        "Figure 10: total preprocessing time by node order (s)",
        ["dataset", "H-Order (s)", "Rand-Order (s)", "A-Order (s)"],
        rows,
    )


# ----------------------------------------------------------------------
# Ablations beyond the paper
# ----------------------------------------------------------------------


def ablation_pruning(
    cache: PlannerCache, datasets: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Hub-cover pruning on/off: build time and label count."""
    rows: List[List[object]] = []
    names = list(datasets) if datasets is not None else [
        d for d in cache.config.datasets if d in SMALL_DATASETS
    ] or SMALL_DATASETS[:1]
    for name in names:
        graph = cache.graph(name)
        ranks = hub_order(graph)
        start = time.perf_counter()
        with_prune = build_index(graph, order=ranks, prune_cover=True)
        with_s = time.perf_counter() - start
        start = time.perf_counter()
        without_prune = build_index(graph, order=ranks, prune_cover=False)
        without_s = time.perf_counter() - start
        rows.append(
            [
                name,
                with_prune.num_labels,
                without_prune.num_labels,
                with_s,
                without_s,
            ]
        )
    return ExperimentResult(
        "Ablation: hub-cover pruning",
        [
            "dataset",
            "labels (pruned)",
            "labels (no prune)",
            "build pruned (s)",
            "build no-prune (s)",
        ],
        rows,
    )


def ablation_horder_samples(
    cache: PlannerCache,
    dataset: str = "Austin",
    sample_counts: Sequence[int] = (1, 4, 16, 64),
) -> ExperimentResult:
    """How many sampled EAP trees does H-Order need?"""
    graph = cache.graph(dataset)
    rows: List[List[object]] = []
    for count in sample_counts:
        start = time.perf_counter()
        ranks = hub_order(graph, num_samples=count)
        order_s = time.perf_counter() - start
        index = build_index(graph, order=ranks)
        rows.append([count, index.num_labels, order_s])
    return ExperimentResult(
        f"Ablation: H-Order sample count ({dataset})",
        ["samples", "labels", "ordering time (s)"],
        rows,
    )


def ablation_unfold(
    cache: PlannerCache, dataset: str = "Berlin"
) -> ExperimentResult:
    """Full-path vs concise-path reconstruction cost (TTL)."""
    queries = cache.queries(dataset)
    rows: List[List[object]] = []
    for method in ("TTL", "TTL-concise", "C-TTL", "C-TTL-concise"):
        planner = cache.planner(dataset, method)
        seconds = time_queries(planner, queries, "sdp")
        rows.append([method, seconds * 1e6])
    return ExperimentResult(
        f"Ablation: path reconstruction cost ({dataset}, SDP)",
        ["method", "us/query"],
        rows,
    )
