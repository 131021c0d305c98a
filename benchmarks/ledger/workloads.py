"""The six ledger workloads.

Each workload owns its set-up (timed, repeated), one closed-loop
operation ``op(i)``, a traced pass that times the layers from outside
through their public functions, and an untimed oracle check.  README.md
says why each exists and which metric it is meant to move.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from measure import (
    Metric,
    Samples,
    Tracer,
    mean_metric,
    now_ns,
    peak_rss_mb,
    pin_one_cpu,
    run_ops,
    unpin,
)

from repro.algorithms.temporal_dijkstra import (
    DijkstraPlanner,
    earliest_arrival_search,
)
from repro.buildfarm import build_index_parallel
from repro.core import kernels
from repro.core.batch import batch_plan
from repro.core.build import build_index
from repro.core.profile_queries import ttl_profile
from repro.core.queries import TTLPlanner
from repro.core.serialize import load_index, save_index
from repro.core.sketch import best_eap_sketch, best_ldp_sketch, best_sdp_sketch
from repro.core.store import COLUMN_NAMES
from repro.core.unfold import sketch_to_journey
from repro.core.verify import verify_index
from repro.datasets import clear_dataset_cache, load_dataset
from repro.live import LiveOverlayEngine, synthetic_feed
from repro.query import QUERY_TYPES, QueryRequest
from repro.resilience import ResilienceConfig, ResilientExecutor
from repro.serving import AnswerCache, ServingSupervisor, mapped_planner_factory
from repro.timeutil import INF

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Length of each generated sequence (walked cyclically).
SEQUENCE = 20000
#: Operations of the count-bounded lap whose counters repeat exactly.
COUNT_LAP = 1000
#: Requests the oracle pass checks after a window.
VERIFY_SAMPLE = 200
#: Size of the probes that measure a metric on a workload whose own
#: operations do not contain it (README: "Native and probed cells").
PROBE_QUERIES_PER_TYPE, PROBE_QUERY_LAPS = 2000, 4
PROBE_EVENTS, PROBE_EVENT_PASSES = 60, 3
#: ``live_churn``: reads after every event.
READS_PER_EVENT = 50
#: The disruption scenario belongs to the dataset and keeps a catalogue
#: seed like the timetable does (``--seed`` draws the reads): which
#: trips a feed disrupts moves every live number by tens of percent.
FEED_RATE, FEED_SEED = 0.05, 2
CACHE_SIZE = 4096

KIND_ID = {kind: i for i, kind in enumerate(QUERY_TYPES)}
EQUAL_MIX = tuple((kind, 0.25) for kind in QUERY_TYPES)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def objective(request: QueryRequest, result):
    """What the oracle compares: arrival for eap, departure for ldp,
    duration for sdp, the whole Pareto set for profile."""
    kind = request.query_type
    if kind == "profile":
        return tuple(tuple(pair) for pair in result.pairs)
    journey = result.journey
    if journey is None:
        return None
    return {"eap": journey.arr, "ldp": journey.dep, "sdp": journey.duration}[kind]


class Check:
    """Running tally of one run's oracle comparisons."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.messages: List[str] = []
        #: Durations of the oracle's own calls (``oracle.dijkstra_us``).
        self.oracle_ns: List[int] = []

    def compare(self, what: str, got, expected) -> None:
        self.checked += 1
        if got != expected:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: got {got!r}, oracle {expected!r}")

    def points(
        self,
        answer: Callable[[QueryRequest], object],
        graph,
        requests: Sequence[QueryRequest],
    ) -> None:
        """Compare ``answer(request)`` with temporal Dijkstra on ``graph``."""
        oracle = DijkstraPlanner(graph)
        for request in requests:
            started = now_ns()
            expected = objective(request, oracle.plan(request))
            self.oracle_ns.append(now_ns() - started)
            self.compare(repr(request), answer(request), expected)


# ----------------------------------------------------------------------
# Build -> save -> load, the cycle every set-up performs
# ----------------------------------------------------------------------


class BuildLog:
    """Timings of every build -> save -> load cycle of this run."""

    def __init__(self) -> None:
        self.build_s: List[float] = []
        self.total_s: List[float] = []
        self.order_s: List[float] = []
        self.save_ms: List[float] = []
        self.load_heap_ms: List[float] = []
        self.load_mmap_ms: List[float] = []
        self.stats = None
        self.file_bytes = 0
        self.store_bytes = 0


def build_cycle(
    graph, path: Path, log: BuildLog, tracer: Optional[Tracer] = None, request: int = -1
):
    """``build_index`` -> ``save_index`` -> ``load_index`` heap ->
    ``load_index(mmap=True)``; returns the mapped index."""
    t0 = now_ns()
    index = build_index(graph)
    t1 = now_ns()
    save_index(index, path)
    t2 = now_ns()
    load_index(path, graph)
    t3 = now_ns()
    mapped = load_index(path, graph, mmap=True)
    t4 = now_ns()
    log.build_s.append((t1 - t0) / 1e9)
    log.total_s.append(index.build_stats.seconds)
    log.order_s.append(index.build_stats.order_seconds)
    log.save_ms.append((t2 - t1) / 1e6)
    log.load_heap_ms.append((t3 - t2) / 1e6)
    log.load_mmap_ms.append((t4 - t3) / 1e6)
    log.stats = index.build_stats
    log.file_bytes = path.stat().st_size
    log.store_bytes = mapped.store_bytes()
    if tracer is not None:
        root = tracer.add("cycle", t0, t4, -1, request)
        tracer.add("core.build", t0, t1, root, request)
        tracer.add("core.serialize.save", t1, t2, root, request)
        tracer.add("core.serialize.load_heap", t2, t3, root, request)
        tracer.add("core.serialize.load_mmap", t3, t4, root, request)
    return mapped


def label_digest(index) -> str:
    """sha256 over the rank array and every label column: equal for two
    indexes exactly when ``save_index`` would write the same label bytes."""
    sha = hashlib.sha256()
    sha.update(repr(list(index.ranks)).encode())
    for store in (index.in_store, index.out_store):
        for name in COLUMN_NAMES:
            sha.update(bytes(getattr(store, name)))
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Probes: a metric on a workload whose own operations lack it
# ----------------------------------------------------------------------


def point_op(planner, sequence) -> Callable[[int], int]:
    """``op(i)``: one ``plan`` call on the i-th request (cyclic)."""
    plan = planner.plan
    pairs = [(request, KIND_ID[request.query_type]) for request in sequence]
    size = len(pairs)

    def op(i: int) -> int:
        request, cls = pairs[i % size]
        plan(request)
        return cls

    return op


def announce(engine, record) -> None:
    """One feed record: move the clock, then apply the event."""
    if record.at > engine.now:
        engine.advance_to(record.at)
    engine.apply_event(record.event)


def probe_points(graph, index, seed: int, check: Check) -> Samples:
    """Equal-mix point queries through ``TTLPlanner.plan`` on the
    workload's own index; a sample of the answers is oracle-checked."""
    requests = inputs.point_requests(
        graph, seed + 17, len(QUERY_TYPES) * PROBE_QUERIES_PER_TYPE, EQUAL_MIX
    )
    planner = TTLPlanner(graph, index=index)
    op = point_op(planner, requests)
    run_ops(op, QUERY_TYPES, count=len(requests) // 5)
    samples = run_ops(op, QUERY_TYPES, count=PROBE_QUERY_LAPS * len(requests))
    check.points(
        lambda request: objective(request, planner.plan(request)),
        graph,
        requests[:40],
    )
    return samples


def probe_events(graph, index) -> Samples:
    """The first ``PROBE_EVENTS`` records of the dataset's feed applied
    to a fresh engine, ``PROBE_EVENT_PASSES`` times (a round each: an
    event costs more the more events are already active)."""
    records = list(synthetic_feed(graph, rate=FEED_RATE, seed=FEED_SEED))
    records = records[:PROBE_EVENTS]
    engines: List[LiveOverlayEngine] = []

    def op(i: int) -> int:
        if i % len(records) == 0:
            engines.append(LiveOverlayEngine(graph, index=index))
            engines[-1].preprocess()
        announce(engines[-1], records[i % len(records)])
        return 0

    return run_ops(
        op,
        ("event",),
        count=PROBE_EVENT_PASSES * len(records),
        round_ops=len(records),
    )


# ----------------------------------------------------------------------
# Base class
# ----------------------------------------------------------------------


class Workload:
    name = ""
    dataset = "Berlin"
    scale = 1.0
    #: Operation classes ``op`` can return, and those that count as the
    #: workload's operations in ``ops_per_s`` / ``p50_us`` / ``p99_us``.
    classes: Tuple[str, ...] = QUERY_TYPES
    counted: Tuple[str, ...] = QUERY_TYPES
    #: Untimed operations before any window or lap.
    warm = 2000
    #: Operations per round when ``op`` repeats in a fixed pattern whose
    #: positions cost differently; ``None`` cuts rounds by time.
    round_ops: Optional[int] = None
    #: True when a round holds too few operations beyond the 99th
    #: percentile for ``p99_us`` to be taken round by round.
    pooled_tail = False
    #: True when ``op`` is ``TTLPlanner.plan`` itself, so the window
    #: yields the per-type ``*_p50_us``; elsewhere a probe measures them.
    plans_points = False

    def __init__(self, seed: int, smoke: bool, tmp: Path) -> None:
        self.seed = seed
        if smoke:
            self.dataset, self.scale = "Austin", 1.0
        self.index_path = tmp / f"{self.name}.ttl"
        self.log = BuildLog()
        self.setup_s: List[float] = []
        self.generate_s: List[float] = []
        self.graph = None
        self.index = None
        #: Every lap of the traced pass (counted as attempted / failed).
        self.laps: List[Samples] = []
        #: How far the traced pass accounts for the end-to-end numbers.
        self.checks: Dict[str, float] = {}
        self.make_inputs(load_dataset(self.dataset, self.scale))

    # -- inputs --------------------------------------------------------

    def make_inputs(self, graph) -> None:
        """Generate the seeded sequence and record its digest."""
        raise NotImplementedError

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        """One timed set-up, from an empty dataset cache to a program
        ready for ``op``."""
        self.release()
        clear_dataset_cache()
        started = now_ns()
        self.graph = load_dataset(self.dataset, self.scale)
        self.generate_s.append((now_ns() - started) / 1e9)
        self.prepare()
        self.setup_s.append((now_ns() - started) / 1e9)

    def prepare(self) -> None:
        """Everything of set-up after dataset generation."""
        self.index = build_cycle(self.graph, self.index_path, self.log)

    def release(self) -> None:
        """Stop whatever ``prepare`` started (idempotent)."""

    # -- measured operation -------------------------------------------

    def op(self, i: int) -> int:
        raise NotImplementedError

    def rss_mb(self) -> float:
        return peak_rss_mb()

    # -- probes and oracle --------------------------------------------

    def verify(self, check: Check) -> None:
        raise NotImplementedError

    # -- traced pass ---------------------------------------------------

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        """The workload's own layer metrics; also returns
        ``trace.overhead_share``."""
        raise NotImplementedError

    def lap(self, op: Callable[[int], int], **bounds) -> Samples:
        """One lap of the traced pass: ``run_ops``, remembered."""
        self.laps.append(run_ops(op, self.classes, **bounds))
        return self.laps[-1]

    def overhead(self, traced_mean_ns: float, seconds: float, first: int) -> Metric:
        """``trace.overhead_share``: the traced pass's mean operation
        latency against an untraced lap of the same operations."""
        plain = self.lap(
            self.op, first=first, seconds=seconds, round_ops=self.round_ops
        )
        base = plain.mean_ns(self.counted)
        return Metric((traced_mean_ns - base) / base, "ratio", plain.ops_done)


# ----------------------------------------------------------------------
# point_uniform
# ----------------------------------------------------------------------


class PointUniform(Workload):
    name = "point_uniform"
    plans_points = True

    def make_inputs(self, graph) -> None:
        self.requests = inputs.point_requests(graph, self.seed, SEQUENCE)
        self.inputs_digest = inputs.digest(self.requests)

    def prepare(self) -> None:
        super().prepare()
        self.planner = TTLPlanner(self.graph, index=self.index)
        self.op = point_op(self.planner, self.requests)

    def verify(self, check: Check) -> None:
        check.points(
            lambda request: objective(request, self.planner.plan(request)),
            self.graph,
            self.requests[:VERIFY_SAMPLE],
        )

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        index, planner, requests = self.index, self.planner, self.requests
        size = len(requests)

        # Count-bounded lap: the program's own counters, exactly repeatable.
        planner.metrics.reset()
        kernel_points = legs = journeys = pairs = profiles = 0
        for request in requests[self.warm : self.warm + COUNT_LAP]:
            kernel_points += kernels.use_for_point(
                index, request.source, request.destination
            )
            result = planner.plan(request)
            if request.query_type == "profile":
                profiles += 1
                pairs += len(result.pairs)
            elif result.journey is not None:
                journeys += 1
                legs += len(result.journey.path)
        counters = planner.metrics.snapshot()
        queries = counters["queries"]

        # Time-bounded lap: plan, then its two public halves.
        self_ns: List[int] = []
        plan_ns: List[int] = []

        def op(i: int) -> int:
            request = requests[i % size]
            kind, u, v = request.query_type, request.source, request.destination
            t0 = now_ns()
            planner.plan(request)
            t1 = now_ns()
            root = tracer.add("request", t0, t0, -1, i)
            tracer.add("core.queries.plan", t0, t1, root, i)
            if kind == "profile":
                ttl_profile(index, u, v, request.t, request.t_end)
                t2 = now_ns()
                tracer.add("core.profile_queries", t1, t2, root, i)
            else:
                if kind == "eap":
                    sketch = best_eap_sketch(index, u, v, request.t)
                elif kind == "ldp":
                    sketch = best_ldp_sketch(index, u, v, request.t_end)
                else:
                    sketch = best_sdp_sketch(index, u, v, request.t, request.t_end)
                t2 = now_ns()
                tracer.add(f"core.sketch.{kind}", t1, t2, root, i)
                if sketch is not None:
                    sketch_to_journey(index, sketch, u, v, False)
                    t3 = now_ns()
                    tracer.add("core.unfold", t2, t3, root, i)
                    t2 = t3
            tracer.spans[root] = ("request", t0, t2, -1, i)
            plan_ns.append(t1 - t0)
            self_ns.append((t1 - t0) - (t2 - t1))
            return KIND_ID[kind]

        first = self.warm + COUNT_LAP
        lap = self.lap(op, first=first, seconds=0.6 * seconds)
        return {
            "store.labels_scanned_per_query": Metric(
                counters["labels_scanned"] / queries, "count", queries
            ),
            "sketch.candidates_per_query": Metric(
                counters["sketches_generated"] / queries, "count", queries
            ),
            "unfold.legs_per_journey": Metric(legs / journeys, "count", journeys),
            "unfold.max_depth": Metric(counters["unfold_max_depth"], "count", queries),
            "unfold.fallbacks": Metric(counters["unfold_fallbacks"], "count", queries),
            "profile.pairs_per_query": Metric(pairs / profiles, "count", profiles),
            "kernels.point_share": Metric(kernel_points / COUNT_LAP, "ratio", COUNT_LAP),
            "sketch.eap_us": tracer.mean("core.sketch.eap", 1e3, "us"),
            "sketch.ldp_us": tracer.mean("core.sketch.ldp", 1e3, "us"),
            "sketch.sdp_us": tracer.mean("core.sketch.sdp", 1e3, "us"),
            "unfold.us": tracer.mean("core.unfold", 1e3, "us"),
            "profile.us": tracer.mean("core.profile_queries", 1e3, "us"),
            "planner.self_us": mean_metric(self_ns, 1e3, "us"),
            "trace.overhead_share": self.overhead(
                statistics.fmean(plan_ns), 0.3 * seconds, first + lap.ops_done
            ),
        }


# ----------------------------------------------------------------------
# batch_access
# ----------------------------------------------------------------------


def dijkstra_arrivals(graph, source: int, t: int) -> List[Optional[int]]:
    eat, _ = earliest_arrival_search(graph, source, t)
    return [arr if arr < INF else None for arr in eat]


class BatchAccess(Workload):
    name = "batch_access"
    dataset = "Sweden"
    classes = counted = tuple(kind for kind, _ in inputs.BATCH_MIX)
    warm = 300

    def make_inputs(self, graph) -> None:
        self.items = inputs.batch_items(graph, self.seed, SEQUENCE // 4)
        self.inputs_digest = inputs.digest(self.items)

    def prepare(self) -> None:
        super().prepare()
        index = self.index
        pairs = [(item, self.classes.index(item.kind)) for item in self.items]
        size = len(pairs)

        def op(i: int) -> int:
            item, cls = pairs[i % size]
            batch_plan(index, (item,))
            return cls

        self.op = op

    def uses_kernel(self, item) -> bool:
        targets = self.graph.n if item.kind == "isochrone" else len(item.targets)
        return kernels.use_for_one_to_all(self.index, targets)

    def verify(self, check: Check) -> None:
        graph = self.graph
        for item in self.items[:VERIFY_SAMPLE]:
            (got,) = batch_plan(self.index, (item,))
            started = now_ns()
            rows = {s: dijkstra_arrivals(graph, s, item.t) for s in item.sources}
            check.oracle_ns.append((now_ns() - started) // len(item.sources))
            if item.kind == "one_to_many":
                row = rows[item.sources[0]]
                expected = {target: row[target] for target in item.targets}
            elif item.kind == "matrix":
                expected = {
                    (s, target): rows[s][target]
                    for s in item.sources
                    for target in item.targets
                }
            else:
                row = rows[item.sources[0]]
                expected = [
                    station
                    for arr, station in sorted(
                        (arr, station)
                        for station, arr in enumerate(row)
                        if arr is not None and arr - item.t <= item.budget
                    )
                ]
            check.compare(repr(item)[:120], got, expected)

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        index, items = self.index, self.items
        size = len(items)
        lap_items = items[self.warm : self.warm + COUNT_LAP]
        kernel_items = sum(self.uses_kernel(item) for item in lap_items)
        item_ns: List[int] = []

        def op(i: int) -> int:
            item = items[i % size]
            t0 = now_ns()
            batch_plan(index, (item,))
            t1 = now_ns()
            root = tracer.add("request", t0, t1, -1, i)
            tracer.add(f"core.batch.{item.kind}", t0, t1, root, i)
            if self.uses_kernel(item):
                t1 = now_ns()
                kernels.one_to_all_arrivals(index, item.sources[0], item.t)
                t2 = now_ns()
                tracer.add("core.kernels.one_to_all", t1, t2, root, i)
                tracer.spans[root] = ("request", t0, t2, -1, i)
            item_ns.append(t1 - t0)
            return self.classes.index(item.kind)

        first = self.warm + COUNT_LAP
        lap = self.lap(op, first=first, seconds=0.6 * seconds)
        return {
            "batch.one_to_many_us": tracer.mean("core.batch.one_to_many", 1e3, "us"),
            "batch.matrix_us": tracer.mean("core.batch.matrix", 1e3, "us"),
            "batch.isochrone_us": tracer.mean("core.batch.isochrone", 1e3, "us"),
            "kernels.one_to_all_us": tracer.mean("core.kernels.one_to_all", 1e3, "us"),
            "kernels.one_to_all_share": Metric(
                kernel_items / COUNT_LAP, "ratio", COUNT_LAP
            ),
            "trace.overhead_share": self.overhead(
                statistics.fmean(item_ns), 0.3 * seconds, first + lap.ops_done
            ),
        }


# ----------------------------------------------------------------------
# http_uniform / http_zipf
# ----------------------------------------------------------------------


def http_get(port: int, path: str, spans: Optional[list] = None) -> bytes:
    """One ``GET`` on a fresh connection; a non-200 answer raises.
    ``spans`` receives the four client-side timestamps."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        t0 = now_ns()
        conn.connect()
        t1 = now_ns()
        conn.request("GET", path)
        response = conn.getresponse()
        t2 = now_ns()
        body = response.read()
        t3 = now_ns()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"{path}: HTTP {response.status}")
    if spans is not None:
        spans[:] = (t0, t1, t2, t3)
    return body


def http_objective(request: QueryRequest, body: bytes):
    data = json.loads(body)["data"]
    if request.query_type == "profile":
        return tuple(tuple(pair) for pair in data["pairs"])
    journey = data["journey"]
    if journey is None:
        return None
    return {
        "eap": journey["arr"],
        "ldp": journey["dep"],
        "sdp": journey["arr"] - journey["dep"],
    }[request.query_type]


class HttpUniform(Workload):
    name = "http_uniform"
    #: Fill the cache first, so every miss of the window also evicts.
    warm = CACHE_SIZE + 300
    #: Distinct keys at the head of ``walk``, requested once; the rest
    #: of ``walk`` is the sequence, walked cyclically.  The cache state
    #: is then a function of the position alone.
    prefill = 0
    supervisor: Optional[ServingSupervisor] = None

    def __init__(self, seed: int, smoke: bool, tmp: Path) -> None:
        super().__init__(seed, smoke, tmp)
        self.spawn_ready_s: List[float] = []

    def make_inputs(self, graph) -> None:
        self.walk = inputs.point_requests(graph, self.seed, SEQUENCE)
        self.inputs_digest = inputs.digest(self.walk)

    def request_at(self, i: int) -> QueryRequest:
        head = self.prefill
        if i >= head:
            i = head + (i - head) % (len(self.walk) - head)
        return self.walk[i]

    def prepare(self) -> None:
        super().prepare()
        started = now_ns()
        self.supervisor = ServingSupervisor(
            mapped_planner_factory(self.graph, str(self.index_path)),
            workers=1,
            resilience=ResilienceConfig(cache_size=CACHE_SIZE),
        )
        self.port = self.supervisor.start()
        self.supervisor.wait_ready(timeout_s=60)
        self.spawn_ready_s.append((now_ns() - started) / 1e9)
        self.paths = {
            request: (inputs.http_path(request), KIND_ID[request.query_type])
            for request in self.walk
        }
        port, paths, request_at = self.port, self.paths, self.request_at

        def op(i: int) -> int:
            path, cls = paths[request_at(i)]
            http_get(port, path)
            return cls

        self.op = op

    def release(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None

    def worker_pid(self) -> int:
        (pid,) = self.supervisor.worker_pids().values()
        return pid

    def rss_mb(self) -> float:
        return peak_rss_mb(self.worker_pid())

    def verify(self, check: Check) -> None:
        check.points(
            lambda request: http_objective(
                request, http_get(self.port, inputs.http_path(request))
            ),
            self.graph,
            self.walk[:VERIFY_SAMPLE],
        )

    def server_counters(self) -> Dict[str, int]:
        data = json.loads(http_get(self.port, "/v1/metrics"))["data"]
        return {
            **{f"cache_{k}": data["cache"][k] for k in ("hits", "misses", "evictions")},
            **data["query_metrics"],
        }

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        stamps: list = []
        trip_ns: List[int] = []
        handler_us: List[int] = []

        def op(i: int) -> int:
            path, cls = self.paths[self.request_at(i)]
            body = http_get(self.port, path, stamps)
            t0, t1, t2, t3 = stamps
            elapsed_us = json.loads(body)["meta"]["elapsed_us"]
            root = tracer.add("request", t0, t3, -1, i)
            tracer.add("client.connect", t0, t1, root, i)
            ttfb = tracer.add("client.ttfb", t1, t2, root, i)
            # The handler reports a duration, not timestamps: its span is
            # placed at the end of the wait for the first byte.
            tracer.add("service.handler", t2 - 1000 * elapsed_us, t2, ttfb, i)
            tracer.add("client.read", t2, t3, root, i)
            trip_ns.append(t3 - t0)
            handler_us.append(elapsed_us)
            return cls

        before = self.server_counters()
        lap = self.lap(op, first=self.warm, count=COUNT_LAP)
        after = self.server_counters()
        delta = {key: after[key] - before[key] for key in after}
        lookups = delta["cache_hits"] + delta["cache_misses"]
        first = self.warm + COUNT_LAP
        timed = self.lap(op, first=first, seconds=0.45 * seconds)
        errors = lap.failed + timed.failed
        trip_us = statistics.fmean(trip_ns) / 1e3
        handler = statistics.fmean(handler_us)
        metrics = {
            "cache.hit_rate": Metric(delta["cache_hits"] / lookups, "ratio", lookups),
            "cache.evictions": Metric(delta["cache_evictions"], "count", lookups),
            "store.labels_scanned_per_query": Metric(
                delta["labels_scanned"] / delta["queries"] if delta["queries"] else 0.0,
                "count",
                delta["queries"],
            ),
            "service.handler_us": Metric(handler, "us", len(handler_us)),
            "service.http_overhead_us": Metric(
                trip_us - handler, "us", len(handler_us)
            ),
            "service.errors": Metric(errors, "count", len(trip_ns) + errors),
            "serving.spawn_ready_s": Metric(
                statistics.median(self.spawn_ready_s), "s", len(self.spawn_ready_s)
            ),
            "serving.worker_rss_mb": Metric(self.rss_mb(), "MB", 1),
            "client.connect_us": tracer.mean("client.connect", 1e3, "us"),
            "client.ttfb_us": tracer.mean("client.ttfb", 1e3, "us"),
            "client.read_us": tracer.mean("client.read", 1e3, "us"),
            "trace.overhead_share": self.overhead(
                statistics.fmean(trip_ns), 0.25 * seconds, first + timed.ops_done
            ),
        }
        replayed, replayed_us = self.replay(tracer)
        metrics.update(replayed)
        self.checks["replay_share_of_handler"] = replayed_us / handler
        return metrics

    def replay(self, tracer: Tracer) -> Tuple[Dict[str, Metric], float]:
        """The request sequence of the count-bounded lap once more, in
        process, through the parts a handler is made of; also returns
        their mean sum per request of that lap, in us."""
        planner = TTLPlanner(self.graph, index=self.index)
        config = ResilienceConfig(cache_size=CACHE_SIZE)
        executor = ResilientExecutor(config)
        cache = AnswerCache(config.cache_size, bucket_s=config.cache_bucket_s)
        total = self.warm + COUNT_LAP
        # The bare plan of every request, in a pass of its own: both
        # sides of the executor's difference then meet the same caches.
        bare_ns: List[int] = []
        for i in range(total):
            request = self.request_at(i)
            t0 = now_ns()
            planner.plan(request)
            bare_ns.append(now_ns() - t0)
        executor_extra: List[int] = []
        dumps_ns: List[int] = []
        handled_ns = 0
        for i in range(total):
            request = self.request_at(i)
            kind = request.query_type
            t = request.t_end if kind == "ldp" else request.t
            t_end = request.t_end if kind in ("sdp", "profile") else None
            t0 = now_ns()
            key = cache.make_key(
                kind, request.source, request.destination, t,
                epoch="replay", generation=0, t_end=t_end,
            )
            body = cache.get(key)
            t1 = now_ns()
            root = tracer.add("replay", t0, t1, -1, i)
            tracer.add("serving.cache.get", t0, t1, root, i)
            if body is None:
                result, _ = executor.run(lambda: planner.plan(request))
                t2 = now_ns()
                if kind == "profile":
                    body = {"pairs": [list(pair) for pair in result.pairs]}
                else:
                    journey = result.journey
                    body = {"journey": journey.to_dict() if journey else None}
                t3 = now_ns()
                cache.put(key, body, static_ok=True, t_end=t_end)
                t4 = now_ns()
                tracer.add("resilience.executor", t1, t2, root, i)
                tracer.add("service.to_dict", t2, t3, root, i)
                tracer.add("serving.cache.put", t3, t4, root, i)
                executor_extra.append((t2 - t1) - bare_ns[i])
                t1 = t4
            t6 = now_ns()
            json.dumps({"data": body, "meta": {"elapsed_us": 0, "degraded": False, "worker": 0}})
            t7 = now_ns()
            dumps_ns.append(t7 - t6)
            tracer.spans[root] = ("replay", t0, t1, -1, i)
            if i >= self.warm:
                handled_ns += t1 - t0
        started = now_ns()
        swept = cache.revalidate(generation=1)
        revalidate_ms = (now_ns() - started) / 1e6
        to_dict = tracer.durations_ns("service.to_dict")
        return {
            "resilience.executor_us": mean_metric(executor_extra, 1e3, "us"),
            "cache.get_us": tracer.mean("serving.cache.get", 1e3, "us"),
            "cache.put_us": tracer.mean("serving.cache.put", 1e3, "us"),
            "cache.revalidate_ms": Metric(revalidate_ms, "ms", swept),
            "service.serialize_us": Metric(
                (sum(to_dict) + sum(dumps_ns)) / len(dumps_ns) / 1e3,
                "us",
                len(dumps_ns),
            ),
        }, handled_ns / COUNT_LAP / 1e3


class HttpZipf(HttpUniform):
    name = "http_zipf"

    def make_inputs(self, graph) -> None:
        keys, sequence = inputs.zipf_requests(graph, self.seed, SEQUENCE)
        self.walk, self.prefill = keys + sequence, len(keys)
        self.inputs_digest = inputs.digest(self.walk)
        self.warm = len(keys) + 300  # the keys all fit the cache


# ----------------------------------------------------------------------
# live_churn
# ----------------------------------------------------------------------


class LiveChurn(Workload):
    name = "live_churn"
    classes = ("eap", "ldp", "sdp", "event")
    counted = ("eap", "ldp", "sdp")
    # A pass holds 2000 reads, so 20 beyond its p99, all of them sdp
    # fallbacks that take 2 to 25 ms: the per-pass p99 moves between 5.5
    # and 10.5 ms inside one window.  The window's 16000 reads have one.
    pooled_tail = True

    def make_inputs(self, graph) -> None:
        self.requests = inputs.live_requests(graph, self.seed, SEQUENCE)
        self.records = list(synthetic_feed(graph, rate=FEED_RATE, seed=FEED_SEED))
        self.inputs_digest = inputs.digest(
            self.requests + [(r.at, r.event.to_dict()) for r in self.records]
        )
        #: Operations per pass: every event, then its reads.
        self.pass_ops = len(self.records) * (1 + READS_PER_EVENT)
        self.warm = self.round_ops = self.pass_ops

    def prepare(self) -> None:
        super().prepare()
        self.engine = None
        self.op = self.make_op(
            lambda engine, request, i: engine.plan(request),
            lambda engine, record, i: announce(engine, record),
        )

    def make_op(self, read: Callable, write: Callable) -> Callable[[int], int]:
        """``op(i)`` walking the pass pattern: a fresh engine, then every
        record ``write(engine, record, i)`` followed by its
        ``read(engine, request, i)`` calls."""
        graph, index = self.graph, self.index
        records, requests = self.records, self.requests
        size, stride, pass_ops = len(requests), 1 + READS_PER_EVENT, self.pass_ops
        event_cls = self.classes.index("event")
        kind_cls = [self.classes.index(r.query_type) for r in requests]

        def op(i: int) -> int:
            at = i % pass_ops
            if at % stride:
                read(self.engine, requests[i % size], i)
                return kind_cls[i % size]
            if at == 0:
                self.engine = LiveOverlayEngine(graph, index=index)
                self.engine.preprocess()
            write(self.engine, records[at // stride], i)
            return event_cls

        return op

    def verify(self, check: Check) -> None:
        """A fresh replay; after every event a few reads are compared
        with temporal Dijkstra on the overlay graph of that moment."""
        engine = LiveOverlayEngine(self.graph, index=self.index)
        engine.preprocess()
        reads = -(-VERIFY_SAMPLE // len(self.records))
        for e, record in enumerate(self.records):
            announce(engine, record)
            check.points(
                lambda request: objective(request, engine.plan(request)),
                engine.overlay,
                self.requests[e * reads : (e + 1) * reads],
            )

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        query_ns: List[int] = []

        def read(engine, request: QueryRequest, i: int) -> None:
            t0 = now_ns()
            engine.plan(request)
            t1 = now_ns()
            path = "fast" if engine.last_query_fast_path else "fallback"
            kind = request.query_type
            engine.static_answer_valid(
                kind,
                request.source,
                request.destination,
                request.t_end if kind == "ldp" else request.t,
                request.t_end if kind == "sdp" else None,
            )
            t2 = now_ns()
            root = tracer.add("request", t0, t2, -1, i)
            tracer.add(f"live.query.{path}", t0, t1, root, i)
            tracer.add("live.certify", t1, t2, root, i)
            query_ns.append(t1 - t0)

        def write(engine, record, i: int) -> None:
            t0 = now_ns()
            if record.at > engine.now:
                engine.advance_to(record.at)
            t1 = now_ns()
            engine.apply_event(record.event)
            t2 = now_ns()
            root = tracer.add("event", t0, t2, -1, i)
            tracer.add("live.advance", t0, t1, root, i)
            tracer.add("live.apply_event", t1, t2, root, i)

        op = self.make_op(read, write)
        # Count-bounded lap: one whole pass on a fresh engine.
        self.lap(op, first=self.warm, count=self.pass_ops)
        stats = self.engine.stats.snapshot()
        first = self.warm + self.pass_ops
        timed = self.lap(
            op, first=first, seconds=0.4 * seconds, round_ops=self.pass_ops
        )
        return {
            "live.fast_path_rate": Metric(
                stats["fast_path_rate"], "ratio", stats["queries"]
            ),
            "live.advance_ms": tracer.mean("live.advance", 1e6, "ms"),
            "live.apply_event_ms": tracer.mean("live.apply_event", 1e6, "ms"),
            "live.fast_us": tracer.mean("live.query.fast", 1e3, "us"),
            "live.fallback_ms": tracer.mean("live.query.fallback", 1e6, "ms"),
            "live.certify_us": tracer.mean("live.certify", 1e3, "us"),
            "trace.overhead_share": self.overhead(
                statistics.fmean(query_ns),
                0.25 * seconds,
                first + timed.ops_done,
            ),
        }


# ----------------------------------------------------------------------
# index_build
# ----------------------------------------------------------------------


class IndexBuild(Workload):
    name = "index_build"
    dataset = "Sweden"
    scale = 2.0
    classes = counted = ("cycle",)
    warm = 0
    round_ops = 1

    def make_inputs(self, graph) -> None:
        # The only input is the catalogue dataset; the seed picks the
        # probe and oracle samples.
        self.inputs_digest = inputs.digest([(self.dataset, self.scale, self.seed)])

    def prepare(self) -> None:
        """Set-up is dataset generation only: building is the workload."""
        self.tracer: Optional[Tracer] = None
        self.farm_result: Optional[Tuple[float, bool]] = None

    def op(self, i: int) -> int:
        self.index = build_cycle(
            self.graph, self.index_path, self.log, self.tracer, i
        )
        return 0

    def farm(self) -> Tuple[float, bool]:
        """``build_index_parallel(jobs=2)``: seconds, and whether its
        labels equal the serial build's byte for byte."""
        unpin()  # the one place that needs a second CPU
        try:
            started = now_ns()
            parallel = build_index_parallel(self.graph, jobs=2)
            seconds = (now_ns() - started) / 1e9
        finally:
            pin_one_cpu()
        return seconds, label_digest(parallel) == label_digest(self.index)

    def verify(self, check: Check) -> None:
        report = verify_index(self.index, seed=self.seed)
        check.checked += report.labels_checked + report.queries_checked
        errors = report.label_errors + report.query_errors
        check.failed += len(errors)
        check.messages += errors[:5]
        if self.farm_result is None:
            self.farm_result = self.farm()
        check.compare("serial vs jobs=2 label bytes", self.farm_result[1], True)

    def traced(self, tracer: Tracer, seconds: float) -> Dict[str, Metric]:
        self.tracer = tracer
        self.lap(self.op, seconds=0.4 * seconds)
        self.tracer = None
        cycle_ns = tracer.durations_ns("cycle")
        self.farm_result = self.farm()
        return {
            "buildfarm.jobs2_s": Metric(self.farm_result[0], "s", 1),
            "buildfarm.identical": Metric(float(self.farm_result[1]), "count", 1),
            "trace.overhead_share": self.overhead(
                statistics.fmean(cycle_ns), 0.3 * seconds, 0
            ),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        PointUniform,
        BatchAccess,
        HttpUniform,
        HttpZipf,
        LiveChurn,
        IndexBuild,
    )
}
