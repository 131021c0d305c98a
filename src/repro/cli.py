"""Command-line interface: ``repro-ttl``.

Subcommands:

* ``datasets``                 — list the dataset catalogue.
* ``info NAME``                — characteristics of one dataset.
* ``generate NAME DIR``        — write a dataset as a CSV bundle.
* ``build NAME INDEX``         — build a TTL index and save it
  (``--regions K`` builds a *federation directory* instead: per-region
  shards, border index, ``TTLFED01`` manifest).
* ``partition NAME``           — preview a region partition (sizes,
  cut connections, border stops) without building anything.
* ``query NAME KIND U V ...``  — answer one query with every method.
* ``bench EXPERIMENT``         — run one paper experiment and print
  its table (``table3``, ``fig3``–``fig10``, ``table4`` or ``all``).
* ``verify NAME INDEX``        — fsck a saved index against its graph.
* ``profile NAME U V``         — all non-dominated journeys in a window.
* ``analyze NAME``             — label distribution + hub/reachability
  reports.
* ``report [-o FILE]``         — run all experiments, emit a markdown
  reproduction report with shape verdicts.
* ``serve NAME``               — HTTP JSON API over a TTL planner
  (``--live`` serves a disruption-aware engine with ``/live/*``;
  ``--workers K --mmap --index FILE`` preforks K processes sharing
  one memory-mapped index behind one listening socket;
  ``--federation DIR`` serves a federation: one worker per region
  shard behind a stitching router).
* ``live NAME``                — replay a disruption feed against the
  live overlay engine and report fast-path / fallback statistics.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from typing import List, Optional

from repro.baselines import CHTPlanner, CSAPlanner
from repro.bench.harness import BenchConfig, PlannerCache
from repro.core import (
    CompressedTTLPlanner,
    TTLPlanner,
    build_index,
    load_index,
    save_index,
)
from repro.algorithms import DijkstraPlanner
from repro.datasets import DATASETS, dataset_names, load_dataset
from repro.errors import QueryError
from repro.graph import save_graph_csv
from repro.query import QueryRequest
from repro.timeutil import format_duration, format_time, parse_time


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    """``--scale`` plus ``--seed`` for commands that load one dataset.

    (The ``live`` subcommand keeps its own ``--seed`` for the
    disruption feed, so it takes only ``--scale``.)
    """
    _add_scale(parser)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the dataset's catalogue seed (reproducible "
        "alternate instances of the same network family)",
    )


def _cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':12s} {'kind':8s} {'stations':>8s} {'routes':>6s}")
    for name in dataset_names():
        info = DATASETS[name]
        print(
            f"{info.name:12s} {info.kind:8s} {info.stations:8d} "
            f"{info.routes:6d}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    stats = graph.stats()
    print(f"dataset      {args.name} (scale {args.scale})")
    print(f"stations     {stats.num_stations}")
    print(f"connections  {stats.num_connections}")
    print(f"trips        {stats.num_trips}")
    print(f"routes       {stats.num_routes}")
    print(
        f"service      {format_time(stats.min_time)} - "
        f"{format_time(stats.max_time)}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    save_graph_csv(graph, args.directory)
    print(f"wrote {graph.n} stations / {graph.m} connections to "
          f"{args.directory}")
    return 0


def _resolve_partition(graph, args: argparse.Namespace):
    """Partition per the shared --regions/--from-names/--region-seed
    flags (``partition`` and ``build --regions``)."""
    from repro.errors import FederationError
    from repro.federation import partition_graph, region_map_from_names

    if args.from_names:
        partition = region_map_from_names(graph)
        if partition is None:
            raise FederationError(
                "dataset station names carry no region tags",
                hint="--from-names needs /r<i>/ or /c<i>/ name "
                "segments (TwinCities, RheinRuhr, Sweden); use "
                "--regions K for the min-cut heuristic instead",
            )
        return partition
    return partition_graph(graph, args.regions, seed=args.region_seed)


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    partition = _resolve_partition(graph, args)
    borders = partition.border_stops(graph)
    print(f"dataset      {args.name} (scale {args.scale})")
    print(f"regions      {partition.num_regions} "
          f"(sizes {partition.sizes()})")
    print(f"cut          {partition.cut_size(graph)} of {graph.m} "
          f"connections")
    print(f"border stops {len(borders)} of {graph.n} stations")
    print(f"digest       {partition.digest()[:16]}")
    if args.verbose:
        for stop in borders:
            print(f"  border {stop:5d}  region "
                  f"{partition.region_of[stop]}  "
                  f"{graph.station_name(stop)}")
    return 0


def _cmd_build_federation(args: argparse.Namespace, graph) -> int:
    from repro.federation import build_federation

    partition = _resolve_partition(graph, args)
    manifest = build_federation(
        graph,
        partition,
        args.index,
        order=args.order,
        jobs=args.jobs,
        dataset={
            "name": args.name,
            "scale": args.scale,
            "seed": args.seed,
        },
        progress=print,
    )
    for entry in manifest.regions:
        print(f"region {entry.region}  {len(entry.stops):5d} stations  "
              f"{entry.labels:7d} labels  {entry.path}")
    print(f"border stops {len(manifest.border_stops)}")
    print(f"epoch        {manifest.epoch}")
    print(f"saved to     {args.index}/federation.json")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    if args.regions is not None or args.from_names:
        return _cmd_build_federation(args, graph)

    use_farm = (
        args.jobs > 1
        or args.checkpoint_dir is not None
        or args.resume
    )
    if use_farm:
        from repro.buildfarm import build_index_parallel

        def farm_progress(snapshot) -> None:
            print(
                f"\r  [{snapshot.phase:7s}] "
                f"chunks {snapshot.chunks_done}/{snapshot.chunks_total}  "
                f"hubs {snapshot.hubs_done}/{snapshot.hubs_total}  "
                f"labels {snapshot.labels_committed} "
                f"({snapshot.labels_per_second:.0f}/s)",
                end="",
                flush=True,
            )

        index = build_index_parallel(
            graph,
            order=args.order,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            progress=farm_progress,
            mp_start=args.mp_start,
            fail_after_chunks=args.fail_after_chunks,
        )
        print()
    else:

        def progress(done: int, total: int) -> None:
            if done % max(1, total // 20) == 0 or done == total:
                print(
                    f"\r  building: {done}/{total} hubs", end="", flush=True
                )

        index = build_index(graph, order=args.order, progress=progress)
        print()
    save_index(index, args.index)
    stats = index.stats()
    build = index.build_stats
    print(f"labels       {stats.num_labels}")
    print(f"avg/node     {stats.avg_labels_per_node:.1f}")
    if build is not None:
        print(f"build time   {build.seconds:.2f}s")
        if use_farm:
            print(
                f"pipeline     jobs {build.extra.get('jobs')}  "
                f"chunks {build.extra.get('chunks')}  "
                f"resumed {build.extra.get('chunks_resumed')}"
            )
    print(f"saved to     {args.index}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    planners = [
        DijkstraPlanner(graph),
        CSAPlanner(graph),
        CHTPlanner(graph),
    ]
    if args.index:
        index = load_index(args.index, graph)
        planners.append(TTLPlanner(graph, index=index))
    else:
        planners.append(TTLPlanner(graph))
    planners.append(CompressedTTLPlanner(graph))

    t = parse_time(args.start) if args.start else None
    t_end = parse_time(args.end) if args.end else None
    needs = {"eap": "--start", "ldp": "--end", "sdp": "--start and --end"}
    request = QueryRequest(
        args.kind,
        args.source,
        args.dest,
        t=None if args.kind == "ldp" else t,
        t_end=t_end,
    )
    try:
        request.validated()
    except QueryError:
        print(f"{args.kind} requires {needs[args.kind]}", file=sys.stderr)
        return 2
    for planner in planners:
        planner.preprocess()
        journey = planner.plan(request).journey
        if journey is None:
            print(f"{planner.name:9s} no feasible journey")
        else:
            print(
                f"{planner.name:9s} dep {format_time(journey.dep)}  "
                f"arr {format_time(journey.arr)}  "
                f"({format_duration(journey.duration)}, "
                f"{journey.transfers} transfers)"
            )
    if args.stats:
        print()
        print("per-planner query metrics:")
        for planner in planners:
            metrics = getattr(planner, "metrics", None)
            if metrics is None:
                continue
            snap = metrics.snapshot()
            counters = "  ".join(
                f"{key}={value}" for key, value in snap.items()
            )
            print(f"{planner.name:9s} {counters}")
    return 0


_EXPERIMENTS = {
    "table3": "table3_datasets",
    "fig3": "figure3_sdp",
    "fig4": "figure4_space",
    "fig5": "figure5_preprocessing",
    "table4": "table4_compression",
    "fig6": "figure6_eap",
    "fig7": "figure7_ldp",
    "fig8": "figure8_construction",
    "fig9": "figure9_order_size",
    "fig10": "figure10_order_time",
}


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments

    config = BenchConfig.from_env()
    config.scale = args.scale
    if args.datasets:
        config.datasets = args.datasets.split(",")
    if args.queries:
        config.num_queries = args.queries
    cache = PlannerCache(config)

    names = list(_EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    for name in names:
        attr = _EXPERIMENTS.get(name)
        if attr is None:
            print(f"unknown experiment: {name}", file=sys.stderr)
            return 2
        result = getattr(experiments, attr)(cache)
        print(result)
        print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verify import verify_index

    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    index = load_index(args.index, graph)
    report = verify_index(
        index,
        label_samples=args.samples,
        query_samples=args.samples,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.timeutil import format_duration, format_time as fmt

    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    planner = TTLPlanner(graph)
    t = parse_time(args.start)
    t_end = parse_time(args.end)
    pairs = planner.profile(args.source, args.dest, t, t_end)
    if not pairs:
        print("no feasible journeys in the window")
        return 0
    print(f"{'depart':>9s} {'arrive':>9s} {'duration':>9s}")
    for dep, arr in pairs:
        print(f"{fmt(dep):>9s} {fmt(arr):>9s} "
              f"{format_duration(arr - dep):>9s}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        hub_report,
        label_distribution,
        reachability_report,
    )
    from repro.core import build_index

    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    print(reachability_report(graph).render())
    index = build_index(graph)
    print()
    print(label_distribution(index).render())
    print()
    print(hub_report(index).render(graph))
    return 0


def _cmd_serve_federation(args: argparse.Namespace, graph, config) -> int:
    from repro.federation.serve import FederationSupervisor

    manifest_path = args.federation
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "federation.json")
    supervisor = FederationSupervisor(
        graph,
        manifest_path,
        resilience=config,
        host=args.host,
        port=args.port,
        mmap=True,
    )
    port = supervisor.start()
    supervisor.wait_ready()
    print(
        f"serving {args.name} federation on http://{args.host}:{port} "
        f"with {supervisor.manifest.num_regions} region workers "
        f"(epoch {supervisor.manifest.epoch}; intra-region queries "
        "proxied to the owning shard, cross-region stitched through "
        "the border index; Ctrl-C stops, SIGTERM drains)",
        flush=True,
    )
    for region, worker_port in sorted(supervisor.worker_ports.items()):
        print(f"  region {region} worker on port {worker_port}")

    import signal as _signal

    drain_requested = threading.Event()
    _signal.signal(
        _signal.SIGTERM, lambda signum, frame: drain_requested.set()
    )
    try:
        while not drain_requested.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive
        supervisor.stop()
        return 0
    clean = supervisor.drain(grace_s=config.drain_grace_s)
    print("drained" if clean else "drain escalated to SIGKILL", flush=True)
    return 0 if clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience import ResilienceConfig
    from repro.service import PlannerService

    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    if args.mmap and not args.index and not args.federation:
        print(
            "error: --mmap requires --index FILE (a saved TTLIDX03 "
            "index; build one with 'repro-ttl build')",
            file=sys.stderr,
        )
        return 2
    config = ResilienceConfig(
        deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        max_inflight=args.max_inflight,
        cache_size=args.cache_size,
        drain_grace_s=args.drain_grace,
    )

    if args.federation:
        return _cmd_serve_federation(args, graph, config)

    if args.workers > 1:
        from repro.serving import (
            ServingSupervisor,
            live_mapped_planner_factory,
            mapped_planner_factory,
        )

        journal_path = None
        if args.live:
            # Live prefork: the supervisor owns a durable journal;
            # workers tail it, so every overlay converges.
            journal_path = args.journal
            if journal_path is None:
                import tempfile

                fd, journal_path = tempfile.mkstemp(
                    prefix="repro-journal-", suffix=".wal"
                )
                os.close(fd)
                os.unlink(journal_path)
        if args.index and args.mmap:
            # One full digest pass up front; workers then map the
            # verified file lazily (verify=False keeps their cold
            # start O(header) instead of faulting every page in).
            load_index(args.index, graph, mmap=True, verify=True)
            if args.live:
                factory = live_mapped_planner_factory(
                    graph, args.index, verify=False
                )
            else:
                factory = mapped_planner_factory(
                    graph, args.index, verify=False
                )
            sharing = "mmap-shared index"
        else:
            if args.index:
                index = load_index(args.index, graph)
            else:
                index = build_index(graph)
            # Forked workers inherit the heap index copy-on-write.
            if args.live:
                from repro.live import LiveOverlayEngine

                factory = lambda: LiveOverlayEngine(  # noqa: E731
                    graph, index=index
                )
            else:
                factory = lambda: TTLPlanner(  # noqa: E731
                    graph, index=index
                )
            sharing = "copy-on-write heap index"
        supervisor = ServingSupervisor(
            factory,
            workers=args.workers,
            resilience=config,
            host=args.host,
            port=args.port,
            journal_path=journal_path,
            control_port=args.control_port,
        )
        port = supervisor.start()
        supervisor.wait_ready()
        print(
            f"serving {args.name} on http://{args.host}:{port} with "
            f"{args.workers} workers ({sharing}; /v1 endpoints; "
            "Ctrl-C stops, SIGTERM drains)",
            flush=True,
        )
        if args.live:
            print(
                f"live mutations via {supervisor.coordinator_url} "
                f"(journal: {journal_path}); workers answer 409 and "
                "point there",
                flush=True,
            )

        # SIGTERM = graceful drain: stop accepting, finish in-flight
        # requests within the grace window, fsync the journal, exit 0.
        import signal as _signal

        drain_requested = threading.Event()
        _signal.signal(
            _signal.SIGTERM, lambda signum, frame: drain_requested.set()
        )
        try:
            while not drain_requested.wait(timeout=1.0):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            supervisor.stop()
            return 0
        clean = supervisor.drain(grace_s=config.drain_grace_s)
        print(
            "drained" if clean else "drain escalated to SIGKILL",
            flush=True,
        )
        return 0 if clean else 1

    if args.live:
        from repro.live import LiveOverlayEngine

        planner = LiveOverlayEngine(graph)
        endpoints = (
            "stations eap ldp sdp healthz metrics resilience "
            "live/events live/stats live/advance live/clear"
        )
    else:
        if args.index:
            index = load_index(args.index, graph, mmap=args.mmap)
            planner = TTLPlanner(graph, index=index)
        else:
            planner = TTLPlanner(graph, build_jobs=args.build_jobs)
        endpoints = "stations eap ldp sdp profile healthz metrics resilience"
    service = PlannerService(planner, resilience=config)
    port = service.start(host=args.host, port=args.port, warm=not args.no_warm)
    if args.no_warm:
        print("index building in the background; /v1/healthz shows progress")
    endpoints = " ".join(f"/v1/{name}" for name in endpoints.split())
    print(f"serving {args.name} on http://{args.host}:{port} "
          f"(endpoints: {endpoints}; Ctrl-C stops)",
          flush=True)
    try:
        import time as _time

        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        service.stop()
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.datasets import QueryWorkload
    from repro.live import (
        EventFeed,
        LiveOverlayEngine,
        replay,
        synthetic_feed,
    )

    graph = load_dataset(args.name, scale=args.scale)
    engine = LiveOverlayEngine(graph)
    engine.preprocess()
    if args.feed:
        with open(args.feed) as fh:
            feed = EventFeed.from_json(fh.read())
    else:
        feed = synthetic_feed(graph, rate=args.rate, seed=args.seed)
    applied = 0
    for at, event, event_id in replay(engine, feed):
        applied += 1
        if args.verbose:
            print(f"  t={format_time(at)}  #{event_id}  {event.to_dict()}")
    taint = engine.taint_report()
    print(f"dataset      {args.name} (scale {args.scale})")
    print(f"events       {applied} applied, {len(engine.events())} active")
    print(f"tainted      {taint.num_tainted}/{taint.num_labels} labels "
          f"({100.0 * taint.fraction:.1f}%)")

    from repro.bench.harness import query_request

    queries = QueryWorkload(graph, seed=args.seed).generate(args.queries)
    kinds = ("eap", "ldp", "sdp")
    for i, query in enumerate(queries):
        engine.plan(query_request(query, kinds[i % 3]))
    stats = engine.stats
    print(f"queries      {stats.queries} "
          f"(mixed eap/ldp/sdp, seed {args.seed})")
    print(f"fast path    {stats.fast_path} ({100.0 * stats.fast_path_rate:.1f}%)")
    print(f"fallbacks    {stats.fallbacks} "
          f"(taint {stats.fallback_taint}, "
          f"improvement {stats.fallback_improvement}, "
          f"flood {stats.fallback_flood})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import generate_report

    config = BenchConfig.from_env()
    config.scale = args.scale
    if args.datasets:
        config.datasets = args.datasets.split(",")
    if args.queries:
        config.num_queries = args.queries
    report = generate_report(PlannerCache(config))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ttl",
        description="Timetable Labelling (SIGMOD 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset catalogue")

    p = sub.add_parser("info", help="show dataset characteristics")
    p.add_argument("name")
    _add_dataset_args(p)

    p = sub.add_parser("generate", help="write a dataset as CSV")
    p.add_argument("name")
    p.add_argument("directory")
    _add_dataset_args(p)

    p = sub.add_parser("build", help="build and save a TTL index")
    p.add_argument("name")
    p.add_argument("index", help="output index file")
    p.add_argument("--order", default="hub")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the build farm (1 = in-process)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="hubs per build-farm chunk (default: auto from --jobs)",
    )
    p.add_argument(
        "--checkpoint-dir",
        help="persist per-chunk shards here; an interrupted build can "
        "be continued with --resume",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from a matching checkpoint in --checkpoint-dir",
    )
    # Hidden: deterministic mid-build abort + start-method override,
    # used by the kill-and-resume tests and the CI smoke job.
    p.add_argument(
        "--fail-after-chunks", type=int, default=None, help=argparse.SUPPRESS
    )
    p.add_argument(
        "--mp-start",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help=argparse.SUPPRESS,
    )
    p.add_argument(
        "--regions",
        type=int,
        default=None,
        metavar="K",
        help="build a K-region federation directory at INDEX instead "
        "of one monolithic index file (per-region shards + border "
        "index + TTLFED01 manifest)",
    )
    p.add_argument(
        "--region-seed",
        type=int,
        default=0,
        help="seed for the min-cut partition heuristic (--regions)",
    )
    p.add_argument(
        "--from-names",
        action="store_true",
        help="derive regions from /r<i>/ or /c<i>/ station-name tags "
        "instead of the heuristic (multi-region/country datasets)",
    )
    _add_dataset_args(p)

    p = sub.add_parser(
        "partition",
        help="preview a region partition without building",
    )
    p.add_argument("name")
    p.add_argument(
        "--regions", type=int, default=2, metavar="K",
        help="number of regions for the min-cut heuristic",
    )
    p.add_argument(
        "--region-seed", type=int, default=0,
        help="seed for the partition heuristic",
    )
    p.add_argument(
        "--from-names",
        action="store_true",
        help="derive regions from station-name tags",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="list every border stop",
    )
    _add_dataset_args(p)

    p = sub.add_parser("query", help="answer one query with every method")
    p.add_argument("name")
    p.add_argument("kind", choices=["eap", "ldp", "sdp"])
    p.add_argument("source", type=int)
    p.add_argument("dest", type=int)
    p.add_argument("--start", help="HH:MM[:SS]")
    p.add_argument("--end", help="HH:MM[:SS]")
    p.add_argument("--index", help="load a saved TTL index")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-planner query metrics after the answers",
    )
    _add_dataset_args(p)

    p = sub.add_parser("bench", help="run a paper experiment")
    p.add_argument(
        "experiment", choices=list(_EXPERIMENTS) + ["all"]
    )
    p.add_argument("--datasets", help="comma-separated subset")
    p.add_argument("--queries", type=int)
    _add_scale(p)

    p = sub.add_parser("verify", help="verify a saved TTL index")
    p.add_argument("name")
    p.add_argument("index")
    p.add_argument("--samples", type=int, default=200)
    _add_dataset_args(p)

    p = sub.add_parser(
        "profile", help="all non-dominated journeys in a window"
    )
    p.add_argument("name")
    p.add_argument("source", type=int)
    p.add_argument("dest", type=int)
    p.add_argument("--start", required=True, help="HH:MM[:SS]")
    p.add_argument("--end", required=True, help="HH:MM[:SS]")
    _add_dataset_args(p)

    p = sub.add_parser("analyze", help="index/network analysis reports")
    p.add_argument("name")
    _add_dataset_args(p)

    p = sub.add_parser("serve", help="serve a planner over HTTP")
    p.add_argument("name")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork worker processes sharing one listening socket "
        "(1 = classic single-process serving)",
    )
    p.add_argument(
        "--index",
        help="serve a saved index file instead of building in-process",
    )
    p.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the --index file (zero-copy; requires the "
        "TTLIDX03 format written by 'repro-ttl build'); with "
        "--workers every process shares one physical copy",
    )
    p.add_argument(
        "--live",
        action="store_true",
        help="serve a disruption-aware live overlay engine",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=2000.0,
        help="per-request wall-clock budget in ms (0 disables; "
        "expired queries answer 504)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent requests before shedding with 429",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="per-worker hot-pair answer cache capacity in entries "
        "(0 disables; live mutations invalidate via taint analysis — "
        "see docs/serving.md)",
    )
    p.add_argument(
        "--no-warm",
        action="store_true",
        help="start serving immediately and build the index in the "
        "background (/v1/healthz reports build progress; queries answer "
        "503 until ready)",
    )
    p.add_argument(
        "--build-jobs",
        type=int,
        default=1,
        help="build-farm worker processes for index construction",
    )
    p.add_argument(
        "--journal",
        metavar="FILE",
        help="durable live-event journal for --live --workers>1: the "
        "supervisor appends every mutation here and workers replay it "
        "(created if missing; recovered + compacted on restart; "
        "defaults to a temp file)",
    )
    p.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="supervisor control-plane port for journalled live "
        "mutations (0 = pick a free port)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds SIGTERM-drain grants in-flight requests per "
        "worker before SIGKILL",
    )
    p.add_argument(
        "--federation",
        metavar="DIR",
        help="serve a federation directory (built with "
        "'build --regions'): one mmap worker per region shard behind "
        "a stitching router",
    )
    _add_dataset_args(p)

    p = sub.add_parser(
        "live", help="replay a disruption feed, report live-engine stats"
    )
    p.add_argument("name")
    p.add_argument("--feed", help="JSON feed file (default: synthetic)")
    p.add_argument("--rate", type=float, default=0.05,
                   help="synthetic disruption rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=300,
                   help="mixed workload size after replay")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print each replayed event")
    _add_scale(p)

    p = sub.add_parser(
        "report", help="run all experiments, emit a markdown report"
    )
    p.add_argument("-o", "--output", help="write to file (default stdout)")
    p.add_argument("--datasets", help="comma-separated subset")
    p.add_argument("--queries", type=int)
    _add_scale(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "info": _cmd_info,
        "generate": _cmd_generate,
        "build": _cmd_build,
        "partition": _cmd_partition,
        "query": _cmd_query,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "profile": _cmd_profile,
        "analyze": _cmd_analyze,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "live": _cmd_live,
    }
    from repro.errors import ReproError

    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Mirror the HTTP API's one error shape on stderr: message,
        # then the offending field and an actionable hint when known.
        print(f"error: {exc}", file=sys.stderr)
        field = getattr(exc, "field", None)
        if field is not None:
            print(f"  field: {field}", file=sys.stderr)
        hint = getattr(exc, "hint", None)
        if hint is not None:
            print(f"  hint: {hint}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
