"""The ledger benchmark: one command, six workloads, every metric by name.

    python3 benchmarks/ledger/run.py [--workload W] [--seed 7]
        [--seconds 10] [--trace 0|1] [--smoke] [--out F]

``--trace 0`` measures the end-to-end metrics with tracing off,
``--trace 1`` is the traced pass that yields the per-layer metrics (and
its own untraced reference lap).  Names, units and bounds live in
``BENCHMARK.json`` at the repository root; README.md explains them.
The last line printed for a workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Each of these turns the program into a different one (scalar kernels,
#: another dispatch threshold, other datasets): refuse to measure it.
FORBIDDEN_ENV = (
    "REPRO_SCALAR_KERNELS",
    "REPRO_KERNEL_MIN_LABELS",
    "REPRO_SCALE",
    "REPRO_DATASETS",
    "REPRO_QUERIES",
)


# The program is measured from its source tree, nothing installed.
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"ledger: no program to measure under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
from measure import (  # noqa: E402
    Metric,
    Tracer,
    lower_quartile,
    pin_one_cpu,
    reset_peak_rss,
    run_ops,
    unpin,
)
from repro.query import QUERY_TYPES  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_REPS,
    WORKLOADS,
    Check,
    probe_events,
    probe_points,
)


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, seconds: float, nproc: int, cpu: int) -> dict:
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------


def scaled(metric: Metric, divisor: float, unit: str) -> Metric:
    return Metric(metric.value / divisor, unit, metric.n)


def end_to_end(w, window, rss_mb: float, check, seed: int):
    """The end-to-end metrics of one untraced pass (``ok_share`` is
    added once the oracle has run), and the probes that were needed: a
    metric comes from the window's own operations where the workload
    performs such operations, otherwise from a probe on its index."""
    log = w.log
    metrics = {
        "setup_s": Metric(statistics.median(w.setup_s), "s", len(w.setup_s)),
        "ops_per_s": window.rate_per_s(w.counted),
        "p50_us": scaled(window.latency_ns(w.counted, 0.50), 1e3, "us"),
        "p99_us": scaled(
            window.latency_ns(w.counted, 0.99, pooled=w.pooled_tail), 1e3, "us"
        ),
    }
    points = window
    if not w.plans_points:
        points = probe_points(w.graph, w.index, seed, check)
    events = window
    if "event" not in w.classes:
        events = probe_events(w.graph, w.index)
    for kind in QUERY_TYPES:
        metrics[f"{kind}_p50_us"] = scaled(
            points.latency_ns((kind,), 0.50), 1e3, "us"
        )
    metrics["event_p50_ms"] = scaled(events.latency_ns(("event",), 0.50), 1e6, "ms")
    metrics["build_s"] = Metric(lower_quartile(log.build_s), "s", len(log.build_s))
    metrics["load_mmap_ms"] = Metric(
        lower_quartile(log.load_mmap_ms), "ms", len(log.load_mmap_ms)
    )
    metrics["index_mb"] = Metric(log.file_bytes / 1e6, "MB", 1)
    metrics["rss_mb"] = Metric(rss_mb, "MB", 1)
    return metrics, [probe for probe in (points, events) if probe is not window]


def setup_layers(w) -> Dict[str, object]:
    """Per-layer metrics every set-up yields: datasets, core.build,
    core.serialize, core.store."""
    log, stats = w.log, w.log.stats
    total_s = lower_quartile(log.total_s)
    cycles = len(log.build_s)
    return {
        "datasets.generate_s": Metric(
            statistics.median(w.generate_s), "s", len(w.generate_s)
        ),
        "build.order_s": Metric(lower_quartile(log.order_s), "s", cycles),
        "build.total_s": Metric(total_s, "s", cycles),
        "build.forward_pops": Metric(stats.forward_pops, "count", 1),
        "build.backward_pops": Metric(stats.backward_pops, "count", 1),
        "build.cover_pruned": Metric(stats.cover_pruned, "count", 1),
        "build.dominance_pruned": Metric(stats.dominance_pruned, "count", 1),
        "build.labels": Metric(stats.num_labels, "count", 1),
        "build.labels_per_s": Metric(stats.num_labels / total_s, "1/s", cycles),
        "serialize.save_ms": Metric(lower_quartile(log.save_ms), "ms", cycles),
        "serialize.load_heap_ms": Metric(
            lower_quartile(log.load_heap_ms), "ms", cycles
        ),
        "serialize.load_mmap_ms": Metric(
            lower_quartile(log.load_mmap_ms), "ms", cycles
        ),
        "serialize.file_bytes": Metric(log.file_bytes, "B", 1),
        "serialize.bytes_per_label": Metric(
            log.file_bytes / stats.num_labels, "B", 1
        ),
        "store.bytes": Metric(log.store_bytes, "B", 1),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    tmp: Path,
    trace_dir: Path,
    spec: dict,
) -> dict:
    reset_peak_rss()
    w = WORKLOADS[name](seed, smoke, tmp)
    check = Check()
    result: dict = {"inputs_sha256": w.inputs_digest}
    try:
        for _ in range(SETUP_REPS):
            w.setup()
        run_ops(w.op, w.classes, count=w.warm)
        if trace == 0:
            window = run_ops(
                w.op, w.classes, first=w.warm, seconds=seconds,
                round_ops=w.round_ops,
            )
            rss_mb = w.rss_mb()
            result["end_to_end"], probes = end_to_end(w, window, rss_mb, check, seed)
            result["raw"] = {
                "p50_us": window.raw_ns(w.counted, 0.50) / 1e3,
                "p99_us": window.raw_ns(w.counted, 0.99) / 1e3,
                "mean_us": window.mean_ns(w.counted) / 1e3,
                "window_s": (window.end - window.begin) / 1e9,
            }
            laps = [window] + probes
            w.verify(check)
        else:
            tracer = Tracer()
            layers = {
                m["name"]: Metric(0.0, m["unit"], 0) for m in spec["per_layer"]
            }
            measured = {**w.traced(tracer, seconds), **setup_layers(w)}
            w.verify(check)
            measured["oracle.dijkstra_us"] = Metric(
                statistics.fmean(check.oracle_ns) / 1e3 if check.oracle_ns else 0.0,
                "us",
                len(check.oracle_ns),
            )
            unknown = set(measured) - set(layers)
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
            layers.update(measured)
            result["per_layer"] = layers
            result["self_time_s"] = {
                span: ns / 1e9 for span, ns in sorted(tracer.self_times_ns().items())
            }
            result["checks"] = w.checks
            tracer.write(trace_dir / f"trace_{name}.jsonl")
            laps = w.laps
    finally:
        w.release()
    attempted = check.checked + sum(lap.ops_done for lap in laps)
    failed = check.failed + sum(lap.failed for lap in laps)
    result["failures"] = check.messages + [e for lap in laps for e in lap.errors]
    if "end_to_end" in result:
        result["end_to_end"]["ok_share"] = Metric(
            1.0 - failed / attempted, "ratio", attempted
        )
    result.update(correct=failed == 0, attempted=attempted, failed=failed)
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def report(name: str, result: dict, out=sys.stdout) -> None:
    for section in ("end_to_end", "per_layer"):
        for metric, m in result.get(section, {}).items():
            if m.n:  # n = 0: a layer this workload never enters
                print(
                    f"{name:14} {metric:32} {m.value:>14.6g} {m.unit:6} n={m.n}",
                    file=out,
                )
    if "raw" in result:
        raw = result["raw"]
        print(
            f"{name:14} raw whole-window: p50 {raw['p50_us']:.1f} us, "
            f"p99 {raw['p99_us']:.1f} us, mean {raw['mean_us']:.1f} us "
            f"over {raw['window_s']:.2f} s",
            file=out,
        )
    for key, value in result.get("checks", {}).items():
        print(f"{name:14} check {key} = {value:.4g}", file=out)
    for line in result["failures"]:
        print(f"{name:14} FAILED {line}", file=out)
    metrics = {
        metric: {"value": m.value, "unit": m.unit}
        for section in ("end_to_end", "per_layer")
        for metric, m in result.get(section, {}).items()
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        file=out,
        flush=True,
    )


def jsonable(result: dict) -> dict:
    plain = dict(result)
    for section in ("end_to_end", "per_layer"):
        if section in plain:
            plain[section] = {
                metric: {"value": m.value, "unit": m.unit, "n": m.n}
                for metric, m in plain[section].items()
            }
    return plain


def append_run(path: Path, run: dict) -> None:
    """``--out``: add this run to the ledger file (a set of runs is
    what ``compare.py`` takes medians and spreads over)."""
    ledger = {"benchmark": "ledger", "runs": []}
    if path.exists():
        ledger = json.loads(path.read_text())
    ledger["runs"].append(run)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all six")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="every workload on Austin (what test_ledger.py runs)",
    )
    parser.add_argument(
        "--out", type=Path, help="append the run to this ledger file; "
        "traces are kept beside it"
    )
    args = parser.parse_args(argv)

    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        print(
            f"ledger: refusing to run with {', '.join(present)} set: "
            "that is a different program",
            file=sys.stderr,
        )
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_one_cpu()
    scratch = ROOT / ".ledger_tmp"
    scratch.mkdir(exist_ok=True)
    run = {
        "environment": environment(args.seed, args.seconds, nproc, cpu),
        "smoke": args.smoke,
        "workloads": {},
    }
    correct = True
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=scratch) as tmp:
            trace_dir = args.out.resolve().parent if args.out else Path(tmp)
            for name in [args.workload] if args.workload else names:
                result = run_workload(
                    name, args.seed, args.seconds, args.trace, args.smoke,
                    Path(tmp), trace_dir, spec,
                )
                report(name, result)
                correct = correct and result["correct"]
                run["workloads"][name] = jsonable(result)
    finally:
        unpin()
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if args.out:
        append_run(args.out, run)
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the forked worker is reaped and
    # the temporary directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
