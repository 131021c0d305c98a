"""Latency tails (supplementary): per-query percentiles, not averages.

The paper reports averages; production planners care about tails.
This benchmark measures per-query latency distributions for SDP and
reports p50 / p95 / p99 per method on a mid-size dataset.  The
structural expectation: index-based TTL has a *tight* distribution
(every query is one bounded label merge) while scan-based CSA's tail
stretches with the window length.

Also reported here: EAP percentiles over HTTP through the full
serving pipeline (transport + admission gate + deadline).  What the
gate and deadline themselves cost is priced by the ledger's
``resilience.executor_us`` (``ResilientExecutor.run(plan)`` minus the
bare ``plan``, measured from outside; see benchmarks/ledger/README.md).
"""

import http.client
import time

from repro.bench.harness import render_table

from conftest import CACHE, write_result

DATASET = "Berlin" if "Berlin" in CACHE.config.datasets else (
    CACHE.config.datasets[0]
)
METHODS = ["TTL", "C-TTL", "CHT", "CSA"]


def _percentile(sorted_values, q):
    idx = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def _measure():
    queries = CACHE.queries(DATASET)
    rows = []
    for method in METHODS:
        planner = CACHE.planner(DATASET, method)
        samples = []
        for q in queries:
            start = time.perf_counter()
            planner.shortest_duration(
                q.source, q.destination, q.t_start, q.t_end
            )
            samples.append((time.perf_counter() - start) * 1e6)
        samples.sort()
        rows.append(
            [
                method,
                _percentile(samples, 0.50),
                _percentile(samples, 0.95),
                _percentile(samples, 0.99),
                samples[-1],
            ]
        )
    return rows


def _http_get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    response.read()
    assert response.status == 200


def _measure_resilience_overhead(min_samples=400, warmup=50):
    """EAP requests against a service with the default pipeline."""
    from repro.service import PlannerService

    queries = CACHE.queries(DATASET)
    reps = max(1, -(-min_samples // len(queries)))  # ceil division
    paths = [
        f"/v1/eap?from={q.source}&to={q.destination}&t={q.t_start}"
        for q in queries
    ]
    service = PlannerService(CACHE.planner(DATASET, "TTL"))
    conn = http.client.HTTPConnection(
        "127.0.0.1", service.start(port=0), timeout=30
    )
    samples = []
    try:
        for i in range(warmup):
            _http_get(conn, paths[i % len(paths)])
        for _ in range(reps):
            for path in paths:
                start = time.perf_counter()
                _http_get(conn, path)
                samples.append((time.perf_counter() - start) * 1e6)
    finally:
        conn.close()
        service.stop()
    samples.sort()
    return samples


def test_resilience_overhead(benchmark):
    samples = benchmark.pedantic(
        _measure_resilience_overhead, rounds=1, iterations=1
    )
    table = render_table(
        f"Serving pipeline ({DATASET}, EAP over HTTP, per-request us)",
        ["pipeline", "p50", "p95", "p99", "max"],
        [
            [
                "admission + deadline",
                _percentile(samples, 0.50),
                _percentile(samples, 0.95),
                _percentile(samples, 0.99),
                samples[-1],
            ]
        ],
    )
    write_result(
        "resilience_overhead",
        f"{table}\n(n={len(samples)}; the pipeline's own cost is the "
        "ledger's resilience.executor_us)",
    )


def test_latency_tails(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = render_table(
        f"Latency tails ({DATASET}, SDP, per-query us)",
        ["method", "p50", "p95", "p99", "max"],
        rows,
    )
    write_result("latency_tails", table)

    by_method = {row[0]: row for row in rows}
    # TTL's p99 beats CSA's p50: the index wins even tail-to-median.
    assert by_method["TTL"][3] < by_method["CSA"][1]
    # Every method's percentiles are ordered.
    for row in rows:
        assert row[1] <= row[2] <= row[3] <= row[4]
