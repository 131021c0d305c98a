"""End-to-end prefork serving smoke: the CI counterpart of
``tests/test_serving.py``, but through the real CLI entry point.

Launches ``repro-ttl serve <dataset> --workers 2 --mmap --index <path>``
as a subprocess, then asserts the whole redesign in one pass:

1. both workers report alive in ``/v1/healthz``;
2. ``/v1/eap`` answers arrive in the versioned envelope, and the bare
   unversioned ``/eap`` answers 404 (no response carries a
   ``Deprecation`` header);
3. ``/v1/batch`` answers a one-to-many request;
4. SIGKILL of one worker is followed by a respawn (fresh pid, same
   worker id) and the aggregated ``/v1/metrics`` counters never move
   backwards across the kill.

A second phase starts two single-process ``--live`` servers — one
with ``--cache-size``, one without — primes hot pairs until the cache
reports a positive hit rate, injects the same delay event into both,
and asserts every answer stays byte-identical to the cache-disabled
reference (zero stale answers across the invalidation sweep).

Exit code 0 on success; any assertion failure or timeout is fatal.

Usage::

    PYTHONPATH=src python scripts/serving_smoke.py /tmp/austin.ttl \
        --dataset Austin --requests 50
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

SERVE_LINE = re.compile(r"http://127\.0\.0\.1:(\d+)")


def get(port, path):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.loads(response.read()), dict(response.headers)


def post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.loads(response.read()), dict(response.headers)


def alive_workers(port):
    body, _ = get(port, "/v1/healthz")
    return {
        row["worker"]: row["pid"]
        for row in body["data"]["workers"]
        if row["alive"]
    }


def cluster_totals(port):
    body, _ = get(port, "/v1/metrics")
    return body["data"]["cluster"]["totals"]


def wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            result = predicate()
        except Exception:
            result = None
        if result:
            return result
        time.sleep(0.2)
    raise SystemExit(f"timed out after {timeout_s}s waiting for {what}")


def launch(cli_args):
    """Start ``repro-ttl serve`` and return (process, bound port)."""
    # -u: the child's "serving ..." line must not sit in a block buffer.
    server = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            *cli_args,
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = server.stdout.readline()
    print(f"server: {line.strip()}")
    match = SERVE_LINE.search(line)
    if not match:
        server.terminate()
        raise SystemExit(f"could not parse serve line: {line!r}")
    return server, int(match.group(1))


def shutdown(server):
    server.terminate()
    try:
        server.wait(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()


def answer_blob(port, path):
    body, _ = get(port, path)
    return json.dumps(body["data"], sort_keys=True)


def cache_live_smoke(dataset: str) -> None:
    """Phase 2: cached vs uncached ``--live`` servers must agree."""
    cached, cached_port = launch([dataset, "--live", "--cache-size", "256"])
    plain, plain_port = launch([dataset, "--live"])
    try:
        for port in (cached_port, plain_port):
            wait_for(
                lambda: get(port, "/v1/healthz/ready")[0]["data"]["ready"],
                60,
                "live server readiness",
            )
        stations, _ = get(cached_port, "/v1/stations")
        n = len(stations["data"]["stations"])
        hot = [
            f"/v1/eap?from={i % n}&to={(i + 5) % n}&t={28800 + 60 * i}"
            for i in range(8)
        ]

        # Prime, then replay: the replay pass must be served from the
        # cache, and every answer must match the uncached reference.
        for _ in range(2):
            for path in hot:
                if answer_blob(cached_port, path) != answer_blob(
                    plain_port, path
                ):
                    raise SystemExit(f"cached answer diverged on {path}")
        metrics, _ = get(cached_port, "/v1/metrics")
        cache_stats = metrics["data"]["cache"]
        assert cache_stats["hits"] > 0, cache_stats
        assert cache_stats["hit_rate"] > 0, cache_stats
        print(
            f"cache warm: {cache_stats['hits']} hits, "
            f"hit rate {cache_stats['hit_rate']}"
        )

        # Disrupt a trip a hot journey actually rides, on BOTH servers.
        trip_id = None
        for path in hot:
            body, _ = get(cached_port, path)
            journey = body["data"]["journey"]
            if journey and journey.get("path"):
                trip_id = journey["path"][0][4]
                break
        if trip_id is None:
            raise SystemExit("no feasible hot journey to disrupt")
        event = {"kind": "delay", "trip_id": trip_id, "delay": 900}
        for port in (cached_port, plain_port):
            post(port, "/v1/live/events", event)
        print(f"injected delay on trip {trip_id}")

        # Zero stale answers: every hot pair, twice (the second pass
        # exercises entries the sweep re-keyed or repopulated).
        stale = [
            path
            for _ in range(2)
            for path in hot
            if answer_blob(cached_port, path)
            != answer_blob(plain_port, path)
        ]
        assert not stale, f"stale cached answers after event: {stale}"
        metrics, _ = get(cached_port, "/v1/metrics")
        after = metrics["data"]["cache"]
        assert after["invalidations"] > 0, after
        print(
            f"invalidation sweep ok: {after['invalidations']} evicted, "
            "0 stale answers"
        )
        print("cache+live smoke OK")
    finally:
        shutdown(cached)
        shutdown(plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("index", help="saved TTLIDX03 index file")
    parser.add_argument("--dataset", default="Austin")
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args(argv)

    server, port = launch(
        [
            args.dataset,
            "--workers",
            "2",
            "--mmap",
            "--index",
            args.index,
        ]
    )
    try:
        workers = wait_for(
            lambda: len(alive_workers(port)) == 2 and alive_workers(port),
            30,
            "both workers alive",
        )
        print(f"workers alive: {workers}")

        # Versioned envelope; the unversioned surface is gone.
        body, headers = get(port, "/v1/eap?from=0&to=5&t=28800")
        assert set(body) >= {"data", "meta"}, body
        assert body["meta"]["worker"] in workers, body["meta"]
        assert "Deprecation" not in headers, headers
        try:
            get(port, "/eap?from=0&to=5&t=28800")
        except urllib.error.HTTPError as err:
            assert err.code == 404, err.code
            assert "Deprecation" not in err.headers, dict(err.headers)
        else:
            raise SystemExit("unversioned /eap still answers")

        stations, _ = get(port, "/v1/stations")
        n = len(stations["data"]["stations"])
        answered = set()
        for i in range(args.requests):
            reply, _ = get(
                port, f"/v1/eap?from={i % n}&to={(i + 7) % n}&t={28800 + i}"
            )
            answered.add(reply["meta"]["worker"])
        print(f"hammered /v1/eap x{args.requests}; answered by {answered}")

        batch, _ = post(
            port,
            "/v1/batch",
            {"kind": "one_to_many", "source": 0, "targets": [1, 2, 3], "t": 28800},
        )
        assert len(batch["data"]["arrivals"]) == 3, batch
        print("batch one_to_many ok")

        # Workers publish counters on a heartbeat, so the aggregate can
        # lag a beat — wait for it to cover the hammer we just sent.
        wait_for(
            lambda: cluster_totals(port)["requests"] >= args.requests,
            10,
            "aggregated request counter to catch up",
        )
        before = cluster_totals(port)

        victim_id, victim_pid = sorted(workers.items())[0]
        os.kill(victim_pid, signal.SIGKILL)
        print(f"killed worker {victim_id} (pid {victim_pid})")

        respawned = wait_for(
            lambda: (
                (current := alive_workers(port)).get(victim_id)
                not in (None, victim_pid)
                and len(current) == 2
                and current
            ),
            30,
            "worker respawn",
        )
        print(f"respawned: {respawned}")

        for i in range(20):
            get(port, f"/v1/eap?from={i % n}&to={(i + 3) % n}&t=30000")
        after = cluster_totals(port)
        regressions = {
            field: (before[field], after[field])
            for field in before
            if after[field] < before[field]
        }
        assert not regressions, f"counters moved backwards: {regressions}"
        print("aggregated metrics stayed monotonic across the kill")
        print("prefork smoke OK")
    finally:
        shutdown(server)

    cache_live_smoke(args.dataset)
    print("serving smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
