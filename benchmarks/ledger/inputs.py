"""Seeded inputs of the ledger workloads.

The program under test receives only what these functions generate; the
same seed gives the same sequence (``digest`` is recorded with every
result and pinned by ``test_ledger.py``).  Sequences are finite and the
workloads walk them cyclically: they are sized so a cycle is far longer
than any cache the program keeps.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.datasets import QueryWorkload
from repro.query import BatchQuery, QueryRequest

#: ``point_uniform`` / ``http_*`` query-type mix.
POINT_MIX = (("eap", 0.40), ("ldp", 0.25), ("sdp", 0.25), ("profile", 0.10))
#: ``live_churn`` reads: profile always takes the sweep fallback under a
#: patch, so it would measure Dijkstra, not the overlay.
LIVE_MIX = (("eap", 1 / 3), ("ldp", 1 / 3), ("sdp", 1 / 3))
#: ``live_churn`` sdp reads ask about the next two hours.  A window drawn
#: over the whole service day makes one fallback a 5-100 ms departure
#: sweep; a 10 s run affords 250 of those, and the p99 they carry then
#: moves by 17 % from seed to seed (README: "Where this differs").
LIVE_SDP_HORIZON_S = 2 * 3600
#: ``batch_access`` item mix.
BATCH_MIX = (("one_to_many", 0.60), ("matrix", 0.20), ("isochrone", 0.20))

MATRIX_SOURCES, MATRIX_TARGETS = 8, 16
ISOCHRONE_BUDGET_S = 45 * 60
ZIPF_KEYS, ZIPF_EXPONENT = 400, 1.1


def _kinds(rng: random.Random, mix, count: int) -> List[str]:
    names = [name for name, _ in mix]
    weights = [weight for _, weight in mix]
    return rng.choices(names, weights=weights, k=count)


def point_requests(graph, seed: int, count: int, mix=POINT_MIX) -> List[QueryRequest]:
    """Uniform random pairs and times from ``QueryWorkload``, each given
    a query type drawn from ``mix``."""
    queries = QueryWorkload(graph, seed=seed).generate(count)
    kinds = _kinds(random.Random(f"kinds-{seed}"), mix, count)
    return [
        QueryRequest(
            kind,
            q.source,
            q.destination,
            t=None if kind == "ldp" else q.t_start,
            t_end=None if kind == "eap" else q.t_end,
        )
        for kind, q in zip(kinds, queries)
    ]


def live_requests(graph, seed: int, count: int) -> List[QueryRequest]:
    """``point_requests`` in ``LIVE_MIX``; an sdp window ends at most
    ``LIVE_SDP_HORIZON_S`` after it starts."""
    return [
        replace(r, t_end=min(r.t_end, r.t + LIVE_SDP_HORIZON_S))
        if r.query_type == "sdp"
        else r
        for r in point_requests(graph, seed, count, LIVE_MIX)
    ]


def zipf_requests(
    graph, seed: int, count: int
) -> Tuple[List[QueryRequest], List[QueryRequest]]:
    """``(distinct keys, sequence)``: ``ZIPF_KEYS`` distinct requests and
    ``count`` draws from them with Zipf(``ZIPF_EXPONENT``) weights."""
    keys = point_requests(graph, seed + 1_000_003, ZIPF_KEYS)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(keys))]
    rng = random.Random(f"zipf-{seed}")
    return keys, rng.choices(keys, weights=weights, k=count)


def batch_items(graph, seed: int, count: int) -> List[BatchQuery]:
    """One-to-many to every station, 8x16 matrices and 45-minute
    isochrones, departure times from ``QueryWorkload``."""
    rng = random.Random(f"batch-{seed}")
    queries = QueryWorkload(graph, seed=seed).generate(count)
    everywhere = tuple(range(graph.n))
    items = []
    for kind, q in zip(_kinds(rng, BATCH_MIX, count), queries):
        if kind == "one_to_many":
            item = BatchQuery(kind, (q.source,), q.t_start, everywhere)
        elif kind == "matrix":
            item = BatchQuery(
                kind,
                tuple(rng.randrange(graph.n) for _ in range(MATRIX_SOURCES)),
                q.t_start,
                tuple(rng.randrange(graph.n) for _ in range(MATRIX_TARGETS)),
            )
        else:
            item = BatchQuery(
                kind, (q.source,), q.t_start, budget=ISOCHRONE_BUDGET_S
            )
        items.append(item)
    return items


def http_path(request: QueryRequest) -> str:
    """The ``GET /v1/...`` path asking ``request`` (LDP's single time
    parameter is the latest arrival)."""
    kind = request.query_type
    t = request.t_end if kind == "ldp" else request.t
    path = f"/v1/{kind}?from={request.source}&to={request.destination}&t={t}"
    if kind in ("sdp", "profile"):
        path += f"&t_end={request.t_end}"
    return path


def digest(items: Sequence) -> str:
    """sha256 over the generated sequence (dataclass reprs are stable)."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(repr(item).encode())
    return sha.hexdigest()
