"""The ``/v1`` API: one request parser, one response shaper and one
route lookup for every listener.

The standalone service, the prefork worker and the control port
(:class:`~repro.service.PlannerService`) and the federation router
(:mod:`repro.federation.serve`) are each a table of
``(method, path) -> handler`` over the functions here, so a request is
validated, answered and enveloped the same way whichever listener takes
it.  A success is ``{"data": ..., "meta": {"elapsed_us", "degraded",
"worker"}}``; every error, an unknown path included, is
``{"error", "field", "hint"}``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RequestValidationError
from repro.query import BATCH_KINDS, BatchQuery, QueryRequest
from repro.serving.http import Request, Response, error_body, json_response

#: ``(method, path) -> handler``.  A handler returns the ``data`` of a
#: 200, or a finished :data:`~repro.serving.http.Response` that is sent
#: as it is (a proxied answer, an internal seam reply).
Routes = Dict[Tuple[str, str], Callable[[Request], object]]


def dispatch(
    routes: Routes,
    request: Request,
    worker: int,
    on_error: Callable[[Exception], Response],
) -> Response:
    """Answer ``request`` from ``routes``: the handler's result in the
    envelope (``meta.worker`` is ``worker``), ``on_error(exc)`` for
    whatever the handler raises, and a 404 for a path not in the
    table."""
    started = time.perf_counter()
    handler = routes.get((request.method, request.path))
    if handler is None:
        return json_response(
            404, error_body(f"unknown path: {request.target}")
        )
    try:
        data = handler(request)
    except Exception as exc:  # never kill the handler thread
        return on_error(exc)
    if isinstance(data, tuple):
        return data
    return json_response(
        200,
        {
            "data": data,
            "meta": {
                "elapsed_us": int((time.perf_counter() - started) * 1e6),
                # Answers are always exact; the key stays for clients
                # that read it.
                "degraded": False,
                "worker": worker,
            },
        },
    )


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def int_param(params: Dict[str, str], name: str) -> int:
    """Parse one required integer query parameter, naming the field
    in the error so clients see exactly what to fix."""
    if name not in params:
        raise RequestValidationError(
            f"missing required query parameter: {name!r}", field=name
        )
    try:
        return int(params[name])
    except (TypeError, ValueError):
        raise RequestValidationError(
            f"query parameter {name!r} must be an integer, "
            f"got {params[name]!r}",
            field=name,
        ) from None


def int_field(body: dict, name: str) -> int:
    """Parse one required integer JSON body field."""
    if name not in body:
        raise RequestValidationError(
            f"missing required body field: {name!r}", field=name
        )
    value = body[name]
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise RequestValidationError(
            f"body field {name!r} must be an integer, got {value!r}",
            field=name,
        )
    try:
        return int(value)
    except ValueError:
        raise RequestValidationError(
            f"body field {name!r} must be an integer, got {value!r}",
            field=name,
        ) from None


def int_list_field(body: dict, name: str) -> List[int]:
    """Parse one required list-of-station-ids JSON body field."""
    if name not in body:
        raise RequestValidationError(
            f"missing required body field: {name!r}", field=name
        )
    value = body[name]
    if not isinstance(value, list):
        raise RequestValidationError(
            f"body field {name!r} must be a list of station ids, "
            f"got {value!r}",
            field=name,
        )
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise RequestValidationError(
                f"body field {name!r} must contain only integers, "
                f"got {item!r}",
                field=name,
            )
    return value


def station_map(body: dict, name: str) -> Dict[int, int]:
    """Parse a ``{station: time}`` JSON object field (string keys)."""
    value = body.get(name)
    if not isinstance(value, dict):
        raise RequestValidationError(
            f"body field {name!r} must be an object mapping station "
            f"ids to times, got {value!r}",
            field=name,
        )
    try:
        return {int(k): int(v) for k, v in value.items()}
    except (TypeError, ValueError):
        raise RequestValidationError(
            f"body field {name!r} must map integer station ids to "
            "integer times",
            field=name,
        ) from None


def point_query(
    kind: str, params: Dict[str, str]
) -> Tuple[QueryRequest, int, Optional[int]]:
    """Parse ``GET /v1/<kind>?from=&to=&t=[&t_end=]`` into the request
    plus its raw ``t`` / ``t_end`` — the answer cache's time fields,
    which the taint certifier reads back as the query window.

    LDP's single ``t`` is the latest *arrival*, which
    :class:`~repro.query.QueryRequest` carries as ``t_end``.
    """
    u = int_param(params, "from")
    v = int_param(params, "to")
    t = int_param(params, "t")
    if kind == "ldp":
        return QueryRequest(kind, u, v, t_end=t), t, None
    t_end = int_param(params, "t_end") if kind in ("sdp", "profile") else None
    return QueryRequest(kind, u, v, t=t, t_end=t_end), t, t_end


def batch_query(body: dict, n: int, cap: int) -> BatchQuery:
    """Parse one ``POST /v1/batch`` body, rejecting workloads of more
    than ``cap`` source-target pairs (an isochrone sweeps all ``n``
    stations)."""
    kind = body.get("kind")
    if kind not in BATCH_KINDS:
        raise RequestValidationError(
            "body field 'kind' must be one of 'one_to_many', "
            f"'matrix', 'isochrone', got {kind!r}",
            field="kind",
            hint="see docs/api.md for the /v1/batch request shapes",
        )
    t = int_field(body, "t")
    cap_hint = (
        f"this server caps batch workloads at {cap} "
        "source-target pairs (ResilienceConfig.max_batch_pairs); "
        "split the request"
    )
    if kind == "one_to_many":
        source = int_field(body, "source")
        targets = tuple(int_list_field(body, "targets"))
        if len(targets) > cap:
            raise RequestValidationError(
                f"{len(targets)} targets exceed the batch cap of {cap}",
                field="targets",
                hint=cap_hint,
            )
        return BatchQuery(kind=kind, sources=(source,), targets=targets, t=t)
    if kind == "matrix":
        sources = tuple(int_list_field(body, "sources"))
        targets = tuple(int_list_field(body, "targets"))
        if len(sources) * len(targets) > cap:
            raise RequestValidationError(
                f"{len(sources)}x{len(targets)} matrix exceeds "
                f"the batch cap of {cap} pairs",
                field="sources",
                hint=cap_hint,
            )
        return BatchQuery(kind=kind, sources=sources, targets=targets, t=t)
    source = int_field(body, "source")
    budget = int_field(body, "budget")
    if n > cap:
        raise RequestValidationError(
            f"an isochrone sweeps all {n} stations, "
            f"exceeding the batch cap of {cap}",
            field="kind",
            hint=cap_hint,
        )
    return BatchQuery(kind=kind, sources=(source,), t=t, budget=budget)


# ----------------------------------------------------------------------
# Shaping
# ----------------------------------------------------------------------


def stations(graph) -> dict:
    """The ``/v1/stations`` body."""
    return {
        "stations": [
            {"id": s, "name": graph.station_name(s)} for s in range(graph.n)
        ]
    }


def batch_body(query: BatchQuery, answer) -> dict:
    """Shape one :func:`~repro.core.batch.batch_plan` answer into the
    ``/v1/batch`` response body for its kind."""
    if query.kind == "one_to_many":
        return {
            "kind": query.kind,
            "source": query.sources[0],
            "t": query.t,
            "arrivals": answer,
        }
    if query.kind == "matrix":
        matrix: Dict[int, Dict[int, Optional[int]]] = {}
        for (source, target), arr in answer.items():
            matrix.setdefault(source, {})[target] = arr
        return {"kind": query.kind, "t": query.t, "matrix": matrix}
    return {
        "kind": query.kind,
        "source": query.sources[0],
        "t": query.t,
        "budget": query.budget,
        "stations": answer,
    }
