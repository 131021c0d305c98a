"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Every library error can carry an optional ``hint`` — a short,
    actionable suggestion surfaced verbatim in HTTP error payloads
    (the uniform ``{"error", "field", "hint"}`` shape) and on the CLI's
    stderr.  ``None`` means "the message is self-explanatory".
    """

    def __init__(self, *args: object, hint: "str | None" = None) -> None:
        super().__init__(*args)
        self.hint = hint


class GraphError(ReproError):
    """Raised when a timetable graph is malformed or violates an invariant."""


class ValidationError(GraphError):
    """Raised when validating user-supplied graph input fails."""


class UnknownStationError(GraphError):
    """Raised when a station id or name does not exist in the graph."""

    def __init__(self, station: object) -> None:
        super().__init__(f"unknown station: {station!r}")
        self.station = station


class UnknownTripError(GraphError):
    """Raised when a trip id does not exist in the graph."""

    def __init__(self, trip: object) -> None:
        super().__init__(f"unknown trip: {trip!r}")
        self.trip = trip


class UnknownRouteError(GraphError):
    """Raised when a route id does not exist in the graph."""

    def __init__(self, route: object) -> None:
        super().__init__(f"unknown route: {route!r}")
        self.route = route


class IndexError_(ReproError):
    """Base class for index construction and query errors.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``.
    """


class IndexBuildError(IndexError_):
    """Raised when TTL index construction fails."""


class ReconstructionError(IndexError_):
    """Raised when a label cannot be unfolded back into a concrete path."""


class BuildFarmError(IndexError_):
    """Raised when the parallel build pipeline fails (bad plan, worker
    death, checkpoint/graph mismatch...)."""


class BuildAborted(BuildFarmError):
    """Raised when a build is deliberately aborted mid-pipeline (the
    ``fail_after_chunks`` test hook); completed shards stay on disk so
    the build can be resumed."""

    def __init__(self, chunks_done: int) -> None:
        super().__init__(
            f"build aborted after {chunks_done} committed chunks"
        )
        self.chunks_done = chunks_done


class QueryError(ReproError):
    """Raised for invalid query arguments (bad window, unknown nodes...)."""


class UnsupportedQueryError(QueryError):
    """Raised when a planner does not implement a query type.

    The unified :meth:`~repro.planner.RoutePlanner.plan` entry point
    accepts every query type for every planner; backends that cannot
    answer one (e.g. profile enumeration on a method with no label
    sets) raise this instead of ``AttributeError``, so callers can
    branch on capability with one typed ``except``.
    """

    def __init__(self, planner: str, query_type: str) -> None:
        super().__init__(
            f"planner {planner!r} does not support {query_type!r} queries",
            hint="query a labelling-based planner (TTL, C-TTL) instead",
        )
        self.planner = planner
        self.query_type = query_type


class SerializationError(ReproError):
    """Raised when loading or saving an index or graph fails."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset specification is invalid."""


class LiveEventError(ReproError):
    """Raised when a live schedule event is malformed or inapplicable."""


class FederationError(ReproError):
    """Raised when region partitioning, a federation manifest, or a
    cross-region stitched query is invalid (bad region map, digest
    mismatch, shard missing a queried station...)."""


class ResilienceError(ReproError):
    """Base class for serving-robustness failures (deadlines, load
    shedding, readiness).  These carry a well-defined HTTP status so
    the service can map them without string matching."""


class DeadlineExceeded(ResilienceError):
    """Raised when a request's wall-clock budget expires (HTTP 504).

    Checked cooperatively inside the expensive query loops, so an
    expired query aborts and releases the planner lock instead of
    running to completion.
    """


class Overloaded(ResilienceError):
    """Raised when admission control sheds a request (HTTP 429).

    ``retry_after`` is the suggested client back-off in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceNotReady(ResilienceError):
    """Raised when the service cannot serve yet or sheds for health
    reasons (HTTP 503).  ``retry_after`` suggests when to retry."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestValidationError(ReproError):
    """Raised when an HTTP request parameter is missing or malformed
    (HTTP 400).  ``field`` names the offending parameter."""

    def __init__(
        self, message: str, field: str, hint: "str | None" = None
    ) -> None:
        super().__init__(message, hint=hint)
        self.field = field


class ConflictError(ReproError):
    """Raised when a request conflicts with how serving is coordinated
    (HTTP 409) — e.g. a live mutation POSTed directly to a prefork
    worker, which must instead go through the supervisor's journalled
    endpoint so every worker sees it."""


class PayloadTooLarge(ReproError):
    """Raised when an HTTP request body exceeds the size cap (413)."""
