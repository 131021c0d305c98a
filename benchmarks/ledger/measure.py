"""Clocks, estimators and the span recorder of the ledger benchmark.

Everything here is independent of ``repro``: a closed-loop window that
times one operation after another, the round-based estimators that turn
its samples into the reported numbers, and an in-memory tracer whose
spans are written out when a pass ends.
"""

from __future__ import annotations

import json
import os
from array import array
import statistics
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

#: A measured window is cut into this many equal rounds.  Neighbours on
#: a shared machine only ever slow a round down, so a latency is the
#: lower quartile of the per-round percentiles and a throughput the
#: upper quartile of the per-round rates (README: "The estimator").
ROUNDS = 10

now_ns = time.perf_counter_ns


class Metric(NamedTuple):
    """One reported number: its value, its unit, and how many samples
    stand behind it."""

    value: float
    unit: str
    n: int


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(values: Sequence[float]) -> List[float]:
    """``statistics.quantiles(values, n=4)``, defined for one value too."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def lower_quartile(values: Sequence[float]) -> float:
    return quartiles(values)[0]


def upper_quartile(values: Sequence[float]) -> float:
    return quartiles(values)[2]


def mean_metric(values: Sequence[float], scale: float, unit: str) -> Metric:
    """Mean of ``values`` in ``unit`` (0 with n = 0 for no values: a
    layer the pass never entered)."""
    if not values:
        return Metric(0.0, unit, 0)
    return Metric(sum(values) / len(values) / scale, unit, len(values))


class Samples:
    """Per-operation records of one window, in execution order."""

    def __init__(self, classes: Sequence[str], round_ops: Optional[int]) -> None:
        self.classes = tuple(classes)
        self.round_ops = round_ops
        # Typed arrays, 17 bytes an operation: the driver's peak RSS is a
        # reported metric and must not grow with the operations timed.
        self.cls = array("b")
        self.start = array("q")
        self.dur = array("q")
        self.failed = 0
        self.errors: List[str] = []
        self.begin = 0
        self.end = 0
        self._rounds_cache: Optional[List[tuple]] = None

    @property
    def ops_done(self) -> int:
        return len(self.cls)

    def durations(self, names: Iterable[str]) -> List[int]:
        wanted = {self.classes.index(name) for name in names}
        return [d for c, d in zip(self.cls, self.dur) if c in wanted]

    def mean_ns(self, names: Iterable[str]) -> float:
        durations = self.durations(names)
        return sum(durations) / len(durations) if durations else 0.0

    def _by_round(self) -> List[tuple]:
        """``({class index: durations}, round_ns)`` per round, built once.

        A round is a tenth of the window, or -- for a workload whose
        operations repeat in a fixed pattern (``round_ops``) -- one
        whole repetition, so that every round holds the same work."""
        if self._rounds_cache is None:
            size = self.round_ops
            if size:
                # Whole repetitions only: the last, cut-off one is dropped.
                walls = [
                    self.start[hi - 1] + self.dur[hi - 1] - self.start[hi - size]
                    for hi in range(size, len(self.cls) + 1, size)
                ]
                slots = (k // size for k in range(len(walls) * size))
            else:
                begin, span = self.begin, max(1, self.end - self.begin)
                walls = [span / ROUNDS] * ROUNDS
                slots = (
                    min(ROUNDS - 1, (s - begin) * ROUNDS // span) for s in self.start
                )
            rounds: List[Dict[int, List[int]]] = [{} for _ in walls]
            for slot, c, d in zip(slots, self.cls, self.dur):
                rounds[slot].setdefault(c, []).append(d)
            self._rounds_cache = list(zip(rounds, walls))
        return self._rounds_cache

    def _rounds(self, names: Iterable[str]) -> List[tuple]:
        """``(durations of the named classes, round_ns)`` per round that
        holds any."""
        wanted = [self.classes.index(name) for name in names]
        picked = [
            ([d for c in wanted for d in by_class.get(c, ())], wall)
            for by_class, wall in self._by_round()
        ]
        return [(durations, wall) for durations, wall in picked if durations]

    def latency_ns(
        self, names: Iterable[str], q: float, pooled: bool = False
    ) -> Metric:
        """Lower quartile across rounds of the per-round percentile ``q``;
        ``pooled``, percentile ``q`` of all rounds' samples taken together
        (for a tail too thin to have a percentile in every round)."""
        rounds = self._rounds(names)
        n = sum(len(r) for r, _ in rounds)
        if pooled:
            return Metric(
                percentile(sorted(d for r, _ in rounds for d in r), q), "ns", n
            )
        per_round = [percentile(sorted(r), q) for r, _ in rounds]
        return Metric(lower_quartile(per_round), "ns", n)

    def raw_ns(self, names: Iterable[str], q: float) -> float:
        """Whole-window percentile, printed beside the estimate."""
        return percentile(sorted(self.durations(names)), q)

    def rate_per_s(self, names: Iterable[str]) -> Metric:
        """Upper quartile across rounds of operations per second of
        wall time (other classes' time counts as wall time too)."""
        rounds = self._rounds(names)
        return Metric(
            upper_quartile([len(r) * 1e9 / wall for r, wall in rounds]),
            "1/s",
            sum(len(r) for r, _ in rounds),
        )


def run_ops(
    op: Callable[[int], int],
    classes: Sequence[str],
    first: int = 0,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    round_ops: Optional[int] = None,
) -> Samples:
    """Closed loop, one thread: call ``op(i)`` for ``i = first, first+1,
    ...`` until ``seconds`` have passed (and, with ``round_ops``, the
    round in progress is complete) or ``count`` operations ran: laps
    whose program-made counts must repeat exactly are count-bounded.
    ``op`` performs operation ``i`` and returns the index of its class
    in ``classes``; an exception counts the operation as failed."""
    samples = Samples(classes, round_ops)
    cls, start, dur = samples.cls, samples.start, samples.dur
    i = first
    samples.begin = t = now_ns()
    deadline = None if seconds is None else t + int(seconds * 1e9)
    last = None if count is None else first + count
    while (last is None or i < last) and (
        deadline is None
        or t < deadline
        or (round_ops and (i - first) % round_ops)
    ):
        try:
            c = op(i)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            samples.failed += 1
            if len(samples.errors) < 5:
                samples.errors.append(f"op {i}: {exc!r}")
            c = -1
        done = now_ns()
        cls.append(c)
        start.append(t)
        dur.append(done - t)
        t = done
        i += 1
    samples.end = t
    return samples


class Tracer:
    """Spans kept in memory; ``write`` dumps them as JSON lines.

    A span is ``(name, start_ns, end_ns, parent, request)``: ``parent``
    is the id (position) of the span that caused it or -1, ``request``
    the operation index all spans of one request share.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(
        self, name: str, start: int, end: int, parent: int, request: int
    ) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def durations_ns(self, name: str) -> List[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def mean(self, name: str, scale: float, unit: str) -> Metric:
        """Mean duration of the spans called ``name``."""
        return mean_metric(self.durations_ns(name), scale, unit)

    def self_times_ns(self) -> Dict[str, int]:
        """Total self time per span name: a span's duration minus the
        part its children cover."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, int] = {}
        for (name, start, end, _, _), child_ns in zip(self.spans, covered):
            totals[name] = totals.get(name, 0) + (end - start) - child_ns
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def pin_one_cpu() -> int:
    """Pin this process, and whatever it forks, to its lowest allowed
    CPU.  A closed loop with one client never has client and server busy
    at once, and where the scheduler happens to place the two moves an
    HTTP round trip by 20 % from run to run; on one CPU it does not."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def unpin() -> None:
    """Back to every CPU the process is allowed (the kernel intersects
    the request with the allowed set)."""
    os.sched_setaffinity(0, range(os.cpu_count() or 1))


def reset_peak_rss() -> None:
    """Start this process's peak-RSS mark afresh, so that a workload run
    after another in one process reports its own peak."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of this process, or of ``pid``: a
    forked worker, read while it is still alive."""
    with open(f"/proc/{pid or 'self'}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
