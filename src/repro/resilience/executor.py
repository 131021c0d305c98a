"""The guarded query pipeline: admit -> install deadline -> run -> check.

:class:`ResilientExecutor` is the single choke point every service
query passes through.  Keeping it out of ``service.py`` means the
ledger can price exactly the machinery a request pays for
(``resilience.executor_us``, no HTTP in the way) and unit tests can
drive it without a socket.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Tuple

from repro.errors import DeadlineExceeded
from repro.resilience.admission import AdmissionController
from repro.resilience.config import ResilienceConfig
from repro.resilience.deadline import Deadline, deadline_scope


class ResilientExecutor:
    """Runs planner calls behind the admission gate and a deadline."""

    def __init__(self, config: Optional[ResilienceConfig] = None) -> None:
        self.config = config or ResilienceConfig()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            retry_after_s=self.config.retry_after_s,
            shed_grace_s=self.config.shed_grace_s,
        )
        self._deadline_hits = 0

    def run(
        self,
        fn: Callable[[], Any],
        lock: Optional[threading.RLock] = None,
    ) -> Tuple[Any, bool]:
        """Admit, install the request deadline, run ``fn`` (holding
        ``lock`` when given) and check the deadline again afterwards,
        so a call that finished past its budget still fails.

        Returns ``(result, False)``: the second element is the
        historical "degraded" flag, and answers are always exact.

        Raises:
            Overloaded: shed by admission control (429).
            DeadlineExceeded: budget expired (504).
        """
        with self.admission.admit():
            ms = self.config.deadline_ms
            deadline = None if ms is None else Deadline.after_ms(ms)
            with deadline_scope(deadline):
                try:
                    if lock is None:
                        result = fn()
                    else:
                        with lock:
                            # The wait for the lock may have spent the
                            # whole budget.
                            if deadline is not None:
                                deadline.check()
                            result = fn()
                    if deadline is not None:
                        deadline.check()
                except DeadlineExceeded:
                    self._deadline_hits += 1
                    raise
                return result, False

    def snapshot(self) -> dict:
        """JSON-safe pipeline state for ``/resilience`` and /metrics."""
        return {
            "deadline_ms": self.config.deadline_ms,
            "deadline_exceeded": self._deadline_hits,
            "admission": self.admission.snapshot(),
        }
