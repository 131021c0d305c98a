"""Serving robustness: shed excess load, bound every request.

The paper's query is a microsecond label join, so serving it needs
exactly two guard rails, independent of any planner:

* :mod:`~repro.resilience.admission` — a bounded in-flight gate that
  sheds excess load immediately (429 + ``Retry-After``) and drives
  the readiness signal while saturated (503).
* :mod:`~repro.resilience.deadline` — per-request wall-clock budgets
  checked cooperatively inside the expensive query loops, so an
  expired query raises instead of hogging the planner lock (504).

:mod:`~repro.resilience.executor` composes the two into the one choke
point every service query passes through.  See ``docs/resilience.md``
for semantics and the status-code table.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.config import ResilienceConfig
from repro.resilience.deadline import (
    Deadline,
    active_deadline,
    check_deadline,
    deadline_scope,
)
from repro.resilience.executor import ResilientExecutor

__all__ = [
    "AdmissionController",
    "ResilienceConfig",
    "ResilientExecutor",
    "Deadline",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
]
