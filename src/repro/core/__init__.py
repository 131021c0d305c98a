"""TTL — the paper's primary contribution.

* :mod:`repro.core.label` — label records and grouped label sets.
* :mod:`repro.core.order` — node-order heuristics (Section 6).
* :mod:`repro.core.build` — IndexBuild (Algorithm 3) and the
  brute-force construction baseline of Appendix D.2.
* :mod:`repro.core.index` — the sealed, queryable TTL index.
* :mod:`repro.core.sketch` — SketchGen and refinement (Section 4.1).
* :mod:`repro.core.unfold` — PathUnfold and concise paths (4.2 / 8).
* :mod:`repro.core.queries` — the :class:`TTLPlanner` front end.
* :mod:`repro.core.compression` / :mod:`repro.core.cindex` — label
  compression and the C-TTL planner (Section 7, Appendix B).
* :mod:`repro.core.store` — the flat sealed label store.
* :mod:`repro.core.metrics` — per-query observability counters.
* :mod:`repro.core.serialize` — persistence and size accounting.
"""

from repro.core.label import Label, LabelGroup
from repro.core.metrics import QueryMetrics
from repro.core.store import COLUMN_NAMES, GroupView, LabelStore, MappedGroupView
from repro.core.order import (
    approximation_order,
    betweenness_order,
    degree_order,
    hub_order,
    random_order,
)
from repro.core.build import build_index, build_index_brute_force
from repro.core.index import TTLIndex
from repro.core.queries import TTLPlanner
from repro.core.compression import compress_index, CompressionStats
from repro.core.cindex import CompressedTTLPlanner
from repro.core.serialize import (
    index_bytes,
    index_file_magic,
    is_mmap_capable,
    load_index,
    save_index,
)
from repro.core.multiday import MultiDayPlanner, WeeklyCalendar
from repro.core.profile_queries import oracle_profile, ttl_profile
from repro.core.verify import VerificationReport, verify_index
from repro.core.batch import batch_plan
from repro.core.kernels import vectorized_available

__all__ = [
    "Label",
    "LabelGroup",
    "LabelStore",
    "GroupView",
    "MappedGroupView",
    "COLUMN_NAMES",
    "QueryMetrics",
    "approximation_order",
    "betweenness_order",
    "degree_order",
    "hub_order",
    "random_order",
    "build_index",
    "build_index_brute_force",
    "TTLIndex",
    "TTLPlanner",
    "compress_index",
    "CompressionStats",
    "CompressedTTLPlanner",
    "index_bytes",
    "index_file_magic",
    "is_mmap_capable",
    "load_index",
    "save_index",
    "MultiDayPlanner",
    "WeeklyCalendar",
    "ttl_profile",
    "oracle_profile",
    "verify_index",
    "VerificationReport",
    "batch_plan",
    "vectorized_available",
]
