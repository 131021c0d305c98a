"""Compare two ledger files written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

One row per (workload, end-to-end metric): the median of each file's
runs, the ratio B / A (base: A's median), and a verdict judged by the
bound ``BENCHMARK.json`` fixes for that metric:

* ``ok``         B is not worse than A by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread of a file (distance between the
                 quartiles of its runs, as a share of their median) is
                 wider than the bound, so the bound cannot be judged.

Per-layer metrics that are counts made by the program (units ``count``
and ``B``) must repeat exactly; those that differ are listed after the
table.  Exit status 1 unless every row is ``ok`` and every count equal.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
EXACT_UNITS = ("count", "B")

Values = Dict[Tuple[str, str], List[float]]


def collect(path: Path, section: str, units: Tuple[str, ...] = ()) -> Values:
    """``{(workload, metric): [value per run]}`` for one section."""
    values: Values = {}
    for run in json.loads(path.read_text())["runs"]:
        for workload, result in run["workloads"].items():
            for metric, m in result.get(section, {}).items():
                if m["n"] and (not units or m["unit"] in units):
                    values.setdefault((workload, metric), []).append(m["value"])
    return values


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """``(ratio, worse_by, spread, verdict)`` of one row."""
    base, other = statistics.median(a), statistics.median(b)
    ratio = other / base
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    wide = max(spread(a), spread(b))
    if wide > bound:
        return ratio, worse_by, wide, "unresolved"
    return ratio, worse_by, wide, "worse" if worse_by > bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    path_a, path_b = Path(argv[0]), Path(argv[1])
    a, b = collect(path_a, "end_to_end"), collect(path_b, "end_to_end")
    failures = 0
    print(
        f"{'workload':14} {'metric':16} {'A':>12} {'B':>12} {'unit':5} "
        f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            ratio, _, wide, word = verdict(a[key], b[key], m["better"], m["bound"])
            failures += word != "ok"
            print(
                f"{workload:14} {m['name']:16} "
                f"{statistics.median(a[key]):>12.6g} "
                f"{statistics.median(b[key]):>12.6g} {m['unit']:5} "
                f"{ratio:>7.3f} {wide:>7.3f} {m['bound']:>6.2f}  {word}"
            )
    print(f"base of every ratio: the median of {path_a} ({len(next(iter(a.values())))} runs)")

    counts_a = collect(path_a, "per_layer", EXACT_UNITS)
    counts_b = collect(path_b, "per_layer", EXACT_UNITS)
    shared = sorted(set(counts_a) & set(counts_b))
    differing = [
        key for key in shared if set(counts_a[key]) != set(counts_b[key])
        or len(set(counts_a[key])) != 1
    ]
    for workload, metric in differing:
        print(
            f"count differs: {workload} {metric}: "
            f"{sorted(set(counts_a[workload, metric]))} vs "
            f"{sorted(set(counts_b[workload, metric]))}"
        )
    print(f"program-made counts: {len(shared) - len(differing)} of {len(shared)} identical")
    return 1 if failures or differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
