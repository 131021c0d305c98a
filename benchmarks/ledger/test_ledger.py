"""Self-test of the ledger benchmark (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Everything runs ``run.py --smoke`` (Austin, 1 s windows) into pytest's
temporary directory; committed results are never written.
"""

from __future__ import annotations

import json
import re

import pytest

import compare
import run  # puts the program on the path
from workloads import WORKLOADS

SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def ledger(tmp_path_factory, label: str, trace: int):
    out = tmp_path_factory.mktemp(label) / "ledger.json"
    status = run.main(
        ["--smoke", "--seconds", "1", "--seed", "7", "--trace", str(trace),
         "--out", str(out)]
    )
    assert status == 0
    return out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return ledger(tmp_path_factory, "untraced", 0)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    return [ledger(tmp_path_factory, f"traced{i}", 1) for i in range(2)]


def workloads_of(path):
    (one_run,) = json.loads(path.read_text())["runs"]
    return one_run


def test_names_are_well_formed():
    names = WORKLOAD_NAMES + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)


def test_every_end_to_end_metric_is_emitted(untraced):
    one_run = workloads_of(untraced)
    for key in ("nproc", "python", "numpy", "git_commit", "seed", "seconds"):
        assert key in one_run["environment"]
    assert set(one_run["workloads"]) == set(WORKLOAD_NAMES)
    for name, result in one_run["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        emitted = result["end_to_end"]
        assert set(emitted) == {m["name"] for m in SPEC["end_to_end"]}, name
        for m in SPEC["end_to_end"]:
            got = emitted[m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert got["n"] >= 1 and got["value"] > 0, (name, m["name"])


def test_every_per_layer_metric_is_emitted(traced_twice):
    for name, result in workloads_of(traced_twice[0])["workloads"].items():
        assert result["correct"], name
        emitted = result["per_layer"]
        assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}, name
        for m in SPEC["per_layer"]:
            assert emitted[m["name"]]["unit"] == m["unit"], (name, m["name"])
        assert emitted["trace.overhead_share"]["n"] >= 1, name
        assert emitted["build.labels"]["n"] == 1, name


def test_layers_separate_the_workloads(traced_twice):
    layers = {
        name: result["per_layer"]
        for name, result in workloads_of(traced_twice[0])["workloads"].items()
    }
    assert layers["http_zipf"]["cache.hit_rate"]["value"] >= 0.95
    assert layers["http_uniform"]["cache.hit_rate"]["value"] <= 0.02
    assert layers["point_uniform"]["kernels.point_share"]["value"] == 0
    assert layers["batch_access"]["unfold.us"]["n"] == 0
    assert layers["live_churn"]["live.fast_path_rate"]["value"] < 1
    assert layers["index_build"]["buildfarm.identical"]["value"] == 1


def test_same_seed_same_inputs_other_seed_other_inputs(
    untraced, traced_twice, tmp_path
):
    first = workloads_of(untraced)["workloads"]
    again = workloads_of(traced_twice[0])["workloads"]
    for name in WORKLOAD_NAMES:
        assert first[name]["inputs_sha256"] == again[name]["inputs_sha256"]
        other = WORKLOADS[name](8, True, tmp_path).inputs_digest
        assert other != first[name]["inputs_sha256"], name


def test_program_made_counts_repeat_exactly(traced_twice):
    a, b = (workloads_of(path)["workloads"] for path in traced_twice)
    for name, metric in (
        ("index_build", "build.forward_pops"),
        ("index_build", "build.labels"),
        ("point_uniform", "build.forward_pops"),
        ("point_uniform", "store.labels_scanned_per_query"),
        ("http_uniform", "store.labels_scanned_per_query"),
        ("http_zipf", "cache.hit_rate"),
        ("live_churn", "live.fast_path_rate"),
    ):
        assert a[name]["per_layer"][metric]["n"] >= 1, (name, metric)
        assert a[name]["per_layer"][metric] == b[name]["per_layer"][metric]
    # compare.py agrees: every count-valued layer metric is identical.
    counts = [compare.collect(p, "per_layer", compare.EXACT_UNITS) for p in traced_twice]
    assert counts[0] and counts[0] == counts[1]


def test_compare_judges_by_the_bounds(untraced, capsys):
    assert compare.main([str(untraced), str(untraced)]) == 0
    assert "unresolved" not in capsys.readouterr().out
    assert compare.verdict([100.0], [120.0], "lower", 0.1)[3] == "worse"
    assert compare.verdict([100.0], [80.0], "higher", 0.1)[3] == "worse"
    assert compare.verdict([100.0], [105.0], "lower", 0.1)[3] == "ok"
    assert compare.verdict([90.0, 100, 130], [100.0], "lower", 0.1)[3] == "unresolved"


@pytest.mark.parametrize("variable", run.FORBIDDEN_ENV)
def test_refuses_a_different_program(monkeypatch, variable):
    monkeypatch.setenv(variable, "1")
    assert run.main(["--smoke", "--seconds", "1"]) == 2
