"""Pinned label digests: the byte-identity gate for index construction.

``label_digests.json`` holds, per catalogue dataset, the sha256 of the
rank array and of every label column of both stores, each encoded as
little-endian int64, for ``build_index(graph)`` at the default order.
A refactor of the build or of the searches it runs must leave every
digest unchanged.  A change that moves labels on purpose regenerates
the file and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_label_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.build import build_index
from repro.core.store import COLUMN_NAMES
from repro.datasets import load_dataset

DIGESTS = Path(__file__).with_name("label_digests.json")
DATASETS = ("Austin", "Toronto", "Berlin", "Sweden")


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def label_digests(index) -> dict:
    """``{"labels": count, "ranks": sha, "in.deps": sha, ...}``."""
    digests = {"labels": index.num_labels, "ranks": _sha(index.ranks)}
    for side, store in (("in", index.in_store), ("out", index.out_store)):
        for name in COLUMN_NAMES:
            digests[f"{side}.{name}"] = _sha(getattr(store, name))
    return digests


@pytest.mark.parametrize("name", DATASETS)
def test_labels_match_pinned_digests(name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert label_digests(build_index(load_dataset(name))) == expected


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: label_digests(build_index(load_dataset(name)))
             for name in DATASETS},
            indent=2,
        )
        + "\n"
    )
