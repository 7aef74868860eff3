"""Differential result net: one committed digest per (workload, scheme, seed).

Every cell of ``tests/digest_cells.py`` (a tiny leg, a paper-width
``paper/...`` leg of 4 channels x 16 banks and a ``refresh/...`` leg that
pins every refresh burst's backpressure) reduces its ``SimResult`` to the
sha256 of its canonical JSON, less the fields that depend on the host or
on instrumentation, and compares it with ``tests/data/result_digests.json``.

A hot-path optimisation must keep every digest. The committed file is
only ever rewritten by a change that means to alter simulated results::

    PYTHONPATH=src python tests/test_result_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    # Run as a script, ``tests`` is importable only from the repo root.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.digest_cells import CELLS, cell_key, run_cell  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "result_digests.json"
#: ``SimResult.to_json_dict`` fields that depend on the host or on
#: instrumentation.
HOST_FIELDS = ("wall_time_s", "sim_events", "attribution", "profile")


def cell_digest(prefix: str, workload: str, scheme: str, seed: int) -> str:
    """sha256 of the cell's canonical result JSON, host fields removed."""
    _, result = run_cell(prefix, workload, scheme, seed)
    record = result.to_json_dict()
    for field in HOST_FIELDS:
        record.pop(field, None)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_the_matrix(expected):
    assert sorted(expected) == sorted(cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize(
    "prefix,workload,scheme,seed", CELLS, ids=[cell_key(*cell) for cell in CELLS]
)
def test_result_digest(expected, prefix, workload, scheme, seed):
    assert cell_digest(prefix, workload, scheme, seed) == expected[
        cell_key(prefix, workload, scheme, seed)
    ]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({cell_key(*c): cell_digest(*c) for c in CELLS}, indent=1) + "\n"
    )
    print(f"wrote {len(CELLS)} digests to {DIGESTS}")
