"""Differential dispatch-order net: one committed record per cell.

The result digests (``tests/test_result_digests.py``) catch a change in
what a run computes; these catch a change in *how* it gets there. For the
same cells (``tests/digest_cells.py``), every callback the engine
dispatches is recorded as ``(time, module:qualname)``, in dispatch order.
A cell's record pins the sha256 of that sequence apart from the final
``events_processed``, ``events_scheduled`` and ``events_cancelled``, so
a failure shows which of the four moved.

Recording happens outside the run loop: ``Simulator.schedule_at`` is
wrapped so that each scheduled callback is itself wrapped in a recorder,
the way ``benchmarks/speed/speed_trace.py`` traces dispatch. The run loop
and the simulated results are untouched.

A hot-path optimisation must keep every digest. The committed file is
only ever rewritten by a change that means to alter the event order::

    PYTHONPATH=src python tests/test_dispatch_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, List, Optional

import pytest

from repro.engine.simulator import Simulator
from repro.profiling import owner_label

if __name__ == "__main__":
    # Run as a script, ``tests`` is importable only from the repo root.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.digest_cells import CELLS, cell_key, run_cell  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "dispatch_digests.json"


def recording_schedule_at(
    log: List[str], relabel: Optional[Callable[[str], str]] = None
) -> Callable:
    """A ``Simulator.schedule_at`` that wraps every callback so its
    dispatch appends ``time label`` to *log*, the label passed through
    *relabel* when one is given.

    The label is the scheduled callback's own: a periodic chain records
    the engine's ``tick`` closure, not the callback it repeats."""
    original = Simulator.schedule_at

    def schedule_at(self, time, callback, *args):
        label = owner_label(callback)
        if relabel is not None:
            label = relabel(label)

        def recorded(*call_args):
            log.append(f"{self.now!r} {label}")
            callback(*call_args)

        return original(self, time, recorded, *args)

    return schedule_at


def cell_digest(prefix: str, workload: str, scheme: str, seed: int) -> dict:
    """The sha256 of the cell's dispatch sequence, and its final event
    counts.

    Patches ``Simulator.schedule_at`` for the duration of the cell only.
    """
    log: List[str] = []
    original = Simulator.schedule_at
    Simulator.schedule_at = recording_schedule_at(log)
    try:
        system, _ = run_cell(prefix, workload, scheme, seed)
    finally:
        Simulator.schedule_at = original
    sim = system.sim
    return {
        "dispatch": hashlib.sha256("\n".join(log).encode()).hexdigest(),
        "processed": sim.events_processed,
        "scheduled": sim.events_scheduled,
        "cancelled": sim.events_cancelled,
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_the_matrix(expected):
    assert sorted(expected) == sorted(cell_key(*cell) for cell in CELLS)


@pytest.mark.parametrize(
    "prefix,workload,scheme,seed", CELLS, ids=[cell_key(*cell) for cell in CELLS]
)
def test_dispatch_digest(expected, prefix, workload, scheme, seed):
    assert cell_digest(prefix, workload, scheme, seed) == expected[
        cell_key(prefix, workload, scheme, seed)
    ]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({cell_key(*c): cell_digest(*c) for c in CELLS}, indent=1) + "\n"
    )
    print(f"wrote {len(CELLS)} digests to {DIGESTS}")
