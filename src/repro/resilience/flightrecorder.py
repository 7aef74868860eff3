"""Per-process crash flight recorder.

A bounded ring of a sweep worker's most recent event records, dumped
atomically when the process dies in a way post-mortems otherwise can't
explain: an unhandled exception (``sys.excepthook``) or a SIGTERM (the
coordinator killing a timed-out worker). Fault-injected hard crashes
(``os._exit``) bypass every Python teardown hook, so the sweep worker
also dumps *explicitly* just before pulling such a trigger — the
recorder provides :meth:`dump` for exactly that call site.

The dump is written with :func:`repro.utils.persist.save_json` (atomic
tmp + rename), so a recorder file is always whole, and its path is
deterministic (:func:`recorder_path_for`) so the *coordinator* can link
a dead worker's recorder into the job's failure record without any
channel from the dying process.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Optional, Union

from repro.utils.persist import save_json

__all__ = ["FlightRecorder", "recorder_path_for"]


def recorder_path_for(
    directory: Union[str, Path], worker: int, pid: int
) -> Path:
    """Deterministic recorder path for a worker process.

    Both sides derive it independently: the worker writes here, and the
    coordinator — which knows the dead process's worker id and pid —
    looks here when settling a crash or timeout.
    """
    return Path(directory) / f"flight-w{worker:02d}-p{pid}.json"


class FlightRecorder:
    """Bounded in-memory ring of recent records with atomic dump.

    Args:
        path: Destination for :meth:`dump` output.
        capacity: Ring size; the oldest records are evicted (and
            counted as dropped) once full.
        clock: Wall-clock source for record/dump stamps, injectable
            for tests.
        context: Static fields (worker id, sweep id) included in every
            dump header.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        capacity: int = 256,
        clock: Callable[[], float] = time.time,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path)
        self.capacity = capacity
        self.context = dict(context or {})
        self.records_seen = 0
        self.records_dropped = 0
        self.dumps_written = 0
        self.dump_failures = 0
        self._clock = clock
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def record(self, kind: str, detail: Optional[Dict[str, Any]] = None) -> None:
        """Append one record to the ring (cheap: no I/O)."""
        entry = {"stamp": self._clock(), "kind": kind}
        if detail:
            entry.update(detail)
        self.records_seen += 1
        if len(self._ring) == self.capacity:
            self.records_dropped += 1
        self._ring.append(entry)

    # ------------------------------------------------------------------
    def dump(self, reason: str) -> Path:
        """Atomically write the ring (plus header) to :attr:`path`."""
        records = list(self._ring)
        payload = {
            "reason": reason,
            "pid": os.getpid(),
            "dumped_unix_s": self._clock(),
            "capacity": self.capacity,
            "records_seen": self.records_seen,
            "records_dropped": self.records_dropped,
            "context": dict(self.context),
            "records": records,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        save_json(self.path, payload)
        self.dumps_written += 1
        return self.path

    def try_dump(self, reason: str) -> Optional[Path]:
        """:meth:`dump`, but swallowing I/O failure (crash paths must
        not die again in their own post-mortem)."""
        try:
            return self.dump(reason)
        except Exception:
            # A failing dump in a crash path must not mask the crash.
            self.dump_failures += 1
            return None

    # ------------------------------------------------------------------
    def install(self) -> "FlightRecorder":
        """Hook ``sys.excepthook`` and SIGTERM to dump before dying.

        The previous excepthook still runs (tracebacks stay visible);
        SIGTERM is re-raised with the default disposition after the
        dump, preserving the kill's observable exit status.
        """
        previous_hook = sys.excepthook

        def _hook(exc_type, exc, tb) -> None:
            self.record(
                "exception",
                {"type": exc_type.__name__, "message": str(exc)},
            )
            self.try_dump("unhandled-exception")
            previous_hook(exc_type, exc, tb)

        sys.excepthook = _hook

        def _on_term(signum, frame) -> None:
            self.record("signal", {"signal": int(signum)})
            self.try_dump("sigterm")
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        try:
            signal.signal(signal.SIGTERM, _on_term)
        except ValueError:
            # Not the main thread: excepthook coverage only.
            self.record("signal-handler-skipped", {"signal": "SIGTERM"})
        return self
