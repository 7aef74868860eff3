"""Statistical sampling profiler over ``sys._current_frames``.

A daemon thread wakes every ``interval_s`` (host seconds), snapshots the
interpreter's frame stacks, and appends folded call stacks to a bounded
ring. The instrument is observational by construction: it never touches
simulation state, and because the engine is single-threaded the sampled
thread's behaviour is bit-identical with or without it (asserted by
tests/test_profiling.py and the ``profiling-smoke`` CI job).

Concurrency discipline (RL009): the sampler loop is lock-free — ring
appends go through ``collections.deque`` (atomic under the GIL) and the
stop signal is an ``Event`` the loop *waits* on, so the daemon thread
can die at interpreter shutdown without wedging anything. ``stop()``
always joins the thread; the context-manager form guarantees the join
even when the profiled block raises.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.profiling.profile import Profile

#: Frames deeper than this are truncated; runaway recursion would
#: otherwise make a single sample arbitrarily expensive to record.
MAX_STACK_DEPTH = 128

_JOIN_TIMEOUT_S = 5.0


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    # co_qualname is 3.11+; co_name keeps 3.9/3.10 working.
    qual = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{qual}"


class SamplingProfiler:
    """Sample the Python stack of the thread that called ``start()``
    into a bounded ring — the right scope for profiling a ``System.run``.

    Args:
        interval_s: Host-time gap between samples.
        max_samples: Ring bound; older samples are evicted first.
        clock: Injected monotonic clock used for the profile's duration
            stamp, so tests can drive it without sleeping.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        max_samples: int = 100_000,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ConfigError(f"interval_s must be positive, got {interval_s}")
        if max_samples <= 0:
            raise ConfigError(f"max_samples must be positive, got {max_samples}")
        self.interval_s = interval_s
        self._clock = clock
        self._ring: deque = deque(maxlen=max_samples)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target_tid: Optional[int] = None
        self._started_at = 0.0
        self._stopped_at = 0.0
        self.samples_taken = 0
        self.sample_errors = 0

    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "profiling") -> None:
        """Publish sampler counters into a telemetry registry."""
        registry.gauge(f"{prefix}.samples_taken", lambda: self.samples_taken)
        registry.gauge(f"{prefix}.samples_retained", lambda: len(self._ring))
        registry.gauge(f"{prefix}.sample_errors", lambda: self.sample_errors)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def retained(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise ConfigError("SamplingProfiler.start() may only be called once")
        self._target_tid = threading.get_ident()
        self._started_at = self._clock()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop,
            name="repro-sampler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal the sampler and join it. Idempotent; always joins."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=_JOIN_TIMEOUT_S)
        self._stopped_at = self._clock()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        # Lock-free by design: wait() on the stop Event paces the loop,
        # deque.append publishes samples, plain int increments count
        # them. Nothing here can hold a lock at interpreter shutdown.
        own_tid = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once(own_tid=own_tid)
            except Exception:
                # A torn frame walk (thread exiting mid-snapshot) must
                # not kill the sampler; the counter is the evidence.
                self.sample_errors += 1

    def sample_once(self, own_tid: Optional[int] = None) -> int:
        """Take one sample now; returns the number of stacks recorded.

        Public so tests can exercise capture deterministically without
        running the daemon thread.
        """
        if own_tid is None:
            own_tid = threading.get_ident()
        if self._target_tid == own_tid:
            return 0
        frame = sys._current_frames().get(self._target_tid)
        stack = []
        while frame is not None and len(stack) < MAX_STACK_DEPTH:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        if not stack:
            return 0
        self._ring.append(tuple(reversed(stack)))
        self.samples_taken += 1
        return 1

    # ------------------------------------------------------------------
    def build_profile(self) -> Profile:
        """Fold the ring into a :class:`Profile`. Call after ``stop()``."""
        folded: Dict[str, int] = {}
        for stack in list(self._ring):
            key = ";".join(stack)
            folded[key] = folded.get(key, 0) + 1
        ended = self._stopped_at if self._stopped_at else self._clock()
        duration = max(0.0, ended - self._started_at) if self._started_at else 0.0
        return Profile(
            interval_s=self.interval_s,
            duration_s=duration,
            samples=self.samples_taken,
            retained=len(self._ring),
            folded=folded,
        )


def sampled_stacks(profiler: SamplingProfiler) -> Tuple[Tuple[str, ...], ...]:
    """The raw ring contents, oldest first (test/debug helper)."""
    return tuple(profiler._ring)
