"""Host-speed probe: how fast the shared host runs this process, over time.

On a shared host the same code can run up to twice as slow for seconds
or minutes while other tenants load the physical core. CPU time slows
down with wall time, so a CPU clock does not help, and a run-level
median does not either: a slow spell can cover a whole run.

The probe measures that slow-down where it happens. A ``SIGALRM`` timer
interrupts the measured process every :data:`INTERVAL_S` and runs one
fixed slice of reference work in two parts:

- a compute part: interpreter-bound arithmetic, slotted attribute and
  dict updates and heap sifts on a few KB of data, which slows down most
  when a neighbour shares the core;
- a memory part: dict lookups in a shuffled order over a table larger
  than the core's L2 cache, which slows down less.

The simulator sits between the two, so a blend of them tracks its
slow-down. On the reference host, multiplying a batch's host time by the
host speed the probes saw during it cut the batch-to-batch spread of
``run_s`` from 12-18% to 1.3-2.1% (coefficient of variation, 25 batches
per workload). See README.md, "Host-speed normalisation".

The probe touches none of the measured program's objects, so results
stay bit-identical. Its own time is subtracted from every interval it
falls in. It imports nothing from ``repro``.
"""

from __future__ import annotations

import heapq
import random
import resource
import signal
import time
from typing import List, Tuple

#: Seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of each part of one probe, sized so that on the reference
#: host the compute part takes 70% of a probe and the memory part 30%:
#: the blend that tracked every workload best there (it gave the lowest
#: spread of the blends 40/60 to 90/10).
COMPUTE_STEPS = 4_900
MEMORY_STEPS = 1_800
#: Entries of the memory part's table (with its key list, about 15 MB of
#: RSS, which the child subtracts from ``peak_rss_mb``).
TABLE_SIZE = 1 << 17
#: Seconds one probe takes on the reference host (a 2-vCPU Intel Xeon
#: KVM guest, Python 3.11) at its fastest: the 5th percentile of each
#: part's time there, summed. Host speed 1.0 is that speed, so normalised
#: seconds are seconds on the reference host with its core to itself.
NOMINAL_PROBE_S = 0.0042


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 0


class HostProbe:
    """Timer-driven probes, and the host speed over any time window.

    ``samples`` holds ``(start, seconds)`` per probe, in
    ``time.perf_counter`` time. Build it before the clock it corrects
    starts: building takes a few tens of ms and allocates the table.
    """

    def __init__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rng = random.Random(TABLE_SIZE)
        keys = list(range(TABLE_SIZE))
        rng.shuffle(keys)
        self._keys = keys
        self._table = {k: k & 0xFF for k in range(TABLE_SIZE)}
        self._slots = [_Slot() for _ in range(64)]
        self._counts = dict.fromkeys(range(1024), 0)
        self._heap = list(range(256))
        heapq.heapify(self._heap)
        #: Peak RSS the probe itself added, in KiB.
        self.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        self.samples: List[Tuple[float, float]] = []

    def work(self) -> None:
        """One probe's reference work: the compute part, then the memory
        part. It allocates no container objects, so it does not move the
        measured program's garbage collections."""
        x = 12345
        slots, counts, heap = self._slots, self._counts, self._heap
        for _ in range(COMPUTE_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            slot = slots[x & 63]
            slot.a = (slot.a + counts[(x >> 6) & 1023]) & 0xFFFF
            counts[(x >> 6) & 1023] = slot.a
            heapq.heapreplace(heap, heap[0] + (x & 255))
            slot.b = heap[0]
        table, keys = self._table, self._keys
        mask = TABLE_SIZE - 1
        j = 0
        acc = 0
        for _ in range(MEMORY_STEPS):
            j = (j + 7919) & mask
            acc += table[keys[j]]

    def probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        """Probe once now, then every :data:`INTERVAL_S` until :meth:`stop`."""
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(probe_s, speed)`` for the window ``[start, end)``.

        *probe_s* is the probe time inside the window. *speed* is the
        mean of ``NOMINAL_PROBE_S / seconds`` over those probes: the
        host's speed relative to the reference host, time-weighted
        because probes are evenly spaced. A window no probe fell in takes
        the speed of the last probe before it.
        """
        inside = [s for t, s in self.samples if start <= t < end]
        if not inside:
            before = [s for t, s in self.samples if t < start] or [NOMINAL_PROBE_S]
            return 0.0, NOMINAL_PROBE_S / before[-1]
        return sum(inside), sum(NOMINAL_PROBE_S / s for s in inside) / len(inside)
