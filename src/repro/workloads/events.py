"""Workload event encoding.

Events are plain tuples ``(kind, gap, block, payload)`` — this is the
hottest data path in the simulator, so we avoid per-event object overhead:

- ``kind``: one of :data:`EV_READ`, :data:`EV_WRITE`, :data:`EV_REGISTER`;
- ``gap``: instructions retired since the previous event;
- ``block``: 64-byte block index the event targets;
- ``payload``: for reads and writes, always False; for a registration,
  the pair ``(dirty, count)``. It stands for ``count`` consecutive LLC
  writes to *block* (a write group's LLC stores), all with one ``dirty``
  flag, saying whether the written LLC line was already dirty. The first
  of them carries ``gap``; the rest follow at gap 0.

A run of registrations is one event so that the core and the RRM take
the whole run in one step. Its effect is defined as that of ``count``
single registrations in a row; nothing can happen between them, because
a registration takes no core time. A bare bool as a registration's
payload fails to unpack in the core instead of counting as one
registration.
"""

from __future__ import annotations

from typing import Any, Tuple

#: Memory read — an LLC miss that must fetch from PCM.
EV_READ = 0
#: Memory write — a dirty LLC victim written back to PCM.
EV_WRITE = 1
#: LLC write registrations — dirty L2 victims landing in the LLC.
EV_REGISTER = 2

#: The payload is False, or ``(dirty, count)`` for a registration; it is
#: typed ``Any`` so that each consumer unpacks it by the event's kind.
WorkloadEvent = Tuple[int, int, int, Any]

_KIND_NAMES = {EV_READ: "read", EV_WRITE: "write", EV_REGISTER: "register"}


def event_kind_name(kind: int) -> str:
    """Readable name of an event kind (for traces and debugging)."""
    try:
        return _KIND_NAMES[kind]
    except KeyError:
        raise ValueError(f"unknown event kind: {kind}") from None
