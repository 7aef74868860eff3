"""The sharded sweep fabric: multiprocess sweep execution.

:class:`FabricExecutor` fans one sweep out across N worker processes
that share the checkpoint journal as a work-stealing queue
(:class:`SharedJournal`), keeping results bit-identical to serial
execution while crashes, timeouts, fault injection and ``--resume``
keep composing.
"""

from repro.fabric.executor import FabricExecutor, FabricOutcome, FabricStats
from repro.fabric.locking import FileLock
from repro.fabric.sharedjournal import Claim, SharedJournal

__all__ = [
    "Claim",
    "FabricExecutor",
    "FabricOutcome",
    "FabricStats",
    "FileLock",
    "SharedJournal",
]
