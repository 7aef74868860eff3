"""The sharded sweep fabric: multiprocess sweep execution.

:class:`FabricExecutor` fans one sweep out across N worker processes
that share the checkpoint journal as a work-stealing queue
(:class:`~repro.resilience.journal.ResultJournal`), keeping results
bit-identical to serial execution while crashes, timeouts, fault
injection and ``--resume`` keep composing.
"""

from repro.fabric.executor import FabricExecutor, FabricOutcome, FabricStats
from repro.resilience.journal import Claim
from repro.resilience.locking import FileLock

__all__ = [
    "Claim",
    "FabricExecutor",
    "FabricOutcome",
    "FabricStats",
    "FileLock",
]
