"""Region Retention Monitor (RRM) — the paper's primary contribution.

The RRM is a small set-associative structure between the LLC and the
memory controller. It:

1. observes LLC writes (*LLC Write Registration*), counting writes to
   dirty LLC entries per 4KB *Retention Region* to find hot regions while
   filtering out streaming writes;
2. decides the write mode of every memory write (*Memory Mode Decision*):
   3-SETs fast/short-retention for blocks in hot regions, 7-SETs
   slow/long-retention otherwise;
3. issues *Selective Fast Refresh* requests for short-retention blocks
   before their retention expires;
4. *decays* regions that stop being hot, rewriting their short-retention
   blocks with the long-retention mode.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import RRMConfig
    from repro.core.entry import RRMEntry
    from repro.core.monitor import RegionRetentionMonitor, RRMStats
    from repro.core.multimode import TieredRetentionMonitor, TieredRRMConfig
    from repro.core.tag_array import RRMTagArray

__all__ = [
    "RRMConfig",
    "RRMEntry",
    "RRMTagArray",
    "RegionRetentionMonitor",
    "RRMStats",
    "TieredRetentionMonitor",
    "TieredRRMConfig",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("RRMConfig",),
        "repro.core.entry": ("RRMEntry",),
        "repro.core.monitor": ("RegionRetentionMonitor", "RRMStats"),
        "repro.core.multimode": ("TieredRetentionMonitor", "TieredRRMConfig"),
        "repro.core.tag_array": ("RRMTagArray",),
    },
)
