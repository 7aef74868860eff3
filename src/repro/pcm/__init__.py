"""MLC PCM device model.

This package models the phase-change-memory substrate the paper depends on:

- :mod:`repro.pcm.drift` — resistance-drift physics and the retention model;
- :mod:`repro.pcm.write_modes` — the write latency / retention trade-off
  table (paper Table I) derived from the drift model;
- :mod:`repro.pcm.timing` — device timing parameters (paper Table V);
- :mod:`repro.pcm.energy` — per-operation energy accounting;
- :mod:`repro.pcm.endurance` — wear tracking and the lifetime model;
- :mod:`repro.pcm.bank` / :mod:`repro.pcm.device` — banks, row buffers and
  the assembled multi-channel device with its self-refresh circuit.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pcm.bank import Bank, RowBuffer
    from repro.pcm.device import PCMDevice
    from repro.pcm.drift import DriftModel, DriftParameters
    from repro.pcm.endurance import EnduranceModel, WearBreakdown, WearTracker
    from repro.pcm.energy import EnergyBreakdown, EnergyModel
    from repro.pcm.timing import PCMTimings
    from repro.pcm.wear_leveling import LeveledWearSimulator, StartGapLeveler
    from repro.pcm.write_modes import (
        RESET_LATENCY_NS,
        SET_ITERATION_LATENCY_NS,
        WriteMode,
        WriteModeTable,
    )

__all__ = [
    "DriftModel",
    "DriftParameters",
    "RESET_LATENCY_NS",
    "SET_ITERATION_LATENCY_NS",
    "WriteMode",
    "WriteModeTable",
    "PCMTimings",
    "EnergyModel",
    "EnergyBreakdown",
    "EnduranceModel",
    "WearTracker",
    "WearBreakdown",
    "Bank",
    "RowBuffer",
    "PCMDevice",
    "LeveledWearSimulator",
    "StartGapLeveler",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.pcm.bank": ("Bank", "RowBuffer"),
        "repro.pcm.device": ("PCMDevice",),
        "repro.pcm.drift": ("DriftModel", "DriftParameters"),
        "repro.pcm.endurance": ("EnduranceModel", "WearBreakdown", "WearTracker"),
        "repro.pcm.energy": ("EnergyBreakdown", "EnergyModel"),
        "repro.pcm.timing": ("PCMTimings",),
        "repro.pcm.wear_leveling": ("LeveledWearSimulator", "StartGapLeveler"),
        "repro.pcm.write_modes": (
            "RESET_LATENCY_NS",
            "SET_ITERATION_LATENCY_NS",
            "WriteMode",
            "WriteModeTable",
        ),
    },
)
