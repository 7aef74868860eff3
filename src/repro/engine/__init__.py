"""Discrete-event simulation engine.

Time is a float in nanoseconds. Events are callbacks scheduled on a binary
heap; ties break on insertion order so the simulation is deterministic.
"""

from repro.engine.simulator import EventHandle, Simulator

__all__ = ["EventHandle", "Simulator"]
