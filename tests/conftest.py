"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest
from hypothesis import settings

import repro
from repro.core.config import RRMConfig
from repro.engine import Simulator
from repro.memctrl.controller import MemoryController
from repro.pcm.device import PCMDevice
from repro.pcm.write_modes import WriteModeTable
from repro.sim.config import SystemConfig
from repro.utils.units import parse_size

#: ``pytest --hypothesis-profile thorough`` runs every property that
#: scales its example count with ``settings.default`` ten times as long.
settings.register_profile(
    "thorough", max_examples=10 * settings.get_profile("default").max_examples
)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def modes() -> WriteModeTable:
    return WriteModeTable()


@pytest.fixture
def small_device() -> PCMDevice:
    """A 16MB device with 2 channels x 2 banks — enough structure to
    exercise the address map and scheduler without bulk."""
    return PCMDevice(
        size_bytes=parse_size("16MB"), n_channels=2, banks_per_channel=2
    )


@pytest.fixture
def controller(sim, small_device) -> MemoryController:
    return MemoryController(
        sim,
        small_device,
        refresh_queue_capacity=8,
        read_queue_capacity=8,
        write_queue_capacity=8,
    )


@pytest.fixture
def rrm_config() -> RRMConfig:
    """A small RRM: 4 sets x 4 ways of 4KB regions."""
    return RRMConfig(n_sets=4, n_ways=4)


@pytest.fixture
def tiny_config() -> SystemConfig:
    return SystemConfig.tiny()


@pytest.fixture
def fresh_python() -> Callable[..., str]:
    """Run code in a fresh interpreter (this one has imported everything
    long ago) with this checkout's ``src`` first on the path and *env*
    (optional) added to its environment; returns its stdout and fails
    the test if the code fails or outlives *timeout* seconds."""
    src = str(Path(repro.__file__).resolve().parents[1])
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, base_env.get("PYTHONPATH")) if path
    )

    def run(
        code: str, env: Optional[Dict[str, str]] = None, timeout: float = 120
    ) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**base_env, **(env or {})},
            timeout=timeout,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
