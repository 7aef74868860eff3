"""Workload composition: single-benchmark and mixed workloads.

Paper Section V: a single-benchmark workload runs 4 identical copies of
one benchmark (each in its own address range); MIX_1 and MIX_2 combine
four different benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.workloads.spec2006 import BENCHMARKS, BenchmarkProfile, get_benchmark

#: The paper's two mixed workloads (Table VII).
MIXES: Dict[str, List[str]] = {
    "MIX_1": ["mcf", "bwaves", "zeusmp", "milc"],
    "MIX_2": ["GemsFDTD", "libquantum", "lbm", "leslie3d"],
}


def mix_profiles(name: str) -> List[BenchmarkProfile]:
    """The four per-core profiles of a mixed workload."""
    try:
        members = MIXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown mix {name!r}; known: {', '.join(sorted(MIXES))}"
        ) from None
    return [get_benchmark(member) for member in members]


def workload_profiles(name: str, n_cores: int = 4) -> List[BenchmarkProfile]:
    """Per-core profiles for any workload name.

    A benchmark name yields *n_cores* copies of that benchmark; a mix name
    yields its members (and requires ``n_cores == 4``, as in the paper).
    """
    if name in MIXES:
        profiles = mix_profiles(name)
        if n_cores != len(profiles):
            raise ConfigError(
                f"mix {name} defines {len(profiles)} cores, requested {n_cores}"
            )
        return profiles
    profile = get_benchmark(name)
    return [profile] * n_cores


def all_workload_names(n_cores: Optional[int] = None) -> List[str]:
    """The paper's full evaluation set: 9 benchmarks + 2 mixes.

    With *n_cores*, only the workloads a system with that many cores can
    run: a mix needs one core per member.
    """
    mixes = [
        name for name, members in sorted(MIXES.items())
        if n_cores is None or len(members) == n_cores
    ]
    return sorted(BENCHMARKS, key=str.lower) + mixes
