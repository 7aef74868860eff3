"""Host-side profiling by exact counts: what the simulator process did.

The rest of the telemetry stack measures the *simulated* machine; this
package counts the work of the *simulator*, the Python process itself,
so hot-path changes are planned and checked against numbers that repeat
exactly from run to run. One :class:`~repro.profiling.counts.Profile`
artifact holds both tables (see :mod:`repro.profiling.counts`): the
engine's dispatch count per event owner and cProfile's call count per
function of ``System.run``. ``repro-rrm profile run|report|diff``
writes, renders and compares them; host *time* is measured by the
untraced speed benchmark (``benchmarks/speed``) instead.
"""

from repro.profiling.counts import (
    Profile,
    ProfileError,
    count_calls,
    diff_profiles,
    format_diff,
    format_profile,
    load_profile,
    subsystem_of,
)

__all__ = [
    "Profile",
    "ProfileError",
    "count_calls",
    "diff_profiles",
    "format_diff",
    "format_profile",
    "load_profile",
    "subsystem_of",
]
