"""Host-side profiling: where the wall-time and the bytes actually go.

The rest of the telemetry stack measures the *simulated* machine; this
package measures the *simulator* — the Python process itself — so the
10× hot-path campaign (ROADMAP item 1) and the sparse-state refactor
(item 5) can be planned and verified against committed artifacts
instead of folklore. Three instruments, all stdlib-only:

- :class:`~repro.profiling.sampler.SamplingProfiler` — a statistical
  sampling profiler (daemon thread over ``sys._current_frames``) whose
  samples fold into per-function / per-subsystem self-time shares;
- deterministic event-cost accounting on the engine
  (:meth:`repro.engine.Simulator.enable_cost_accounting`) — per-owner
  dispatch counts that are bit-stable across hosts, plus host-time
  attribution behind an injected clock;
- :func:`~repro.profiling.memcensus.take_census` — a recursive
  deep-sizeof walk over live ``System`` state (optionally backed by
  ``tracemalloc``) reporting bytes per subsystem against the number of
  regions the workload actually touches.

Everything funnels into one :class:`~repro.profiling.profile.Profile`
artifact: a JSON document with folded stacks, dispatch tables and the
memory census, renderable as text (``repro-rrm profile report``), as a
dependency-free SVG flamegraph, diffable against another run, and
mergeable across fabric workers.
"""

from repro.profiling.flamegraph import render_flamegraph
from repro.profiling.memcensus import deep_sizeof, take_census
from repro.profiling.profile import (
    DEFAULT_DIFF_TOLERANCE,
    Profile,
    ProfileDiff,
    diff_profiles,
    format_diff,
    format_profile,
    load_profile,
    merge_profiles,
    subsystem_of,
)
from repro.profiling.sampler import SamplingProfiler

__all__ = [
    "DEFAULT_DIFF_TOLERANCE",
    "Profile",
    "ProfileDiff",
    "SamplingProfiler",
    "deep_sizeof",
    "diff_profiles",
    "format_diff",
    "format_profile",
    "load_profile",
    "merge_profiles",
    "render_flamegraph",
    "subsystem_of",
    "take_census",
]
