"""What a run imports: the simulator path loads no instrumentation or
orchestration module it does not use (DESIGN.md, "Import layering").

Every case runs in a fresh interpreter, because the test process has
long since imported everything. The child records ``sys.modules`` at the
points the case asks about and prints them as JSON on its last line.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

#: Packages and modules an uninstrumented ``System`` never uses.
NOT_ON_SIM_PATH = (
    "repro.attribution",
    "repro.profiling",
    "repro.resilience",
    "repro.obs",
    "repro.lint",
    "repro.analysis",
    "repro.cache",
    "repro.sim.runner",
    "repro.sim.sweeps",
    "repro.sim.validation",
    "repro.core.multimode",
    "repro.core.baselines",
    "repro.workloads.trace",
    "repro.workloads.cpu_trace",
    "repro.pcm.wear_leveling",
    "repro.telemetry.summary",
    "repro.telemetry.profiler",
    "cProfile",
)

#: Packages a serial, uninstrumented sweep never uses; the sweep loop
#: imports ``multiprocessing`` only where it spawns workers.
NOT_ON_SERIAL_SWEEP_PATH = (
    "multiprocessing",
    "repro.obs",
    "repro.attribution",
    "repro.profiling",
)

#: Modules a sweep loads only when asked: the workers' crash flight
#: recorder (``sweep --flight-dir``) and the Prometheus renderer
#: (``sweep --metrics-out``).
ON_REQUEST_ONLY = ("repro.resilience.flightrecorder", "repro.obs.exposition")

INSTRUMENTATION = ("repro.attribution", "repro.profiling")

#: Only ``repro-rrm profile run`` counts calls; a profiled ``System``
#: counts dispatches and nothing else.
NOT_IN_PROFILED_SYSTEM = ("cProfile", "_lsprof")

PRELUDE = """\
import json
import sys

from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme

CONFIG = SystemConfig.tiny(1)
snapshots = {}
"""


def snapshots_of(fresh_python, body: str) -> Dict[str, List[str]]:
    """Run *body* after :data:`PRELUDE` in a fresh interpreter; returns
    the ``snapshots`` it recorded (name -> sorted module names)."""
    out = fresh_python(PRELUDE + body + "\nprint(json.dumps(snapshots))\n")
    return json.loads(out.splitlines()[-1])


def under(modules: Iterable[str], packages: Iterable[str]) -> List[str]:
    """The *modules* that are one of *packages* or inside one."""
    packages = tuple(packages)
    return [
        name
        for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    ]


class TestUninstrumentedRun:
    def test_system_run_loads_nothing_it_does_not_use(self, fresh_python):
        snapshots = snapshots_of(
            fresh_python,
            "import repro.sim.system\n"
            "system = repro.sim.system.System(CONFIG, 'hmmer', Scheme.RRM)\n"
            "system.run(max_events=2000)\n"
            "snapshots['after_run'] = sorted(sys.modules)\n",
        )
        assert under(snapshots["after_run"], NOT_ON_SIM_PATH) == []
        assert under(snapshots["after_run"], ON_REQUEST_ONLY) == []

    def test_serial_sweep_loads_no_fabric_obs_or_instrumentation(
        self, fresh_python
    ):
        snapshots = snapshots_of(
            fresh_python,
            "from repro.sim.runner import ExperimentRunner\n"
            "runner = ExperimentRunner(\n"
            "    CONFIG, ['hmmer'], [Scheme.STATIC_7, Scheme.RRM],\n"
            "    max_events=2000,\n"
            ")\n"
            "results = runner.run_all()\n"
            "assert len(results) == 2 and not runner.failures\n"
            "snapshots['after_sweep'] = sorted(sys.modules)\n",
        )
        assert under(snapshots["after_sweep"], NOT_ON_SERIAL_SWEEP_PATH) == []
        assert under(snapshots["after_sweep"], ON_REQUEST_ONLY) == []


class TestInstrumentedRun:
    def test_instrumentation_loads_in_init_and_never_in_run(self, fresh_python):
        snapshots = snapshots_of(
            fresh_python,
            "from repro.sim.system import System\n"
            "from repro.telemetry import TelemetryConfig\n"
            "system = System(\n"
            "    CONFIG, 'hmmer', Scheme.RRM,\n"
            "    telemetry=TelemetryConfig(attribution=True, profile=True),\n"
            ")\n"
            "snapshots['after_init'] = sorted(sys.modules)\n"
            "result = system.run(max_events=2000)\n"
            "assert result.attribution is not None\n"
            "assert result.profile is not None\n"
            "snapshots['after_run'] = sorted(sys.modules)\n",
        )
        after_init = snapshots["after_init"]
        assert set(INSTRUMENTATION) <= set(after_init)
        loaded_in_run = set(snapshots["after_run"]) - set(after_init)
        assert under(sorted(loaded_in_run), INSTRUMENTATION) == []
        assert under(snapshots["after_run"], NOT_IN_PROFILED_SYSTEM) == []
