"""The core's suspended event loop against a re-entered reference.

``CoreModel`` keeps its event loop as one suspended generator per core:
a wake resumes the frame, and the event the core waits to retry stays
in its locals. The reference below is the loop it replaced, entered
afresh on every wake: it reads the core's attributes into locals on each
entry, parks the waiting event in ``_pending`` and writes the cursor
back on every way out. A ``System`` built with either core must compute
the same results, leave the cores in the same state and dispatch the
same engine events in the same order.
"""

import itertools
import math
from dataclasses import asdict, replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cpu.multicore
from repro.cpu.core_model import (
    _READ,
    _W_BLOCKING,
    _W_MLP,
    _W_NONE,
    _W_SPACE,
    _WRITE,
    CoreModel,
)
from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.workloads.events import EV_READ, EV_REGISTER, EV_WRITE
from tests.test_dispatch_digests import recording_schedule_at

#: Wait reason of the reference only: the cursor is ahead of sim time.
_W_TIME = 4


class ReenteredCore(CoreModel):
    """Reference core: every wake re-enters :meth:`_run` from the top."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = None

    def _run(self):
        if self._wait not in (_W_NONE, _W_TIME):
            return  # a stale wake-up; the real wake path will re-enter
        self._wait = _W_NONE
        sim = self.sim
        now = sim.now
        end = self._end_time_ns
        if end is None:
            end = math.inf
        stats = self.stats
        next_event = self._events.__next__
        register = self._register
        ns_per_instruction = self._ns_per_instruction
        controller = self._controller
        params = self.params
        mlp = params.mlp
        blocking_fraction = params.blocking_load_fraction
        core_id = self.core_id
        t = self._t
        # The event in hand is parked in ``pending`` (its gap already
        # retired) whenever the loop returns before consuming it.
        pending = self._pending
        try:
            while t < end:
                if pending is None:
                    try:
                        kind, gap, block, payload = next_event()
                    except StopIteration:
                        self._exhausted = True
                        return
                    if gap:
                        t += gap * ns_per_instruction
                        stats.retired_instructions += gap
                else:
                    kind, _, block, payload = pending
                    pending = None

                if t > now:
                    pending = (kind, 0, block, payload)
                    self._wait = _W_TIME
                    sim.schedule_at(t, self._wake_time)
                    return

                if kind == EV_REGISTER:
                    was_dirty, count = payload
                    if register is not None:
                        register(block, was_dirty, count)
                    stats.registrations += count
                elif kind == EV_READ:
                    if self._outstanding >= mlp:
                        self._wait = _W_MLP
                        stats.mlp_stalls += 1
                        pending = (kind, 0, block, payload)
                        return
                    if not controller.can_accept(_READ, block):
                        self._wait = _W_SPACE
                        stats.read_queue_stalls += 1
                        controller.notify_space(_READ, block, self._wake_space)
                        pending = (kind, 0, block, payload)
                        return
                    blocking = self._rng.random() < blocking_fraction
                    request = MemRequest(
                        _READ, block, None, 0.0, None, core_id,
                        self._on_read_complete,
                    )
                    if blocking:
                        self._blocking_req_id = request.req_id
                    controller.enqueue(request)
                    self._outstanding += 1
                    stats.reads_issued += 1
                    if blocking:
                        self._wait = _W_BLOCKING
                        stats.blocking_stalls += 1
                        return
                elif kind == EV_WRITE:
                    if not controller.can_accept(_WRITE, block):
                        self._wait = _W_SPACE
                        stats.write_queue_stalls += 1
                        controller.notify_space(
                            _WRITE, block, self._wake_space, self._space_refused
                        )
                        pending = (kind, 0, block, payload)
                        return
                    controller.enqueue(
                        MemRequest(
                            _WRITE, block, self._choose_mode(block), 0.0, None,
                            core_id,
                        )
                    )
                    stats.writes_issued += 1
                else:
                    raise SimulationError(f"unknown workload event kind: {kind}")
        finally:
            self._t = t
            self._pending = pending

    def _wake_time(self):
        if self._wait == _W_TIME:
            self._wait = _W_NONE
            self._run()


#: The reference's engine callbacks, labelled as the core's own.
REFERENCE_LABEL = f"{ReenteredCore.__module__}:ReenteredCore."
CORE_LABEL = f"{CoreModel.__module__}:CoreModel."


def as_core_label(label):
    """*label*, a reference callback's renamed to the core's own."""
    return label.replace(REFERENCE_LABEL, CORE_LABEL)


def run_system(
    config, workload, scheme, max_events, trace_events, end_ns, core_cls
):
    """Run the cell with *core_cls* cores; core 0's stream ends after
    *trace_events* events, and every core parks at *end_ns* rather than
    at the end of the run, when those are not None. Returns everything
    the two cores must agree on."""
    build_streams = System._build_streams

    def streams(self):
        built = build_streams(self)
        if trace_events is not None:
            built[0] = itertools.islice(built[0], trace_events)
        return built

    def build_core(*args, **kwargs):
        if end_ns is not None:
            kwargs["end_time_ns"] = end_ns
        return core_cls(*args, **kwargs)

    log = []
    with mock.patch.object(
        Simulator, "schedule_at", recording_schedule_at(log, as_core_label)
    ), mock.patch.object(System, "_build_streams", streams), mock.patch.object(
        repro.cpu.multicore, "CoreModel", build_core
    ):
        system = System(config, workload, scheme)
        result = system.run(max_events=max_events)
    cores = system.multicore.cores
    sim = system.sim
    return (
        result.as_dict(),
        result.stalls,
        [asdict(core.stats) for core in cores],
        [(core._t, core.parked, core._outstanding) for core in cores],
        (sim.events_processed, sim.events_scheduled, sim.events_cancelled),
        log,
    )


#: 100 examples in tier-1, ten times as many under the ``thorough``
#: hypothesis profile (tests/conftest.py).
@settings(max_examples=settings.default.max_examples, deadline=None)
@given(
    n_cores=st.integers(1, 4),
    scheme=st.sampled_from([Scheme.STATIC_7, Scheme.STATIC_3, Scheme.RRM]),
    workload=st.sampled_from(["GemsFDTD", "mcf", "hmmer", "lbm"]),
    seed=st.integers(1, 50),
    mlp=st.integers(1, 8),
    blocking=st.sampled_from([0.0, 0.25, 0.6, 1.0]),
    write_capacity=st.integers(2, 16),
    read_capacity=st.integers(2, 16),
    duration_s=st.sampled_from([None, 1e-4, 4e-4]),
    trace_events=st.none() | st.integers(0, 400),
    end_ns=st.sampled_from([None, 2e4, 6e4, 1.5e5]),
    max_events=st.integers(500, 4000),
)
def test_resumed_loop_matches_reentered_loop(
    n_cores, scheme, workload, seed, mlp, blocking, write_capacity,
    read_capacity, duration_s, trace_events, end_ns, max_events,
):
    base = SystemConfig.tiny(seed=seed)
    config = replace(
        base,
        n_cores=n_cores,
        cores=replace(base.cores, mlp=mlp, blocking_load_fraction=blocking),
        memory=replace(
            base.memory,
            write_queue_capacity=write_capacity,
            read_queue_capacity=read_capacity,
        ),
    )
    if duration_s is not None:
        config = config.with_duration(duration_s)
    args = (config, workload, scheme, max_events, trace_events, end_ns)
    assert run_system(*args, CoreModel) == run_system(*args, ReenteredCore)


def test_a_finite_trace_parks_its_core_for_good(sim, controller):
    """A core whose stream ends parks, and a later resume finds its loop
    suspended, not finished."""
    core = CoreModel(sim, 0, iter([(EV_READ, 4, 0, None)]), controller)
    core.start()
    sim.run()
    assert core.parked and core.stats.reads_issued == 1
    core._run()
    assert core.parked
