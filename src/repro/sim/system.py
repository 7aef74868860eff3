"""End-to-end system assembly.

``System`` wires together the discrete-event engine, the workload
generators, the core models, the (optional) Region Retention Monitor, the
memory controller and the PCM device, runs the configured duration, and
produces a :class:`~repro.sim.metrics.SimResult`.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import TYPE_CHECKING, List, Optional

from repro.core.monitor import RegionRetentionMonitor
from repro.cpu.multicore import Multicore
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice
from repro.pcm.drift import DriftModel, DriftParameters
from repro.pcm.endurance import EnduranceModel, WearTracker
from repro.pcm.energy import EnergyModel
from repro.pcm.write_modes import WriteModeTable
from repro.sim.config import SystemConfig
from repro.sim.metrics import EnergyReport, SimResult, WearReport
from repro.sim.schemes import Scheme
from repro.telemetry import Telemetry, TelemetryConfig
from repro.utils.units import s_to_ns
from repro.workloads.mixes import workload_profiles
from repro.workloads.synthetic import BLOCKS_PER_REGION, RegionTrafficGenerator

if TYPE_CHECKING:
    # Instrumentation loads in System.__init__, and only when switched on.
    from repro.attribution import AttributionCollector, AttributionReport

# Enum member access runs Python code in the enum machinery on every
# lookup; the per-request completion path uses these module constants.
_READ = RequestType.READ
_WRITE = RequestType.WRITE
_RRM_REFRESH = RequestType.RRM_REFRESH


class System:
    """One simulated machine running one workload under one scheme."""

    def __init__(
        self,
        config: SystemConfig,
        workload: str,
        scheme: Scheme,
        *,
        track_wear_per_block: bool = False,
        write_trace_sink=None,
        monitor_factory=None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        """
        Args:
            config: System parameters.
            workload: A benchmark name (4 copies) or a mix name.
            scheme: Write-mode management scheme.
            track_wear_per_block: Keep a per-block wear Counter (slower;
                needed only for wear-distribution analyses).
            write_trace_sink: Optional callable ``(time_ns, block)`` fired
                on every completed demand write — used by the Table III
                region-interval analysis.
            monitor_factory: Optional callable ``(modes, sim, controller)
                -> monitor`` replacing the stock RegionRetentionMonitor
                when the scheme is RRM — the extension point used by the
                tiered multi-mode monitor.
            telemetry: Observability switches; None keeps the no-op
                tracer and the run byte-identical to an uninstrumented
                one. Metrics always harvest through the registry either
                way.
        """
        self.config = config
        self.workload = workload
        self.scheme = scheme
        self.sim = Simulator()
        self.telemetry = Telemetry(telemetry, clock=lambda: self.sim.now)
        # Instrumentation modules are imported here, when switched on, and
        # never inside run(), whose wall time must not absorb an import.
        if telemetry is not None and telemetry.profile:
            import repro.profiling  # noqa: F401 - _build_profile uses it

            # Enabled before any event is scheduled so every owner
            # resolves.
            self.sim.enable_cost_accounting()

        # --- PCM substrate ------------------------------------------------
        drift = DriftModel(DriftParameters(drift_scale=config.drift_scale))
        self.modes = WriteModeTable(drift)
        # Unscaled table for reporting on the paper's timescale.
        self._real_modes = WriteModeTable(DriftModel(DriftParameters(drift_scale=1.0)))
        self.device = PCMDevice(
            size_bytes=config.memory.size_bytes,
            n_channels=config.memory.n_channels,
            banks_per_channel=config.memory.banks_per_channel,
            row_bytes=config.memory.row_buffer_bytes,
            modes=self.modes,
            allow_write_pausing=config.memory.allow_write_pausing,
        )
        self.attribution: Optional[AttributionCollector] = None
        if telemetry is not None and telemetry.attribution:
            import repro.attribution

            self.attribution = repro.attribution.AttributionCollector(
                n_banks=self.device.n_banks,
                banks_per_channel=self.device.banks_per_channel,
                fast_n_sets=self.modes.fast.n_sets,
                slow_n_sets=self.modes.slow.n_sets,
                row_hit_read_ns=self.device.timings.row_hit_read_ns,
                region_of=config.rrm.region_of_block,
            )
        self.controller = MemoryController(
            self.sim,
            self.device,
            refresh_queue_capacity=config.memory.refresh_queue_capacity,
            read_queue_capacity=config.memory.read_queue_capacity,
            write_queue_capacity=config.memory.write_queue_capacity,
            tracer=self.telemetry.tracer,
            attribution=self.attribution,
        )
        self.wear = WearTracker(track_per_block=track_wear_per_block)
        self.energy = EnergyModel(modes=self.modes)
        self.endurance = EnduranceModel(
            endurance_writes=config.memory.endurance_writes,
            wear_leveling_efficiency=config.memory.wear_leveling_efficiency,
        )
        self._write_trace_sink = write_trace_sink
        # What the energy and wear models' record_read, record_write and
        # record_demand_write would update, for _on_completion to update
        # directly; each mode's write energy is read from the table once.
        self._energy_breakdown = self.energy.breakdown
        self._wear_breakdown = self.wear.breakdown
        self._per_block_wear = (
            self.wear.per_block if self.wear.track_per_block else None
        )
        self._read_energy = self.energy.read_energy_units
        self._write_energy = {
            mode.n_sets: mode.normalized_energy for mode in self.modes
        }
        self.controller.add_completion_listener(self._on_completion)

        # --- Scheme -------------------------------------------------------
        self.rrm: Optional[RegionRetentionMonitor] = None
        if scheme is Scheme.RRM:
            if monitor_factory is not None:
                self.rrm = monitor_factory(self.modes, self.sim, self.controller)
            else:
                self.rrm = RegionRetentionMonitor(
                    config.rrm,
                    self.modes,
                    sim=self.sim,
                    controller=self.controller,
                    tracer=self.telemetry.tracer,
                )
            chooser = self.rrm.decide_write_mode
            register_sink = self.rrm.register_llc_write
        else:
            static_mode = scheme.static_n_sets
            chooser = lambda block: static_mode  # noqa: E731 - hot path
            register_sink = None

        # --- Workload + cores ----------------------------------------------
        streams = self._build_streams()
        self.multicore = Multicore(
            self.sim,
            self.controller,
            streams,
            config.cores,
            write_mode_chooser=chooser,
            register_sink=register_sink,
            end_time_ns=s_to_ns(config.duration_s),
            seed=config.seed,
        )
        self._ran = False
        self._register_metrics()
        if telemetry is not None and telemetry.metrics_interval_s is not None:
            # Started in run(); built here so its module loads with the rest.
            self.telemetry.make_profiler(
                self.sim, s_to_ns(telemetry.metrics_interval_s)
            )

    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        """Wire every subsystem into the run's metric registry.

        All registrations are pull gauges over existing stats objects, so
        this is one-time wiring with zero hot-path cost; ``_finalize``
        harvests results through ``registry.snapshot()``.
        """
        registry = self.telemetry.registry
        self.sim.register_metrics(registry)
        self.controller.register_metrics(registry)
        self.multicore.register_metrics(registry)
        self.wear.register_metrics(registry)
        self.energy.register_metrics(registry)
        if self.rrm is not None and hasattr(self.rrm, "register_metrics"):
            self.rrm.register_metrics(registry)
        if self.attribution is not None:
            self.attribution.register_metrics(registry)
        if self.sim.cost_accounting is not None:
            self.sim.cost_accounting.register_metrics(registry)

    # ------------------------------------------------------------------
    def _build_streams(self) -> List:
        config = self.config
        profiles = workload_profiles(self.workload, config.n_cores)
        core_window = config.memory.n_blocks // config.n_cores
        streams = []
        for core_id, profile in enumerate(profiles):
            scaled = profile.scaled_footprint(config.footprint_scale)
            footprint_blocks = scaled.traffic.footprint_regions * BLOCKS_PER_REGION
            if footprint_blocks > core_window:
                # Clamp the footprint into the core's address window rather
                # than failing: tier proportions are preserved.
                shrink = core_window / footprint_blocks * 0.95
                scaled = scaled.scaled_footprint(shrink)
            generator = RegionTrafficGenerator(
                scaled.traffic,
                base_block=core_id * core_window,
                seed=config.seed * 1013 + core_id,
            )
            streams.append(iter(generator))
        return streams

    # ------------------------------------------------------------------
    def attribution_report(self) -> AttributionReport:
        """The run's full latency-anatomy report (attribution must be on)."""
        if self.attribution is None:
            raise ConfigError(
                "attribution is not enabled; pass "
                "TelemetryConfig(attribution=True)"
            )
        import repro.attribution  # loaded with the collector in __init__

        return repro.attribution.AttributionReport.from_collector(self.attribution)

    # ------------------------------------------------------------------
    def _on_completion(self, request: MemRequest) -> None:
        """Per-completion energy and wear bookkeeping, in one frame.

        Demand reads and writes update the breakdowns directly, as
        ``record_read()``, ``record_demand_write(block)`` and
        ``record_write(n_sets)`` would (each adds its per-operation
        energy times a count of 1, and ``x * 1 == x``).
        """
        rtype = request.rtype
        if rtype is _READ:
            self._energy_breakdown.read_energy += self._read_energy
        elif rtype is _WRITE:
            n_sets = request.n_sets
            assert n_sets is not None
            self._wear_breakdown.demand_writes += 1
            if self._per_block_wear is not None:
                self._per_block_wear[request.block] += 1
            self._energy_breakdown.write_energy += self._write_energy[n_sets]
            if self._write_trace_sink is not None:
                self._write_trace_sink(request.finish_time_ns, request.block)
        elif rtype is _RRM_REFRESH:
            self.wear.record_rrm_refresh(request.block)
            self.energy.record_rrm_refresh(request.n_sets or 3)
        else:  # RRM slow refresh (demotion rewrite)
            self.wear.record_rrm_refresh(request.block)
            self.energy.record_rrm_refresh(request.n_sets or 7)

    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimResult:
        """Run the configured duration and return the metrics."""
        if self._ran:
            raise ConfigError("System.run() may only be called once")
        self._ran = True
        started = time.perf_counter()  # repro-lint: disable=RL001 -- host wall-clock bracketing of System.run() for the wall_time_s report field; measured outside the event loop and never fed into simulated state, so determinism is unaffected

        telemetry = self.telemetry
        if telemetry.enabled:
            for bank in range(self.device.n_banks):
                telemetry.tracer.set_thread_name(bank, f"bank{bank}")
        if telemetry.profiler is not None:
            telemetry.profiler.start()

        if self.rrm is not None:
            self.rrm.start()
        self.multicore.start()
        duration_ns = s_to_ns(self.config.duration_s)
        self.sim.run(until=duration_ns, max_events=max_events)

        if telemetry.enabled:
            telemetry.tracer.complete(
                "run",
                "engine",
                0.0,
                self.sim.now,
                args={
                    "workload": self.workload,
                    "scheme": self.scheme.value,
                    "events": self.sim.events_processed,
                },
            )
        return self._finalize(time.perf_counter() - started)  # repro-lint: disable=RL001 -- closing half of the wall_time_s measurement above; reporting-only, no simulated state depends on it

    # ------------------------------------------------------------------
    def _finalize(self, wall_time_s: float) -> SimResult:
        config = self.config
        duration_s = config.duration_s
        duration_ns = s_to_ns(duration_s)
        # Uniform harvest: every counter below reaches the result through
        # the registry's pull gauges, so the SimResult and any telemetry
        # consumer (profiler samples, `repro-rrm trace`) see one source of
        # truth. Gauges read the live stats objects, so values are
        # identical to direct attribute access.
        snap = self.telemetry.registry.snapshot()

        result = SimResult(
            scheme=self.scheme,
            workload=self.workload,
            duration_s=duration_s,
            drift_scale=config.drift_scale,
            n_blocks=config.memory.n_blocks,
        )
        result.wall_time_s = wall_time_s
        result.sim_events = self.sim.events_processed
        result.per_core_ipc = self.multicore.per_core_ipc(duration_ns)
        result.ipc = self.multicore.aggregate_ipc(duration_ns)
        result.instructions = snap["cpu.retired_instructions"]
        result.reads = snap["memctrl.reads_completed"]
        result.writes = snap["memctrl.writes_completed"]
        result.fast_writes = snap["memctrl.fast_writes"]
        result.slow_writes = snap["memctrl.slow_writes"]
        result.rrm_fast_refreshes = snap["memctrl.rrm_refreshes_completed"]
        result.rrm_slow_refreshes = snap["memctrl.rrm_slow_refreshes_completed"]
        result.retention_violations = snap["memctrl.retention_violations"]
        result.avg_read_latency_ns = snap["memctrl.avg_read_latency_ns"]
        result.avg_write_latency_ns = snap["memctrl.avg_write_latency_ns"]
        result.row_hit_rate = snap["memctrl.row_hit_rate"]
        result.stalls = {
            key: snap[f"cpu.{key}"]
            for key in (
                "blocking_stalls",
                "mlp_stalls",
                "write_queue_stalls",
                "read_queue_stalls",
            )
        }
        if self.rrm is not None:
            result.rrm_stats = asdict(self.rrm.stats)
        if self.attribution is not None:
            report = self.attribution_report()
            # The anatomy summary rides on its own field; as_dict() — the
            # bit-identity surface for attribution-on == attribution-off
            # comparisons — is deliberately untouched.
            result.attribution = {
                **report.summary_dict(),
                "ledger_metrics": report.ledger_metrics(),
            }

        if self.sim.cost_accounting is not None:
            # Same contract as attribution: the profile rides on its own
            # side-field and as_dict() stays the bit-identity surface.
            result.profile = self._build_profile()

        result.wear = self._wear_report(snap)
        result.energy = self._energy_report(snap, result.wear)
        result.compute_lifetime(self.endurance)
        return result

    # ------------------------------------------------------------------
    def _build_profile(self) -> dict:
        """The run's dispatch counts as a profile artifact
        (:mod:`repro.profiling`), with its ``prof_dispatch_*`` metrics."""
        import repro.profiling  # loaded with the accounting in __init__

        accounting = self.sim.cost_accounting
        assert accounting is not None
        prof = repro.profiling.Profile(
            meta={
                "workload": self.workload,
                "scheme": self.scheme.value,
                "duration_s": self.config.duration_s,
            },
            dispatch_counts=dict(accounting.counts),
        )
        return {**prof.to_json_dict(), "ledger_metrics": prof.ledger_metrics()}

    def _wear_report(self, snap) -> WearReport:
        """Wear rates on the paper's timescale (see metrics module docs)."""
        config = self.config
        duration_s = config.duration_s
        virtual_s = config.virtual_duration_s

        # Global refresh: every block, once per real (unscaled) interval of
        # the scheme's global-refresh mode.
        interval_real = self._real_modes.refresh_interval_s(
            self.scheme.global_refresh_n_sets
        )
        global_rate = config.memory.n_blocks / interval_real

        return WearReport(
            demand_rate=snap["pcm.wear.demand_writes"] / duration_s,
            rrm_fast_refresh_rate=snap["memctrl.rrm_refreshes_completed"] / virtual_s,
            rrm_slow_refresh_rate=(
                snap["memctrl.rrm_slow_refreshes_completed"] / virtual_s
            ),
            global_refresh_rate=global_rate,
        )

    def _energy_report(self, snap, wear: WearReport) -> EnergyReport:
        config = self.config
        duration_s = config.duration_s
        virtual_s = config.virtual_duration_s

        global_mode = self._real_modes.mode(self.scheme.global_refresh_n_sets)
        global_energy_rate = wear.global_refresh_rate * global_mode.normalized_energy

        return EnergyReport(
            write_rate=snap["pcm.energy.write_energy"] / duration_s,
            read_rate=snap["pcm.energy.read_energy"] / duration_s,
            rrm_refresh_rate=snap["pcm.energy.rrm_refresh_energy"] / virtual_s,
            global_refresh_rate=global_energy_rate,
        )
