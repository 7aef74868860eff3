"""``repro-rrm serve``: a thin batch service over the sweep fabric.

The server accepts :class:`~repro.fabric.spec.SweepSpec` submissions
over a local socket, schedules them sequentially on the fabric (each
sweep itself fans out over ``spec.jobs`` worker processes), and streams
progress events, per-cell ledger entries and — when pinned against a
baseline — gate verdicts back to watching clients.

Design choices, all in the service of crash-composability:

- every sweep gets a predictably named journal
  (``<journal_dir>/sweep-001.jsonl``), so a sweep interrupted by
  killing the *server* resumes with the ordinary CLI:
  ``repro-rrm sweep --resume --journal <dir>/sweep-001.jsonl --jobs N``;
- sweeps run one at a time (the fabric already saturates the host;
  queueing at the server keeps worker counts predictable);
- every event is buffered per sweep, so a ``watch`` attached late
  replays the full history before going live — clients never have to
  race the scheduler.
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigError, ProtocolError, ReproError
from repro.fabric import protocol
from repro.fabric.spec import SweepSpec

#: How long a watch subscriber waits for the next event before checking
#: whether the server is shutting down.
_WATCH_POLL_S = 0.25


class _SweepState:
    """One submitted sweep: spec, lifecycle, and its event history."""

    def __init__(self, sweep_id: str, spec: SweepSpec, journal_path: Path,
                 ledger_path: Path) -> None:
        self.sweep_id = sweep_id
        self.spec = spec
        self.journal_path = journal_path
        self.ledger_path = ledger_path
        self.state = "queued"  # queued | running | finished | failed
        self.completed = 0
        self.failed = 0
        self.error: Optional[str] = None
        #: The live ExperimentRunner while (and after) the sweep runs;
        #: the server's metrics/fleet requests read through it.
        self.runner = None
        self.lock = threading.Lock()
        self.events: List[dict] = []
        self.subscribers: List[queue_module.Queue] = []

    # ------------------------------------------------------------------
    def publish(self, event: dict) -> None:
        """Record one event and fan it out to live subscribers."""
        with self.lock:
            self.events.append(event)
            subscribers = list(self.subscribers)
        for subscriber in subscribers:
            subscriber.put(event)

    def subscribe(self) -> queue_module.Queue:
        """History-then-live event queue for one watcher."""
        subscriber: queue_module.Queue = queue_module.Queue()
        with self.lock:
            for event in self.events:
                subscriber.put(event)
            self.subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: queue_module.Queue) -> None:
        with self.lock:
            if subscriber in self.subscribers:
                self.subscribers.remove(subscriber)

    def summary(self) -> dict:
        rate = 0.0
        runner = self.runner
        if runner is not None and getattr(runner, "fleet", None) is not None:
            rate = runner.fleet.totals().get("sim_events_per_sec", 0.0)
        with self.lock:
            return {
                "sweep": self.sweep_id,
                "state": self.state,
                "jobs": len(self.spec.keys()),
                "completed": self.completed,
                "failed": self.failed,
                "workers": self.spec.jobs,
                "sim_events_per_sec": rate,
                "journal": str(self.journal_path),
                "ledger": str(self.ledger_path),
                **({"error": self.error} if self.error else {}),
            }


class FabricServer:
    """The batch service; one instance per ``repro-rrm serve`` process."""

    def __init__(
        self,
        address,
        journal_dir,
        *,
        baseline_path=None,
        on_log=None,
        logger=None,
        http_address=None,
    ) -> None:
        self.address = address
        self.journal_dir = Path(journal_dir)
        self.baseline_path = baseline_path
        self.on_log = on_log
        #: Optional :class:`~repro.obs.live.slog.StructuredLogger`;
        #: preferred over the legacy plain-line ``on_log`` hook.
        self.logger = logger
        #: Optional ``HOST:PORT`` for a plain-HTTP ``/metrics`` endpoint.
        self.http_address = http_address
        self._http = None
        self._sweeps: Dict[str, _SweepState] = {}
        self._order: List[str] = []
        self._queue: "queue_module.Queue[Optional[str]]" = queue_module.Queue()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener = None
        self._threads: List[threading.Thread] = []
        #: Sweeps the scheduler settled as failed; exposed via ping so a
        #: swallowed scheduler exception is visible from any client.
        self.sweeps_failed = 0

    def _log(self, event: str, **fields) -> None:
        """One structured log record (or a legacy plain line)."""
        if self.logger is not None:
            self.logger.event(event, **fields)
        elif self.on_log is not None:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            self.on_log(f"{event} {detail}".strip())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FabricServer":
        """Bind the socket and start the accept + scheduler threads."""
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self._listener = protocol.listen(self.address)
        self._listener.settimeout(_WATCH_POLL_S)
        for name, target in (
            ("fabric-accept", self._accept_loop),
            ("fabric-scheduler", self._scheduler_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.http_address is not None:
            from repro.obs.live.httpmetrics import MetricsHTTPServer

            self._http = MetricsHTTPServer(
                self.http_address, self.render_metrics
            ).start()
            self._log("serve.http_metrics", port=self._http.port)
        self._log(
            "serve.listening",
            address=str(self.address),
            journal_dir=str(self.journal_dir),
        )
        return self

    def stop(self) -> None:
        """Stop accepting, finish nothing: in-flight sweeps are abandoned
        to their journals (that is the crash-recovery story, not a bug)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._queue.put(None)
        if self._http is not None:
            self._http.stop()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        family, target = protocol.parse_address(self.address)
        if family == "unix":
            Path(str(target)).unlink(missing_ok=True)

    def wait(self, timeout_s: Optional[float] = None) -> None:
        """Block until the server stops (the CLI's foreground mode)."""
        self._stopping.wait(timeout_s)
        for thread in self._threads:
            thread.join(timeout=_WATCH_POLL_S * 4)

    # ------------------------------------------------------------------
    # Submission / inspection (also usable in-process, without a socket)
    # ------------------------------------------------------------------
    def submit(self, spec: SweepSpec) -> str:
        with self._lock:
            sweep_id = f"sweep-{len(self._order) + 1:03d}"
            state = _SweepState(
                sweep_id,
                spec,
                journal_path=self.journal_dir / f"{sweep_id}.jsonl",
                ledger_path=self.journal_dir / f"{sweep_id}.ledger.jsonl",
            )
            self._sweeps[sweep_id] = state
            self._order.append(sweep_id)
        state.publish(
            {"event": protocol.EVENT_SWEEP_QUEUED, "sweep": sweep_id,
             "spec": spec.to_json_dict()}
        )
        self._queue.put(sweep_id)
        self._log("sweep.queued", sweep=sweep_id, jobs=len(spec.keys()))
        return sweep_id

    def status(self) -> List[dict]:
        with self._lock:
            return [self._sweeps[sid].summary() for sid in self._order]

    def sweep(self, sweep_id: str) -> _SweepState:
        with self._lock:
            try:
                return self._sweeps[sweep_id]
            except KeyError:
                raise ProtocolError(f"unknown sweep {sweep_id!r}") from None

    def _live_runner(self):
        """The most recent sweep's runner (running or finished), if any."""
        with self._lock:
            for sweep_id in reversed(self._order):
                runner = self._sweeps[sweep_id].runner
                if runner is not None:
                    return runner
        return None

    # ------------------------------------------------------------------
    # Live observability (the `metrics` / `fleet` ops and /metrics HTTP)
    # ------------------------------------------------------------------
    def build_registry(self):
        """A fresh registry over the server's live state.

        Rebuilt per scrape: registration is one-time wiring per
        registry, and snapshots are pure reads, so a throwaway registry
        is the clean way to expose objects whose lifetime (one sweep)
        is shorter than the server's.
        """
        from repro.telemetry.registry import MetricRegistry

        registry = MetricRegistry()
        registry.gauge("serve.sweeps_submitted", lambda: len(self._order))
        registry.gauge("serve.sweeps_failed", lambda: self.sweeps_failed)
        runner = self._live_runner()
        if runner is not None and runner.fabric_stats is not None:
            runner.fabric_stats.register_metrics(registry)
        if runner is not None and runner.fleet is not None:
            runner.fleet.register_metrics(registry)
        if self.logger is not None:
            self.logger.register_metrics(registry)
        if self._http is not None:
            self._http.register_metrics(registry)
        return registry

    def render_metrics(self) -> str:
        """Prometheus exposition text for the current server state."""
        from repro.obs.live.exposition import render_exposition

        return render_exposition(self.build_registry())

    def fleet_snapshot(self) -> dict:
        """The aggregated worker-heartbeat view (empty before any sweep)."""
        runner = self._live_runner()
        if runner is not None and runner.fleet is not None:
            return runner.fleet.as_dict()
        from repro.obs.live.heartbeat import FleetStatus

        return FleetStatus().as_dict()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while not self._stopping.is_set():
            sweep_id = self._queue.get()
            if sweep_id is None:
                break
            state = self.sweep(sweep_id)
            try:
                self._run_sweep(state)
            except Exception as exc:  # noqa: BLE001 - keep serving
                with state.lock:
                    state.state = "failed"
                    state.error = f"{type(exc).__name__}: {exc}"
                self.sweeps_failed += 1
                self._log(
                    "sweep.failed",
                    level="error",
                    sweep=sweep_id,
                    error=state.error,
                    traceback=traceback.format_exc(),
                )
            state.publish(
                {"event": protocol.EVENT_SWEEP_FINISHED, **state.summary()}
            )

    def _run_sweep(self, state: _SweepState) -> None:
        from repro.obs.ledger import KIND_SWEEP, LedgerEntry, RunLedger
        from repro.obs.live.heartbeat import HEARTBEAT_EVENT
        from repro.sim.runner import ExperimentRunner

        spec = state.spec
        with state.lock:
            state.state = "running"
        state.publish(
            {"event": protocol.EVENT_SWEEP_STARTED, "sweep": state.sweep_id,
             "jobs": len(spec.keys()), "workers": spec.jobs}
        )
        self._log("sweep.started", sweep=state.sweep_id, workers=spec.jobs)
        config = spec.build_config()

        def on_event(name: str, args: dict) -> None:
            if name == HEARTBEAT_EVENT:
                # Heartbeats are aggregated in the runner's FleetStatus
                # (served via the `fleet` op); buffering every beat in
                # the watch history would grow it without bound.
                return
            state.publish({"event": name, "sweep": state.sweep_id, **args})

        entries = []

        def on_cell(workload, scheme, result) -> None:
            entry = LedgerEntry.from_result(result, config, kind=KIND_SWEEP)
            entries.append(entry)
            with state.lock:
                state.completed += 1
            state.publish(
                {"event": protocol.EVENT_LEDGER_ENTRY,
                 "sweep": state.sweep_id, "entry": entry.to_json_dict()}
            )

        runner = ExperimentRunner(
            config,
            workloads=spec.workloads,
            schemes=spec.build_schemes(),
            max_events=spec.max_events,
            n_jobs=spec.jobs,
            journal_path=state.journal_path,
            fault_plan=spec.build_fault_plan(),
            recorder_dir=self.journal_dir / f"{state.sweep_id}.flight",
            on_event=on_event,
        )
        state.runner = runner
        runner.run_all(progress=on_cell)
        with state.lock:
            state.failed = len(runner.failures)
            state.state = "finished"
        # The runner is given no ledger path: the server owns the ledger
        # and appends the entries it streamed, in sweep order.
        ledger = RunLedger(state.ledger_path)
        for entry in sorted(entries, key=lambda e: e.name):
            ledger.append(entry)
        self._gate(state, entries)
        self._log(
            "sweep.finished",
            sweep=state.sweep_id,
            completed=state.completed,
            failed=state.failed,
        )

    def _gate(self, state: _SweepState, entries) -> None:
        """Judge the sweep against the pinned baseline, if one is set."""
        if self.baseline_path is None or not entries:
            return
        from repro.obs.gate import (
            compare_samples,
            load_baseline,
            samples_from_entries,
        )

        try:
            report = compare_samples(
                load_baseline(self.baseline_path),
                samples_from_entries(entries),
            )
        except ReproError as exc:
            state.publish(
                {"event": protocol.EVENT_GATE_VERDICT,
                 "sweep": state.sweep_id, "error": str(exc)}
            )
            return
        state.publish(
            {"event": protocol.EVENT_GATE_VERDICT, "sweep": state.sweep_id,
             "counts": report.counts, "exit_code": report.exit_code(),
             "report": report.to_json_dict()}
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(protocol.LineChannel(conn),),
                name="fabric-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, channel: protocol.LineChannel) -> None:
        with channel:
            try:
                while not self._stopping.is_set():
                    request = channel.recv()
                    if request is None:
                        return
                    try:
                        if self._handle(channel, request):
                            return
                    except (ProtocolError, ConfigError) as exc:
                        channel.send({"ok": False, "error": str(exc)})
            except ProtocolError:
                return  # client went away or spoke garbage; drop it

    def _handle(self, channel: protocol.LineChannel, request: dict) -> bool:
        """Serve one request; True means the connection is finished."""
        op = request.get("op")
        if op == protocol.OP_PING:
            channel.send(
                {"ok": True, "version": protocol.PROTOCOL_VERSION,
                 "sweeps": len(self._order),
                 "sweeps_failed": self.sweeps_failed}
            )
        elif op == protocol.OP_SUBMIT:
            spec = SweepSpec.from_json_dict(request.get("spec") or {})
            sweep_id = self.submit(spec)
            channel.send({"ok": True, "sweep": sweep_id})
            if request.get("watch"):
                self._stream(channel, sweep_id)
                return True
        elif op == protocol.OP_STATUS:
            channel.send({"ok": True, "sweeps": self.status()})
        elif op == protocol.OP_METRICS:
            channel.send({"ok": True, "text": self.render_metrics()})
        elif op == protocol.OP_FLEET:
            channel.send({"ok": True, "fleet": self.fleet_snapshot()})
        elif op == protocol.OP_PROFILE:
            # Sample this very process (accept/scheduler threads plus
            # whatever the fabric coordinator is doing). profile_self
            # owns the sampler thread — this module only forks workers.
            from repro.profiling import profile_self

            duration = request.get("duration_s", 2.0)
            if not isinstance(duration, (int, float)) or duration != duration:
                raise ProtocolError("profile duration_s must be a number")
            prof = profile_self(float(duration))
            prof.meta["source"] = "serve"
            channel.send({"ok": True, "profile": prof.to_json_dict()})
        elif op == protocol.OP_WATCH:
            sweep_id = request.get("sweep")
            if not sweep_id:
                raise ProtocolError("watch needs a 'sweep' id")
            self.sweep(sweep_id)  # validate before acking
            channel.send({"ok": True, "sweep": sweep_id})
            self._stream(channel, sweep_id)
            return True
        elif op == protocol.OP_SHUTDOWN:
            channel.send({"ok": True})
            self._log("serve.shutdown_requested")
            self.stop()
            return True
        else:
            raise ProtocolError(f"unknown op {op!r}")
        return False

    def _stream(self, channel: protocol.LineChannel, sweep_id: str) -> None:
        """Replay + follow one sweep's events until it finishes."""
        state = self.sweep(sweep_id)
        subscriber = state.subscribe()
        try:
            while not self._stopping.is_set():
                try:
                    event = subscriber.get(timeout=_WATCH_POLL_S)
                except queue_module.Empty:
                    continue
                channel.send(event)
                if event.get("event") in protocol.TERMINAL_EVENTS:
                    return
        finally:
            state.unsubscribe(subscriber)
