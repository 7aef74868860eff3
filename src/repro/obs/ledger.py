"""Append-only run ledger: the longitudinal record behind the dashboard.

One :class:`LedgerEntry` per finished run / sweep cell / benchmark, one
JSON line per entry, appended in completion order. Each entry carries a
flat numeric metric map (the :class:`~repro.sim.metrics.SimResult`
reporting view plus host timing) and an environment fingerprint — git
revision, seed, configuration hash, package version — so two entries
can always be judged comparable (or not) before their numbers are
compared.

Durability follows the checkpoint-journal convention
(:mod:`repro.resilience.journal`): each entry is one
:func:`~repro.utils.persist.append_jsonl` line, so concurrent appenders
never lose each other's entries, the loader drops a truncated *final*
line, and corruption anywhere earlier raises
:class:`~repro.errors.LedgerCorruptError`.
"""

from __future__ import annotations

import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import LedgerCorruptError
from repro.resilience.journal import config_sha256
from repro.utils.persist import append_jsonl, read_jsonl

LEDGER_SCHEMA = 1

#: Entry kinds the tooling understands (free-form strings are accepted;
#: these are the ones the CLI writes).
KIND_RUN = "run"
KIND_SWEEP = "sweep"
KIND_BENCH = "bench"


# ----------------------------------------------------------------------
# Environment fingerprinting
# ----------------------------------------------------------------------
def git_revision(cwd=None) -> str:
    """The current short git revision, or ``"unknown"`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def config_hash(config) -> str:
    """A short stable digest of a configuration object: the first 16
    hex characters of :func:`~repro.resilience.journal.config_sha256`.
    Two runs with equal hashes used the same configuration."""
    return config_sha256(config)[:16]


def environment_fingerprint(
    config=None, *, seed: Optional[int] = None
) -> Dict[str, object]:
    """The comparability stamp written into every ledger entry."""
    from repro import __version__

    fingerprint: Dict[str, object] = {
        "git_sha": git_revision(),
        "python": platform.python_version(),
        "repro_version": __version__,
    }
    if config is not None:
        fingerprint["config_hash"] = config_hash(config)
        seed = getattr(config, "seed", seed) if seed is None else seed
    if seed is not None:
        fingerprint["seed"] = seed
    return fingerprint


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
@dataclass
class LedgerEntry:
    """One recorded run: a named, fingerprinted bag of numeric metrics."""

    kind: str
    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    fingerprint: Dict[str, object] = field(default_factory=dict)
    recorded_unix_s: float = 0.0
    schema: int = LEDGER_SCHEMA

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "name": self.name,
            "metrics": dict(self.metrics),
            "fingerprint": dict(self.fingerprint),
            "recorded_unix_s": self.recorded_unix_s,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LedgerEntry":
        return cls(
            kind=d.get("kind", "run"),
            name=d.get("name", "?"),
            metrics={
                k: v
                for k, v in (d.get("metrics") or {}).items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            fingerprint=dict(d.get("fingerprint") or {}),
            recorded_unix_s=float(d.get("recorded_unix_s", 0.0)),
            schema=int(d.get("schema", LEDGER_SCHEMA)),
        )

    @classmethod
    def from_result(
        cls,
        result,
        config=None,
        *,
        kind: str = KIND_RUN,
        name: Optional[str] = None,
    ) -> "LedgerEntry":
        """Build an entry from a :class:`~repro.sim.metrics.SimResult`.

        Metrics are the numeric fields of ``result.as_dict()`` plus
        ``wall_time_s``, the deterministic engine event count
        (``sim_events``) and the host-dependent simulator throughput
        (``sim_events_per_sec``); runs with latency attribution enabled
        also contribute their flat ``attr_*`` metrics
        (refresh-interference share and friends), which the pinned suite
        records in ``BENCH_core.json`` like any other deterministic
        number; profiled runs contribute their ``prof_dispatch_*``
        counts the same way.
        """
        metrics: Dict[str, float] = {
            key: value
            for key, value in result.as_dict().items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        metrics["wall_time_s"] = result.wall_time_s
        sim_events = getattr(result, "sim_events", 0)
        if sim_events:
            metrics["sim_events"] = float(sim_events)
            if result.wall_time_s > 0:
                metrics["sim_events_per_sec"] = (
                    sim_events / result.wall_time_s
                )
        attribution = getattr(result, "attribution", None)
        if attribution:
            metrics.update(
                {
                    k: v
                    for k, v in (attribution.get("ledger_metrics") or {}).items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                }
            )
        # The profile's prof_dispatch_* counts ride the same way.
        profile = getattr(result, "profile", None)
        if profile:
            metrics.update(
                {
                    k: v
                    for k, v in (profile.get("ledger_metrics") or {}).items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                }
            )
        return cls(
            kind=kind,
            name=name or f"{result.workload}/{result.scheme.value}",
            metrics=metrics,
            fingerprint=environment_fingerprint(config),
        )


# ----------------------------------------------------------------------
# The ledger store
# ----------------------------------------------------------------------
class RunLedger:
    """The append-only JSONL store of :class:`LedgerEntry` records."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Durably append one entry (stamping its record time if unset)."""
        if not entry.recorded_unix_s:
            entry.recorded_unix_s = time.time()
        append_jsonl(self.path, entry.to_json_dict())
        return entry

    def read(self) -> List[LedgerEntry]:
        return self.load(self.path)

    @staticmethod
    def load(path) -> List[LedgerEntry]:
        """Every entry in *path*, oldest first.

        A truncated final line (torn write) is dropped; a bad line
        anywhere earlier raises :class:`LedgerCorruptError`. A missing
        file raises :class:`FileNotFoundError` like any reader would.
        """
        records, _ = read_jsonl(path, LedgerCorruptError)
        return [LedgerEntry.from_json_dict(record) for record in records]


# ----------------------------------------------------------------------
# Read-side helpers (the dashboard consumes these)
# ----------------------------------------------------------------------
def entries_by_name(
    entries: List[LedgerEntry],
) -> Dict[str, List[LedgerEntry]]:
    """Group entries by name, preserving append (chronological) order."""
    grouped: Dict[str, List[LedgerEntry]] = {}
    for entry in entries:
        grouped.setdefault(entry.name, []).append(entry)
    return grouped


def metric_series(
    entries: List[LedgerEntry], name: str, metric: str
) -> List[float]:
    """The chronological values of one metric for one entry name."""
    return [
        entry.metrics[metric]
        for entry in entries
        if entry.name == name and metric in entry.metrics
    ]
