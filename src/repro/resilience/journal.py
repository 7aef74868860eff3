"""Crash-safe result journaling: append-only JSONL with atomic writes.

One line per settled job (result or failure), preceded by a metadata
line, so an interrupted sweep can resume from everything that completed.
Durability model:

- every append rewrites the journal to ``<path>.tmp`` and ``os.replace``s
  it over the real file, so readers never observe a half-written journal
  and a crash mid-append leaves the previous complete journal intact;
- the loader still tolerates a truncated *final* line (e.g. a journal
  written by a plain appender, or a torn filesystem) by dropping it,
  because that line's job simply re-runs on resume;
- an unreadable line anywhere *before* the end means real corruption and
  raises :class:`~repro.errors.CheckpointCorruptError`.

Record shapes::

    {"type": "meta", "version": 1, "seed": ..., "workloads": [...], "schemes": [...]}
    {"type": "result", "workload": w, "scheme": s, "result": {...}}
    {"type": "failure", "workload": w, "scheme": s, "failure": {...}}

The sharded sweep fabric (:mod:`repro.fabric`) additionally uses the
journal as a shared work queue, interleaving lease records between the
settled ones::

    {"type": "claim", "workload": w, "scheme": s, "worker": id,
     "attempt": n, "expires_unix_s": t}
    {"type": "release", "workload": w, "scheme": s, "worker": id,
     "reason": "retry:<ErrorType>" | "crash" | "timeout"}

``reason`` is free-form evidence for post-mortems (retry releases carry
the exception type that caused them); nothing dispatches on it.

Claims and releases are advisory scheduling state, not results: the
loader collects them (so the fabric can reconstruct the queue) and
:meth:`ResultJournal.resume_from` drops them along with failures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckpointCorruptError
from repro.telemetry.trace import NULL_TRACER
from repro.utils.persist import atomic_write_text

JOURNAL_VERSION = 1


def config_sha256(config) -> str:
    """The sha256 hex digest of a configuration object.

    Dataclasses hash their field tree as sorted-key JSON (values JSON
    cannot hold hash their ``repr``); anything else hashes its ``repr``.
    Journal stamps (:func:`sweep_fingerprint`) carry it whole, ledger
    fingerprints (:func:`repro.obs.ledger.config_hash`) its first 16
    characters.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = json.dumps(
            dataclasses.asdict(config), sort_keys=True, default=repr
        )
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sweep_fingerprint(
    config,
    workloads: Iterable[str],
    schemes: Iterable[str],
    max_events: Optional[int] = None,
) -> Dict[str, str]:
    """The identity stamp a journal carries so ``--resume`` can refuse a
    mismatched sweep instead of silently mixing results.

    Two sha256 digests: ``config_sha256`` over the configuration's full
    field tree (:func:`config_sha256`) and ``spec_sha256`` over the
    sweep definition (workloads, schemes, max_events). Equal stamps mean
    the journal's results are drop-in valid for the resuming sweep.
    """
    spec_payload = json.dumps(
        {
            "workloads": list(workloads),
            "schemes": list(schemes),
            "max_events": max_events,
        },
        sort_keys=True,
    )
    return {
        "config_sha256": config_sha256(config),
        "spec_sha256": hashlib.sha256(
            spec_payload.encode("utf-8")
        ).hexdigest(),
    }


@dataclass
class JournalContents:
    """Everything a journal load yields."""

    meta: Optional[dict] = None
    results: Dict[Tuple[str, str], dict] = field(default_factory=dict)
    failures: Dict[Tuple[str, str], dict] = field(default_factory=dict)
    #: Fabric lease records, in append order, keyed like results.
    claims: Dict[Tuple[str, str], List[dict]] = field(default_factory=dict)
    releases: Dict[Tuple[str, str], List[dict]] = field(default_factory=dict)
    #: True when a truncated final line was dropped.
    truncated: bool = False

    def settled(self) -> set:
        """Keys with a durable outcome (result or failure)."""
        return set(self.results) | set(self.failures)


class ResultJournal:
    """An append-only JSONL journal of settled sweep jobs.

    When a *tracer* is supplied, every append emits a ``journal.append``
    instant event (category ``journal``) so sweep traces show exactly
    when each record became durable.
    """

    def __init__(self, path, tracer=NULL_TRACER) -> None:
        self.path = Path(path)
        self.tracer = tracer
        self._lines: List[str] = []

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any existing file)."""
        self._lines = [
            json.dumps({"type": "meta", "version": JOURNAL_VERSION, **meta})
        ]
        self._flush()

    def append_result(self, workload: str, scheme: str, result: dict) -> None:
        self._append(
            {"type": "result", "workload": workload, "scheme": scheme,
             "result": result}
        )

    def append_failure(self, workload: str, scheme: str, failure: dict) -> None:
        self._append(
            {"type": "failure", "workload": workload, "scheme": scheme,
             "failure": failure}
        )

    def _append(self, record: dict) -> None:
        self._lines.append(json.dumps(record))
        self._flush()
        if self.tracer.enabled:
            self.tracer.instant(
                "journal.append",
                "journal",
                args={
                    "type": record["type"],
                    "workload": record.get("workload"),
                    "scheme": record.get("scheme"),
                    "records": len(self._lines),
                },
            )

    def _flush(self) -> None:
        """Atomically persist the whole journal (tmp file + ``os.replace``)."""
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> JournalContents:
        """Parse a journal, tolerating a truncated final line.

        Raises :class:`CheckpointCorruptError` for corruption anywhere
        else, and ``FileNotFoundError`` if the journal does not exist.
        """
        text = Path(path).read_text(encoding="utf-8")
        contents = JournalContents()
        raw_lines = text.split("\n")
        # A well-formed journal ends with a newline, so the final split
        # element is empty; anything else is a torn trailing write.
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        for lineno, line in enumerate(raw_lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "type" not in record:
                    raise ValueError("not a journal record")
            except ValueError as exc:
                if lineno == len(raw_lines) - 1:
                    contents.truncated = True
                    continue
                raise CheckpointCorruptError(
                    f"{path}: unreadable journal line {lineno + 1}: {exc}"
                ) from None
            kind = record["type"]
            if kind == "meta":
                contents.meta = record
            elif kind == "result":
                contents.results[(record["workload"], record["scheme"])] = (
                    record["result"]
                )
            elif kind == "failure":
                contents.failures[(record["workload"], record["scheme"])] = (
                    record["failure"]
                )
            elif kind == "claim":
                contents.claims.setdefault(
                    (record["workload"], record["scheme"]), []
                ).append(record)
            elif kind == "release":
                contents.releases.setdefault(
                    (record["workload"], record["scheme"]), []
                ).append(record)
            else:
                raise CheckpointCorruptError(
                    f"{path}: unknown journal record type {kind!r} "
                    f"on line {lineno + 1}"
                )
        return contents

    # ------------------------------------------------------------------
    def resume_from(self, contents: JournalContents, meta: dict) -> None:
        """Seed this journal with the surviving records of *contents*.

        Failure records are dropped (their jobs re-run and re-journal),
        as are fabric claim/release leases (scheduling state from a dead
        fleet); result records are kept verbatim, and the file is
        rewritten atomically so the on-disk journal matches the resumed
        sweep.
        """
        self._lines = [
            json.dumps({"type": "meta", "version": JOURNAL_VERSION, **meta})
        ]
        for (workload, scheme), result in contents.results.items():
            self._lines.append(
                json.dumps(
                    {"type": "result", "workload": workload, "scheme": scheme,
                     "result": result}
                )
            )
        self._flush()
