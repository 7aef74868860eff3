"""The sweep journal: an append-only JSONL log of settled jobs.

One line per record, starting with a metadata line, so an interrupted
sweep resumes from everything that settled. Only the sweep's coordinator
(:func:`~repro.resilience.supervisor.run_jobs`, through the runner's
callbacks) writes it, whatever the worker count, and nothing reads it
while the sweep runs.

Durability model (:mod:`repro.utils.persist`):

- every append is one :func:`~repro.utils.persist.append_jsonl` call: a
  single ``O_APPEND`` write of one line, after truncating any torn
  fragment a killed writer left at the end;
- the loader drops a truncated *final* line (that job simply re-runs on
  resume); an unreadable line anywhere *before* the end means real
  corruption and raises :class:`~repro.errors.CheckpointCorruptError`;
- :meth:`ResultJournal.start` and :meth:`ResultJournal.resume_from`
  rewrite the whole file atomically (tmp file + ``os.replace``).

Record shapes::

    {"type": "meta", "version": 1, "seed": ..., "workloads": [...], "schemes": [...]}
    {"type": "result", "workload": w, "scheme": s, "result": {...}, "attempts": n}
    {"type": "failure", "workload": w, "scheme": s, "failure": {...}}

Journals written by the earlier work-queue executor stamp results and
failures with ``"worker": id`` and interleave ``claim`` and ``release``
lease records; the loader accepts them and ignores the leases, and
:meth:`ResultJournal.resume_from` drops them.
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
from repro.utils.persist import append_jsonl, atomic_write_text, read_jsonl

Key = Tuple[str, str]  # (workload, scheme value)

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
    results: Dict[Key, dict] = field(default_factory=dict)
    #: Attempts each result took, for the results whose record says.
    attempts: Dict[Key, int] = field(default_factory=dict)
    failures: Dict[Key, dict] = field(default_factory=dict)
    #: True when a truncated final line was dropped.
    truncated: bool = False


class ResultJournal:
    """Append-only access to one sweep journal, for its one writer.

    When a *tracer* is supplied, every append emits a ``journal.append``
    instant event (category ``journal``) so sweep traces show exactly
    when each record became durable.
    """

    def __init__(self, path, tracer=NULL_TRACER) -> None:
        self.path = Path(path)
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any existing file)."""
        self._rewrite([_meta_record(meta)])

    def resume_from(self, contents: JournalContents, meta: dict) -> None:
        """Compact this journal to the surviving records of *contents*.

        Failure records are dropped (their jobs re-run and re-journal),
        as are the lease records of old work-queue journals (the loader
        never keeps them); result records are kept, and the file is
        rewritten atomically so the on-disk journal matches the resumed
        sweep.
        """
        self._rewrite(
            [_meta_record(meta)]
            + [
                _result_record(*key, result, contents.attempts.get(key))
                for key, result in contents.results.items()
            ]
        )

    def _rewrite(self, records: List[dict]) -> None:
        atomic_write_text(
            self.path, "".join(json.dumps(r) + "\n" for r in records)
        )

    def append_result(self, workload: str, scheme: str, result: dict, *,
                      attempts: Optional[int] = None) -> None:
        self.append(_result_record(workload, scheme, result, attempts))

    def append_failure(self, workload: str, scheme: str, failure: dict) -> None:
        self.append({"type": "failure", "workload": workload,
                     "scheme": scheme, "failure": failure})

    def append(self, record: dict) -> None:
        append_jsonl(self.path, record)
        if self.tracer.enabled:
            self.tracer.instant(
                "journal.append",
                "journal",
                args={
                    "type": record["type"],
                    "workload": record.get("workload"),
                    "scheme": record.get("scheme"),
                },
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> JournalContents:
        """Parse a journal, tolerating a truncated final line.

        Raises :class:`CheckpointCorruptError` for corruption anywhere
        else, and ``FileNotFoundError`` if the journal does not exist.
        """
        records, truncated = read_jsonl(path, CheckpointCorruptError)
        contents = JournalContents(truncated=truncated)
        for record in records:
            kind = record.get("type")
            if kind == "meta":
                contents.meta = record
            elif kind == "result":
                key = _key(record)
                contents.results[key] = record["result"]
                if "attempts" in record:
                    contents.attempts[key] = record["attempts"]
            elif kind == "failure":
                contents.failures[_key(record)] = record["failure"]
            elif kind not in _LEASE_TYPES:
                raise CheckpointCorruptError(
                    f"{path}: unknown journal record type {kind!r}"
                )
        return contents


#: Lease records of journals written by the earlier work-queue executor.
_LEASE_TYPES = frozenset({"claim", "release"})


def _key(record: dict) -> Key:
    return (record["workload"], record["scheme"])


def _result_record(workload: str, scheme: str, result: dict,
                   attempts: Optional[int]) -> dict:
    record = {"type": "result", "workload": workload, "scheme": scheme,
              "result": result}
    if attempts is not None:
        record["attempts"] = attempts
    return record


def _meta_record(meta: dict) -> dict:
    return {"type": "meta", "version": JOURNAL_VERSION, **meta}
