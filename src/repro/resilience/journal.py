"""The sweep journal: an append-only JSONL log of settled jobs, shared
by every process of a sweep.

One line per record, starting with a metadata line, so an interrupted
sweep resumes from everything that settled. Serial sweeps append to it
from one process; the sharded fabric (:mod:`repro.fabric`) runs N
worker processes over the same file, which doubles as their work queue.

Durability model (:mod:`repro.utils.persist`):

- every append is one :func:`~repro.utils.persist.append_jsonl` call
  under an exclusive :class:`~repro.resilience.locking.FileLock` on
  ``<journal>.lock``: a single ``O_APPEND`` write of one line, after
  truncating any torn fragment a dead writer left at the end;
- the loader drops a truncated *final* line (that job simply re-runs on
  resume); an unreadable line anywhere *before* the end means real
  corruption and raises :class:`~repro.errors.CheckpointCorruptError`;
- :meth:`ResultJournal.start` and :meth:`ResultJournal.resume_from`
  rewrite the whole file atomically (tmp file + ``os.replace``).

Record shapes::

    {"type": "meta", "version": 1, "seed": ..., "workloads": [...], "schemes": [...]}
    {"type": "result", "workload": w, "scheme": s, "result": {...}}
    {"type": "failure", "workload": w, "scheme": s, "failure": {...}}

Fabric workers add ``"worker": id`` to the results and failures they
settle, and interleave lease records between them::

    {"type": "claim", "workload": w, "scheme": s, "worker": id,
     "attempt": n, "expires_unix_s": t}
    {"type": "release", "workload": w, "scheme": s, "worker": id,
     "reason": "retry:<ErrorType>" | "crash" | "timeout"}

``reason`` is free-form evidence for post-mortems (retry releases carry
the exception type that caused them); nothing dispatches on it.

The queue protocol (:meth:`ResultJournal.claim_next`): a claim carries
a wall-clock lease deadline. A claim whose lease expired, or that was
released (worker death, retry, timeout), makes the job claimable again
with the next attempt number — attempt counts are derived from the
journal, so deterministic fault plans (``crash:0:1``) fire identically
under any worker count. A job is *done* when a result or failure record
exists; claims are advisory. In the worst race (a lease expires while
its worker is still running) two workers may run the same job, but the
simulation is deterministic per seed, so both append byte-identical
result records and the merge keyed by (workload, scheme) is unaffected.
Claims and releases are scheduling state, not results:
:meth:`ResultJournal.resume_from` drops them along with failures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import CheckpointCorruptError
from repro.resilience.locking import FileLock
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


class Claim(NamedTuple):
    """One granted lease: which job, which try, and whether it was stolen."""

    key: Key
    attempt: int  # 1-based, derived from prior claim count
    stolen: bool  # claimed from outside the worker's own shard
    expires_unix_s: float


class ResultJournal:
    """Locked, append-only access to one sweep journal.

    When a *tracer* is supplied, every append emits a ``journal.append``
    instant event (category ``journal``) so sweep traces show exactly
    when each record became durable.
    """

    def __init__(self, path, tracer=NULL_TRACER) -> None:
        self.path = Path(path)
        self.tracer = tracer
        self.lock = FileLock(self.path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any existing file)."""
        self._rewrite([_meta_record(meta)])

    def resume_from(self, contents: JournalContents, meta: dict) -> None:
        """Compact this journal to the surviving records of *contents*.

        Failure records are dropped (their jobs re-run and re-journal),
        as are claim/release leases (scheduling state from a dead
        fleet); result records are kept verbatim, and the file is
        rewritten atomically so the on-disk journal matches the resumed
        sweep.
        """
        self._rewrite(
            [_meta_record(meta)]
            + [
                {"type": "result", "workload": workload, "scheme": scheme,
                 "result": result}
                for (workload, scheme), result in contents.results.items()
            ]
        )

    def _rewrite(self, records: List[dict]) -> None:
        with self.lock:
            atomic_write_text(
                self.path, "".join(json.dumps(r) + "\n" for r in records)
            )

    def append_result(self, workload: str, scheme: str, result: dict,
                      *, worker: Optional[int] = None) -> None:
        self._append_settled("result", workload, scheme, result, worker)

    def append_failure(self, workload: str, scheme: str, failure: dict,
                       *, worker: Optional[int] = None) -> None:
        self._append_settled("failure", workload, scheme, failure, worker)

    def _append_settled(self, kind, workload, scheme, payload, worker) -> None:
        record = {"type": kind, "workload": workload, "scheme": scheme,
                  kind: payload}
        if worker is not None:
            record["worker"] = worker
        self.append(record)

    def release(self, key: Key, worker: int, reason: str) -> None:
        """Return *key* to the queue (lease abandoned before settling)."""
        self.append(
            {"type": "release", "workload": key[0], "scheme": key[1],
             "worker": worker, "reason": reason}
        )

    def append(self, record: dict) -> None:
        with self.lock:
            self._append_locked(record)

    def _append_locked(self, record: dict) -> None:
        """Append one record; the caller holds the lock."""
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
                continue
            if kind not in _KEYED_TYPES:
                raise CheckpointCorruptError(
                    f"{path}: unknown journal record type {kind!r}"
                )
            key = (record["workload"], record["scheme"])
            if kind == "result":
                contents.results[key] = record["result"]
            elif kind == "failure":
                contents.failures[key] = record["failure"]
            elif kind == "claim":
                contents.claims.setdefault(key, []).append(record)
            else:
                contents.releases.setdefault(key, []).append(record)
        return contents

    def read(self) -> JournalContents:
        """This journal's contents, read under its lock."""
        with self.lock:
            return self.load(self.path)

    def unsettled(self, all_keys: Iterable[Key]) -> List[Key]:
        """Keys still lacking a result/failure record, in sweep order."""
        done = self.read().settled()
        return [key for key in all_keys if key not in done]

    # ------------------------------------------------------------------
    # The queue operation
    # ------------------------------------------------------------------
    @staticmethod
    def _claimable(contents: JournalContents, key: Key, now: float) -> bool:
        if key in contents.results or key in contents.failures:
            return False
        claims = contents.claims.get(key, ())
        releases = contents.releases.get(key, ())
        if len(claims) > len(releases):
            # Outstanding lease; claimable only once it has expired.
            return claims[-1].get("expires_unix_s", float("inf")) <= now
        return True

    def claim_next(
        self,
        worker: int,
        shard: Sequence[Key],
        all_keys: Sequence[Key],
        *,
        lease_s: float,
        clock: Callable[[], float] = time.time,
    ) -> Optional[Claim]:
        """Atomically lease the next runnable job, or ``None``.

        Own-shard jobs are preferred (cache-friendly, steal-free steady
        state); once the shard drains, unclaimed work is stolen from the
        rest of the sweep in sweep order. Returns ``None`` when nothing
        is currently claimable — which means either the sweep is done or
        every remaining job is leased to another live worker.
        """
        with self.lock:
            contents = self.load(self.path)
            now = clock()
            chosen: Optional[Key] = None
            stolen = False
            for key in shard:
                if self._claimable(contents, key, now):
                    chosen = key
                    break
            if chosen is None:
                own = set(shard)
                for key in all_keys:
                    if key not in own and self._claimable(contents, key, now):
                        chosen, stolen = key, True
                        break
            if chosen is None:
                return None
            attempt = len(contents.claims.get(chosen, ())) + 1
            expires = now + lease_s
            self._append_locked(
                {"type": "claim", "workload": chosen[0], "scheme": chosen[1],
                 "worker": worker, "attempt": attempt,
                 "expires_unix_s": expires}
            )
            return Claim(
                key=chosen, attempt=attempt, stolen=stolen,
                expires_unix_s=expires,
            )


_KEYED_TYPES = frozenset({"result", "failure", "claim", "release"})


def _meta_record(meta: dict) -> dict:
    return {"type": "meta", "version": JOURNAL_VERSION, **meta}
