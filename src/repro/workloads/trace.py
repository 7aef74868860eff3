"""Trace file I/O.

Generated workloads (or memory traffic observed during a run) can be
persisted as traces and replayed later, which makes experiments exactly
reproducible across machines and lets users bring their own traces.

Format: one record per line, whitespace-separated::

    <kind> <gap> <block> <dirty>

where ``kind`` is ``read`` / ``write`` / ``register``, ``gap`` is the
instruction gap, ``block`` the 64-byte block index and ``dirty`` 0/1.
Lines starting with ``#`` are comments. The format is deliberately plain
text: traces are small at simulator scale and diffable in review.

A line is one LLC write registration, while a registration event is a
run of them (:mod:`repro.workloads.events`). :class:`TraceWriter` writes
a run of ``count`` as ``count`` ``register`` lines, the first with the
run's gap and the rest with gap 0, so a trace's bytes do not depend on
the encoding. :class:`TraceReader` merges each ``register`` line with
the gap-0 ``register`` lines after it on the same block with the same
dirty flag back into one run.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.errors import TraceFormatError
from repro.workloads.events import (
    EV_READ,
    EV_REGISTER,
    EV_WRITE,
    WorkloadEvent,
    event_kind_name,
)

_KIND_BY_NAME = {"read": EV_READ, "write": EV_WRITE, "register": EV_REGISTER}

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace line."""

    kind: int
    gap: int
    block: int
    dirty: bool

    def as_event(self) -> WorkloadEvent:
        """The line as an event; a ``register`` line is a run of one."""
        if self.kind == EV_REGISTER:
            return (self.kind, self.gap, self.block, (self.dirty, 1))
        return (self.kind, self.gap, self.block, self.dirty)

    def format(self) -> str:
        return (
            f"{event_kind_name(self.kind)} {self.gap} {self.block} "
            f"{1 if self.dirty else 0}"
        )

    @classmethod
    def parse(cls, line: str, lineno: int = 0) -> "TraceRecord":
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(
                f"line {lineno}: expected 4 fields, got {len(parts)}: {line!r}"
            )
        kind_name, gap_s, block_s, dirty_s = parts
        try:
            kind = _KIND_BY_NAME[kind_name]
        except KeyError:
            raise TraceFormatError(
                f"line {lineno}: unknown kind {kind_name!r}"
            ) from None
        try:
            gap, block, dirty = int(gap_s), int(block_s), int(dirty_s)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad integer field") from exc
        if gap < 0 or block < 0 or dirty not in (0, 1):
            raise TraceFormatError(f"line {lineno}: field out of range")
        return cls(kind=kind, gap=gap, block=block, dirty=bool(dirty))


class TraceWriter:
    """Writes workload events to a trace file.

    Usable as a context manager::

        with TraceWriter("gems.trace") as w:
            for event in itertools.islice(generator, 10000):
                w.write_event(event)
    """

    def __init__(self, path: PathLike, header: str = "") -> None:
        self._path = Path(path)
        self._file: "io.TextIOBase | None" = None
        self._header = header
        self.records_written = 0

    def __enter__(self) -> "TraceWriter":
        self._file = self._path.open("w", encoding="utf-8")
        if self._header:
            for line in self._header.splitlines():
                self._file.write(f"# {line}\n")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write_event(self, event: WorkloadEvent) -> None:
        """Write *event*: one line, or one line per registration of a run."""
        kind, gap, block, payload = event
        if kind != EV_REGISTER:
            self.write(TraceRecord(kind=kind, gap=gap, block=block, dirty=payload))
            return
        dirty, count = payload
        for _ in range(count):
            self.write(TraceRecord(kind=kind, gap=gap, block=block, dirty=dirty))
            gap = 0

    def write(self, record: TraceRecord) -> None:
        if self._file is None:
            raise TraceFormatError("TraceWriter used outside its context")
        self._file.write(record.format() + "\n")
        self.records_written += 1


class TraceReader:
    """Reads a trace file back as workload events."""

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        if not self._path.exists():
            raise TraceFormatError(f"trace file not found: {self._path}")

    def records(self) -> Iterator[TraceRecord]:
        with self._path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                yield TraceRecord.parse(stripped, lineno)

    def events(self) -> Iterator[WorkloadEvent]:
        """The trace's events, with registration lines merged into runs."""
        # The first line of the registration run in hand, and its length.
        head: Optional[TraceRecord] = None
        count = 0
        for record in self.records():
            if head is not None:
                if (
                    record.kind == EV_REGISTER
                    and record.gap == 0
                    and record.block == head.block
                    and record.dirty == head.dirty
                ):
                    count += 1
                    continue
                yield (EV_REGISTER, head.gap, head.block, (head.dirty, count))
                head = None
            if record.kind == EV_REGISTER:
                head, count = record, 1
            else:
                yield record.as_event()
        if head is not None:
            yield (EV_REGISTER, head.gap, head.block, (head.dirty, count))

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return self.events()


def write_trace(path: PathLike, events: Iterable[WorkloadEvent], header: str = "") -> int:
    """Convenience: dump *events* to *path*; returns the record count."""
    with TraceWriter(path, header=header) as writer:
        for event in events:
            writer.write_event(event)
        return writer.records_written
