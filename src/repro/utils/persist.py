"""Durable file persistence: atomic rewrites and append-only JSONL.

Durable artifacts must never be observable half-written: a worker
killed mid-``write()`` would otherwise leave a torn file that a resumed
sweep either crashes on or — worse — silently trusts. Two shapes cover
every artifact on the orchestration path:

- a whole file (bench pins, sweep outputs, a journal's compaction) is
  written to a temp file and ``os.replace``d over the target, so readers
  see the old complete file or the new complete file, never a mixture;
- a record log (the sweep journal, the run ledger) is append-only JSONL:
  :func:`append_jsonl` adds one line with a single ``O_APPEND`` write
  and :func:`read_jsonl` reads it back, tolerating the one torn line a
  crash can leave at the end.

RL008 (atomic-persistence) lints the orchestration packages for writes
that bypass this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, List, Tuple, Type, Union

try:  # pragma: no cover - import probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None

__all__ = ["append_jsonl", "atomic_write_text", "read_jsonl", "save_json"]

#: Bytes read per step when scanning back over a torn tail.
_TAIL_CHUNK = 4096


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write *text* to *path* atomically (tmp file + ``os.replace``).

    The temp file lives next to the target (same filesystem, so the
    rename cannot degrade to a copy) and is removed on failure.
    """
    target = Path(path)
    tmp = target.with_suffix(target.suffix + f".tmp.{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def save_json(path: Union[str, Path], payload: Any, *, indent: int = 2) -> None:
    """Serialize *payload* as JSON and write it atomically.

    The trailing newline keeps the artifacts diff- and ``cat``-friendly.
    """
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def append_jsonl(path: Union[str, Path], record: dict) -> None:
    """Append *record* to *path* as one JSON line.

    The line goes out in a single ``O_APPEND`` write, so appends from
    several processes never interleave. A file that does not end in a
    newline holds the fragment of a writer that died mid-line; the
    fragment is truncated away first (found by seeking back from the
    end, never by reading the whole file), because it is an incomplete
    record and dropping it loses nothing. The check, the repair and the
    write run under an ``flock`` on the file itself, so a concurrent
    appender's half-finished write is never mistaken for a torn tail.
    """
    line = (json.dumps(record) + "\n").encode("utf-8")
    fd = os.open(path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            keep, newline = end, -1  # scan back a chunk at a time
            while keep and newline < 0:
                start = max(keep - _TAIL_CHUNK, 0)
                newline = os.pread(fd, keep - start, start).rfind(b"\n")
                keep = start + newline + 1
            os.ftruncate(fd, keep)
        os.write(fd, line)
    finally:
        os.close(fd)  # closing the descriptor drops the flock


def read_jsonl(
    path: Union[str, Path], error_type: Type[Exception]
) -> Tuple[List[dict], bool]:
    """Every JSON-object line of *path*, and whether a torn one was dropped.

    A well-formed file ends with a newline. A final line that does not
    parse as a JSON object is the torn tail of a crashed append: it is
    dropped and the second return value is ``True`` (its record simply
    re-records). A bad line anywhere earlier is real corruption and
    raises *error_type*. Blank lines are skipped. A missing file raises
    ``FileNotFoundError`` like any reader would.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            if lineno == len(lines):
                return records, True
            raise error_type(
                f"{path}: unreadable line {lineno}: {exc}"
            ) from None
        records.append(record)
    return records, False
