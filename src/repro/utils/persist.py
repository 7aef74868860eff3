"""Atomic file persistence helpers.

Durable artifacts (ledgers, bench pins, journals' full rewrites) must
never be observable half-written: a worker killed mid-``write()``
would otherwise leave a torn JSON file that a resumed sweep either
crashes on or — worse — silently trusts. The sanctioned
pattern is write-to-temp-then-``os.replace``: the rename is atomic on
POSIX, so readers see the old complete file or the new complete file,
never a mixture. RL008 (atomic-persistence) lints the orchestration
packages for writes that bypass this module.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

__all__ = ["atomic_write_text", "save_json"]


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
