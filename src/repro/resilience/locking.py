"""Inter-process file locking for the sweep journal.

One advisory exclusive lock per journal, held only for the few
milliseconds a claim/append critical section needs
(:class:`~repro.resilience.journal.ResultJournal`). POSIX hosts get
``fcntl.flock`` on a sidecar ``<journal>.lock`` file — the kernel
releases it automatically when the holder dies, so a SIGKILL'd worker
can never wedge the fleet. Hosts without ``fcntl`` (or filesystems that
refuse ``flock``) fall back to ``O_CREAT | O_EXCL`` spin-locking with a
staleness bound, which is weaker but portable.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable

from repro.errors import LockTimeoutError

try:  # pragma: no cover - import probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None

#: Seconds between acquisition attempts while the lock is contended.
_POLL_S = 0.003

#: An O_EXCL lockfile older than this is presumed orphaned (its creator
#: died without fcntl cleanup) and is broken. flock never needs this.
_STALE_LOCKFILE_S = 60.0


class FileLock:
    """Advisory exclusive lock on ``<path>.lock``; use as a context manager.

    Re-entrant within a process is *not* supported — the journal's
    critical sections never nest. ``timeout_s`` bounds acquisition; a
    held lock past the deadline raises :class:`LockTimeoutError` rather
    than deadlocking the fleet. ``clock`` injects the timeout clock so
    expiry paths are testable without sleeping (RL011).
    """

    def __init__(
        self,
        path,
        *,
        timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(str(path) + ".lock")
        self.timeout_s = timeout_s
        self._clock = clock
        self._fd: int | None = None
        self._excl = False

    def acquire(self) -> "FileLock":
        deadline = self._clock() + self.timeout_s
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return self
                except OSError:
                    if self._clock() >= deadline:
                        os.close(fd)
                        raise LockTimeoutError(
                            f"{self.path}: lock not acquired within "
                            f"{self.timeout_s:.3g}s"
                        ) from None
                    time.sleep(_POLL_S)
        return self._acquire_excl(deadline)

    def _acquire_excl(self, deadline: float) -> "FileLock":
        """Portable fallback: the lockfile's existence is the lock."""
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    # The lockfile carries no fcntl state, so its mtime —
                    # host wall time by definition — is the only staleness
                    # signal available.
                    age = time.time() - self.path.stat().st_mtime
                    if age > _STALE_LOCKFILE_S:
                        self.path.unlink(missing_ok=True)
                        continue
                except OSError:
                    pass  # raced with the holder's release; retry
                if self._clock() >= deadline:
                    raise LockTimeoutError(
                        f"{self.path}: lock not acquired within "
                        f"{self.timeout_s:.3g}s"
                    ) from None
                time.sleep(_POLL_S)
                continue
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
            except OSError:
                # Leave nothing behind: an orphaned fd plus an empty
                # lockfile would wedge every other worker for
                # _STALE_LOCKFILE_S.
                os.close(fd)
                self.path.unlink(missing_ok=True)
                raise
            self._fd = fd
            self._excl = True
            return self

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if self._excl:
                self.path.unlink(missing_ok=True)
            elif fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None
            self._excl = False

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
