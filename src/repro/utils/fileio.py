"""Crash-safe file writes behind one filesystem seam.

:func:`write_atomic` is the one tmp-write + fsync + rename routine every
durable file in the library is born through: ``.rcpk`` checkpoints,
``.rccol`` column caches, history/WAL segment preambles and the
monitor registry's config. :class:`FileSystem` is the seam the
write-ahead log and the fault-injection harness (``tests/faults.py``)
share, so a test can fail, tear or stall the Nth durable operation
without monkeypatching ``os`` globally.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["FileSystem", "REAL_FILESYSTEM", "write_atomic"]


class FileSystem:
    """Real filesystem operations behind one seam.

    Durability-relevant operations — open, write (via the returned
    handle), fsync, rename — go through an instance of this class, so
    tests can substitute a ``FaultyFileSystem`` that fails,
    short-writes, or stalls the Nth call.
    """

    def open(self, path: str | Path, mode: str):
        return open(path, mode)

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def replace(self, source: str | Path, destination: str | Path) -> None:
        os.replace(source, destination)


REAL_FILESYSTEM = FileSystem()


def write_atomic(
    path: str | Path,
    data: bytes,
    *,
    filesystem: FileSystem = REAL_FILESYSTEM,
) -> Path:
    """Write ``data`` to ``path`` so no reader or crash sees a torn file.

    The bytes go to a temporary file next to ``path`` that is fsynced
    and then renamed over it. The temporary name carries the writer's
    PID, so two processes writing the same path never share (and
    truncate) one temporary file: each renames its own complete copy
    and the last rename wins. On any failure the temporary file is
    removed.
    """
    path = Path(path)
    temporary = path.parent / f"{path.name}.tmp.{os.getpid()}"
    try:
        with filesystem.open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            filesystem.fsync(handle)
        filesystem.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
    return path
