"""Atomic file replacement: readers see the old bytes or the new, never a
torn file.

Every artifact the reproduction persists — cache entries and their
sidecars, sweep manifests, qmon manifests — is written through
:func:`write_atomic`, so concurrent producers (threads or worker
processes targeting one cache directory) and crashes mid-write can never
leave a partial file behind.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import BinaryIO, Callable, Union

__all__ = ["write_atomic"]

#: Per-process counter distinguishing temp files written by concurrent
#: threads of one process (the pid alone distinguishes processes).
_TMP_IDS = itertools.count()


def write_atomic(path: Union[str, os.PathLike],
                 content: Union[str, bytes, Callable[[BinaryIO], None]]
                 ) -> Path:
    """Write ``content`` to ``path`` atomically and return the path.

    ``content`` is text (written as UTF-8), bytes, or a callable that
    writes into the open binary file handle.  The bytes go to a unique
    hidden temp sibling (``.<name>.<pid>.<n>.tmp``) that is then
    ``os.replace``d over ``path``.  On any failure the temp file is
    removed and whatever was at ``path`` before stays intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content.encode("utf-8")
                         if isinstance(content, str) else content)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path
