"""One content-addressed file store: sharded paths, atomic puts, checked reads.

The engine's certificate cache (:mod:`repro.parallel.cache`), the
daemon's certificate store (:mod:`repro.serve.store`) and the run
ledger (:mod:`repro.obs.store`) all keep one file per key at
``<root>/<key[:2]>/<key><suffix>``: a header line
``repro.cas/v1 <sha256 hex of the payload>``, then the payload.

A put writes a temporary file in the shard directory and renames it
over the entry, so no reader ever sees a torn entry.  A get re-hashes
the payload: a reused entry stands in for a re-check, so its integrity
is checked, not assumed.  A damaged entry (unreadable, truncated or
failing its digest) and a failed put (a full disk, say) are reported as
a :class:`StoreWarning` naming the file; the entry is removed and read
as a miss, and the caller recomputes or keeps its value.

This module imports nothing from :mod:`repro`, so the ledger's read
side can use it without the checker stack.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from typing import List, Optional, Tuple

_MAGIC = b"repro.cas/v1 "

#: Length of the header line: the magic, 64 hex digits and a newline.
#: Byte budgets count payload bytes only, so the header never changes
#: which entries fit.
HEADER_BYTES = len(_MAGIC) + 64 + 1


class StoreWarning(UserWarning):
    """A store entry could not be written, or was damaged and dropped."""


def check_name(name: str, what: str = "store key") -> str:
    """``name`` if it is one plain path component, else ``ValueError``."""
    if not name or name != os.path.basename(name) or name.startswith("."):
        raise ValueError(f"unsafe {what} {name!r}")
    return name


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


class ContentStore:
    """Payloads keyed by content address, one checked file each."""

    def __init__(self, root: str, suffix: str):
        self.root = root
        self.suffix = suffix

    def path(self, key: str) -> str:
        check_name(key)
        return os.path.join(self.root, key[:2], key + self.suffix)

    def get(self, key: str, touch: bool = False) -> Optional[bytes]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A damaged entry is reported, removed and read as a miss.  With
        ``touch`` a hit refreshes the entry's mtime, the recency
        :meth:`evict` orders by.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                header = handle.read(HEADER_BYTES)
                payload = handle.read()
        except FileNotFoundError:
            return None
        except OSError as error:
            self.discard(key, f"unreadable ({error})")
            return None
        if (len(header) < HEADER_BYTES or not header.startswith(_MAGIC)
                or not header.endswith(b"\n")):
            self.discard(key, "truncated or missing header")
            return None
        if hashlib.sha256(payload).hexdigest().encode() != header[len(_MAGIC):-1]:
            self.discard(key, "payload fails its SHA-256 check")
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass
        return payload

    def put(self, key: str, payload: bytes) -> Optional[str]:
        """Store ``payload`` under ``key``; returns the entry's path.

        A failed write is reported and returns ``None``.
        """
        path = self.path(key)
        directory = os.path.dirname(path)
        header = _MAGIC + hashlib.sha256(payload).hexdigest().encode() + b"\n"
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header)
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                _unlink(tmp)
                raise
        except OSError as error:
            warnings.warn(f"{path}: write failed ({error})", StoreWarning,
                          stacklevel=2)
            return None
        return path

    def discard(self, key: str, reason: str) -> None:
        """Report the entry under ``key`` as damaged and remove it."""
        path = self.path(key)
        warnings.warn(f"{path}: {reason}; entry removed", StoreWarning,
                      stacklevel=3)
        _unlink(path)

    def delete(self, key: str) -> bool:
        return _unlink(self.path(key))

    def entries(self) -> List[Tuple[float, int, str]]:
        """Every entry below the root as ``(mtime, payload bytes, path)``."""
        found: List[Tuple[float, int, str]] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(self.suffix):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                size = max(0, stat.st_size - HEADER_BYTES)
                found.append((stat.st_mtime, size, path))
        return found

    def evict(self, max_bytes: int, keep: Optional[str] = None) -> int:
        """Drop least recently used entries until the payloads fit.

        The entry at path ``keep`` is never evicted.  Returns the
        number of entries removed.
        """
        entries = self.entries()
        total = sum(size for _mtime, size, _path in entries)
        removed = 0
        for _mtime, size, path in sorted(entries):
            if total <= max_bytes:
                break
            if path != keep and _unlink(path):
                removed += 1
                total -= size
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        return sum(_unlink(path) for _mtime, _size, path in self.entries())
