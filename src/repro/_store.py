"""The storage rule of the on-disk caches, stated once.

The simulation-result cache (:mod:`repro.experiments.engine`) and the
compiled-trace cache (:mod:`repro.trace.code_cache`) are directories of
content-addressed files that pool workers read and write concurrently.
Both are a :class:`ContentStore`; they differ only in the data they pass
in.  The rule (``docs/robustness.md``, "The storage rule"): entries are
staged through a temp file and ``os.replace``d, so a reader never sees a
torn one; an entry that opens but does not decode is quarantined, never
served; and a directory that cannot be written degrades the store to
memory-only instead of failing a run.  Every step is reported through the
one ``on_event(kind, detail)`` callback: ``cache_error`` (each read or
store error), ``cache_quarantine``, ``cache_degraded`` (once).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Any, Callable, Optional, TypeVar, Union

from .chaos.hooks import trip as chaos_trip

#: Consecutive store ``OSError``s (disk full, read-only directory) before a
#: store goes memory-only for its lifetime: one ``cache_degraded`` event
#: instead of one error per entry.
STORE_ERROR_THRESHOLD = 3

T = TypeVar("T")


class ContentStore:
    """One directory of ``<key><suffix>`` entries under the storage rule.

    ``site`` prefixes the chaos seams (``<site>_read``, ``<site>_store``,
    ``<site>_write``), ``what`` names the cache in event details, and
    ``binary`` selects the mode the codecs' file handles are opened in.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        suffix: str,
        site: str,
        what: str,
        binary: bool,
        on_event: Callable[[str, str], None],
    ):
        self.directory = Path(directory)
        self.suffix = suffix
        self.site = site
        self.what = what
        self.binary = binary
        self.on_event = on_event
        self._failures = 0
        self._degraded = False

    def path(self, key: str) -> Path:
        return self.directory / f"{key}{self.suffix}"

    def _open(self, file: Union[int, Path], mode: str) -> IO[Any]:
        if self.binary:
            return open(file, mode + "b")
        return open(file, mode, encoding="utf-8")

    def load(self, key: str, decode: Callable[[IO[Any]], T]) -> Optional[T]:
        """``decode(file)`` of the entry for ``key``; None on a miss.

        *Any* exception out of ``decode`` marks the entry bad (truncated,
        garbled, wrong generation, valid syntax of the wrong shape): it is
        quarantined and reported, and the caller rebuilds it.
        """
        path = self.path(key)
        chaos_trip(f"{self.site}_read", key, path=str(path))
        try:
            fh = self._open(path, "r")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.on_event("cache_error", f"{self.what} entry {path.name}: {exc}")
            return None
        with fh:
            try:
                return decode(fh)
            except Exception as exc:
                why = f"{type(exc).__name__}: {exc}"
                self.on_event("cache_error", f"{self.what} entry {path.name}: {why}")
                if self._quarantine(path, fh):
                    self.on_event(
                        "cache_quarantine",
                        f"corrupted {self.what} entry {path.name} quarantined "
                        f"({why}); it will be rebuilt",
                    )
                return None

    def _quarantine(self, path: Path, fh: IO[Any]) -> bool:
        """Move ``path`` aside only while it still names the file open as ``fh``.

        On a shared directory a parallel :meth:`store` may have
        ``os.replace``d a fresh, valid entry over the path between the read
        and the move; a blind rename would silently discard that result.
        Comparing the open handle's identity with the path's current one
        confines the quarantine to the file that was read.  The bad entry
        is preserved under ``quarantine/`` for post-mortems; when even that
        fails (read-only directory) it falls back to a guarded unlink.
        Returns True when the bad file no longer occupies the path.
        """
        try:
            opened = os.fstat(fh.fileno())
            current = os.stat(path)
            if (opened.st_dev, opened.st_ino) != (current.st_dev, current.st_ino):
                return False
            try:
                aside = self.directory / "quarantine"
                aside.mkdir(parents=True, exist_ok=True)
                os.replace(path, aside / path.name)
            except OSError:
                os.unlink(path)
            return True
        except OSError:
            return False

    def store(self, key: str, encode: Callable[[IO[Any]], None]) -> None:
        """Atomically persist ``encode(file)`` under ``key`` (best-effort).

        A store ``OSError`` is counted, never raised; anything else that
        interrupts the write (``KeyboardInterrupt`` included) propagates —
        after the staged file is removed.
        """
        if self._degraded:
            return
        # Imported at the first write: a fully warm run never stores.
        import tempfile

        path = self.path(key)
        try:
            chaos_trip(f"{self.site}_store", key)
            self.directory.mkdir(parents=True, exist_ok=True)
            # mkstemp names are unique per call, so a leaked temp file would
            # stay in a long-lived shared directory forever.
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with self._open(fd, "w") as fh:
                    encode(fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._store_failed(exc)
            return
        self._failures = 0
        chaos_trip(f"{self.site}_write", key, path=str(path))

    def _store_failed(self, exc: OSError) -> None:
        self.on_event("cache_error", f"{self.what} store: {exc}")
        self._failures += 1
        if self._failures >= STORE_ERROR_THRESHOLD:
            self._degraded = True
            self.on_event(
                "cache_degraded",
                f"{self._failures} consecutive {self.what} store errors "
                f"({self.directory}); this cache is now memory-only",
            )
