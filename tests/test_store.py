"""The storage rule (``repro._store.ContentStore``), checked once for both codecs.

The result cache stores JSON text, the trace-code cache pickles; the rule
they share — atomic write, no temp file left behind, inode-guarded
quarantine, memory-only after consecutive store errors — is checked here
through ``load``/``store`` and the event callback alone.
"""

from __future__ import annotations

import errno
import json
import os
import pickle

import pytest

from repro import _store
from repro._store import ContentStore

VALUE = {"cycles": 7, "rows": [1, 2, 3]}
GARBAGE = b"{ corrupted \x80"

#: What the two caches pass in: suffix, binary, decode, encode-of-a-value.
CODECS = {
    "json": (".json", False, json.load, lambda fh: json.dump(VALUE, fh, sort_keys=True)),
    "pickle": (".code.pkl", True, pickle.load, lambda fh: pickle.dump(VALUE, fh, protocol=4)),
}


@pytest.fixture(params=sorted(CODECS))
def store(request, tmp_path) -> ContentStore:
    """An empty store; ``events``, ``decode`` and ``encode`` ride along on it."""
    suffix, binary, decode, encode = CODECS[request.param]
    events: list = []
    store = ContentStore(
        tmp_path / "cache",
        suffix=suffix,
        site="test",
        what="test-cache",
        binary=binary,
        on_event=lambda kind, detail: events.append((kind, detail)),
    )
    store.events, store.decode, store.encode = events, decode, encode
    return store


def kinds(store) -> list:
    return [kind for kind, _ in store.events]


def staged_files(store) -> list:
    return [p.name for p in store.directory.iterdir() if p.name.endswith(".tmp")]


def corrupt(store) -> None:
    store.store("k", store.encode)
    store.path("k").write_bytes(GARBAGE)


def test_miss_then_round_trip(store):
    assert store.load("k", store.decode) is None
    store.store("k", store.encode)
    assert store.path("k") == store.directory / f"k{store.suffix}"
    assert store.load("k", store.decode) == VALUE
    assert store.events == [] and staged_files(store) == []


def test_unreadable_entry_is_an_error_and_a_miss(store, monkeypatch):
    store.store("k", store.encode)

    def denied(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(file))

    monkeypatch.setattr(_store, "open", denied, raising=False)
    assert store.load("k", store.decode) is None
    assert kinds(store) == ["cache_error"]
    monkeypatch.undo()
    assert store.load("k", store.decode) == VALUE  # left in place


@pytest.mark.parametrize(
    "exc", [OSError("disk full"), KeyboardInterrupt(), TypeError("unserializable")]
)
def test_failed_write_leaves_no_temp_file(store, exc):
    def encode(fh):
        store.encode(fh)
        raise exc

    if isinstance(exc, OSError):
        store.store("k", encode)  # a store error never fails a run
        assert kinds(store) == ["cache_error"]
    else:
        # Whatever else interrupts the write propagates (the engine raises
        # KeyboardInterrupt from SIGTERM mid-batch) — the staged file goes first.
        with pytest.raises(type(exc)):
            store.store("k", encode)
        assert store.events == []
    assert staged_files(store) == [] and not store.path("k").exists()


def test_failed_replace_leaves_no_temp_file(store, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    store.store("k", store.encode)
    assert kinds(store) == ["cache_error"]
    assert staged_files(store) == [] and not store.path("k").exists()


def test_readonly_directory_leaves_no_temp_file(store):
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        pytest.skip("root bypasses directory write permissions")
    store.directory.mkdir()
    os.chmod(store.directory, 0o500)
    try:
        store.store("k", store.encode)
        assert kinds(store) == ["cache_error"] and staged_files(store) == []
    finally:
        os.chmod(store.directory, 0o700)


def test_quarantine_moves_the_file_it_read_and_keeps_its_bytes(store):
    corrupt(store)
    assert store.load("k", store.decode) is None
    assert kinds(store) == ["cache_error", "cache_quarantine"]
    name = store.path("k").name
    assert name in store.events[1][1] and not store.path("k").exists()
    assert (store.directory / "quarantine" / name).read_bytes() == GARBAGE


def test_any_decode_exception_is_a_bad_entry(store):
    store.store("k", store.encode)

    def wrong_shape(fh):
        return store.decode(fh)["no-such-field"]

    assert store.load("k", wrong_shape) is None
    assert kinds(store) == ["cache_error", "cache_quarantine"]
    assert "KeyError" in store.events[1][1]


def test_quarantine_spares_a_concurrent_replacement(store, tmp_path):
    corrupt(store)
    path = store.path("k")

    def racing_decode(fh):
        incoming = tmp_path / "incoming"
        incoming.write_bytes(b"a parallel store's valid entry")
        os.replace(incoming, path)  # lands between the read and the move
        return store.decode(fh)  # raises: fh is the corrupted file

    assert store.load("k", racing_decode) is None
    assert kinds(store) == ["cache_error"]  # nothing was quarantined
    assert path.read_bytes() == b"a parallel store's valid entry"
    assert not (store.directory / "quarantine").exists()


def test_quarantine_falls_back_to_unlink(store):
    corrupt(store)
    (store.directory / "quarantine").write_text("a file where the directory goes")
    assert store.load("k", store.decode) is None
    assert kinds(store) == ["cache_error", "cache_quarantine"]
    assert not store.path("k").exists()


def test_consecutive_store_errors_degrade_once(store):
    n = _store.STORE_ERROR_THRESHOLD

    def failing(fh):
        raise OSError("disk full")

    for i in range(n - 1):
        store.store(f"k{i}", failing)
    store.store("ok", store.encode)  # a success resets the count
    for i in range(n):
        assert "cache_degraded" not in kinds(store)
        store.store(f"k{i}", failing)
    assert kinds(store) == ["cache_error"] * (2 * n - 1) + ["cache_degraded"]
    assert str(store.directory) in store.events[-1][1]

    # Memory-only from here on: later stores do not touch the disk.
    store.store("late", store.encode)
    assert len(store.events) == 2 * n and not store.path("late").exists()
    assert store.load("ok", store.decode) == VALUE  # reads still work
