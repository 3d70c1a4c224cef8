"""Content-addressed disk cache for compiled kernel traces.

Synthesizing a kernel trace from its :class:`~repro.workloads.AppProfile`
and lowering it to :class:`~repro.trace.compiled.CompiledWarp` form is pure
per-app work, yet an experiment grid repeats it for every (app, design)
point: 13 designs sharing ``cg-lou`` synthesize the identical trace 13
times.  This module stores the finished artifact — the ``KernelTrace``
header, each warp's trace and compiled columns and its prewarmed bank
rows; no ``Instruction`` object — as a pickle keyed by everything that
determines its content:

* :data:`CODE_VERSION` (the compiled representation's own schema),
* ``PROFILE_VERSION`` (the profile → trace synthesis pipeline version),
* the full profile payload,
* the bank-mapping name and bank count (they shape the pre-resolved
  bank tables).

Changing any of these changes the key, so stale entries are simply never
addressed again — invalidation by construction, same discipline as the
experiment engine's result cache.

Location: ``$REPRO_TRACE_CACHE_DIR`` when set, else
``~/.cache/repro-sim/trace-code``.  Each directory is a
:class:`~repro._store.ContentStore`, which owns the atomic-write /
quarantine / memory-only rule (``docs/robustness.md``); this module adds
the pickle codec, which reads a cache file as outside input (only the
artifact's own types unpickle, and its structure is checked before it is
served), and a per-process notes queue: quarantine and degrade events
append ``(kind, detail)`` pairs, engine workers drain them
(:func:`drain_notes`) and ship them to the parent, which deduplicates
them into structured manifest warnings.

This module deliberately knows nothing about :mod:`repro.workloads` (which
imports :mod:`repro.trace`); callers pass the key material and a builder.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .._store import ContentStore
from ..regalloc.bank_mapping import MAPPINGS
from .compiled import CompiledWarp, _BankTable
from .kernel_trace import CTATrace, KernelTrace
from .warp_trace import WarpTrace

#: Schema version of the compiled-trace artifact.  Bump whenever the
#: content of a module the artifact is made of changes (the
#: ``compiled-trace`` watch list of ``repro.analysis``); the key contains
#: it, so old entries are simply never addressed again.
CODE_VERSION = 2

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"

_MAGIC = "repro-code"

#: This process's stores, one per cache directory it has touched.  A store
#: degrades to memory-only for the life of the process.
_STORES: Dict[Path, ContentStore] = {}

#: Per-process queue of ``(kind, detail)`` degradation events.  Kinds
#: reuse the manifest warning vocabulary (``cache_quarantine``,
#: ``cache_degraded``) so the engine can forward them verbatim.
_NOTES: List[Tuple[str, str]] = []


def drain_notes() -> List[Tuple[str, str]]:
    """Take (and clear) this process's pending degradation notes."""
    notes = list(_NOTES)
    _NOTES.clear()
    return notes


def reset_degradation() -> None:
    """Re-arm the store path and drop pending notes (tests, new runs)."""
    _STORES.clear()
    _NOTES.clear()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim" / "trace-code"


def code_key(
    profile_version: int,
    profile_payload: Mapping[str, Any],
    mapping_name: str,
    num_banks: int,
) -> str:
    """Content hash addressing one compiled kernel on disk."""
    material = json.dumps(
        {
            "code_version": CODE_VERSION,
            "profile_version": profile_version,
            "profile": dict(profile_payload),
            "bank_mapping": mapping_name,
            "num_banks": num_banks,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _note(kind: str, detail: str) -> None:
    # Single read/store errors stay silent here, as recompilation hides
    # them; the ladder steps are what the parent's manifest should hear.
    if kind != "cache_error":
        _NOTES.append((kind, detail))


def _store(cache_dir: Path) -> ContentStore:
    store = _STORES.get(cache_dir)
    if store is None:
        store = _STORES[cache_dir] = ContentStore(
            cache_dir,
            suffix=".code.pkl",
            site="code",
            what="trace-code",
            binary=True,
            on_event=_note,
        )
    return store


@contextmanager
def _paused_gc() -> Iterator[None]:
    """Disable the cyclic collector for the block; restore the prior state.

    One ``pickle.dump`` or ``pickle.load`` of an artifact allocates or
    walks tens of thousands of container objects that are acyclic and all
    live when the call returns, so the generational collector's
    allocation-count trigger fires throughout and can free none of them:
    unpaused, that is half the time of a load (``docs/performance.md``,
    "Trace build path").  Restores on success
    and on any exception, nests, and never enables a collector the caller
    had disabled.  Synthesis and lowering are deliberately *not* paused:
    their collections are what reclaims a process's older cyclic garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Every global an artifact may name: the trace containers, the compiled
#: columns, and the registered bank mappers its bank tables are keyed by.
_ARTIFACT_GLOBALS = {
    (obj.__module__, obj.__qualname__)
    for obj in (KernelTrace, CTATrace, WarpTrace, CompiledWarp, _BankTable, *MAPPINGS.values())
}


class _ArtifactUnpickler(pickle.Unpickler):
    """``pickle.load`` that imports nothing a cache file merely names."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _ARTIFACT_GLOBALS:
            raise pickle.UnpicklingError(f"{module}.{name} is not part of a trace artifact")
        return super().find_class(module, name)


def _checked(kernel: Any) -> KernelTrace:
    """``kernel``, once it is known to have the structure of an artifact.

    Unpickling runs no constructor; what the replay path indexes without a
    check of its own is checked here, once per unique warp trace.
    """
    if not isinstance(kernel, KernelTrace):
        raise ValueError("not a kernel trace")
    checked = None
    for cta in kernel.ctas:
        # ``uniform`` repeats one CTATrace by reference: check it once.
        if cta is not checked:
            checked = cta
            for trace in cta.warps:
                if not trace._code.well_formed(trace):
                    raise ValueError("malformed compiled columns")
    return kernel


def _decode(fh) -> KernelTrace:
    envelope = _ArtifactUnpickler(fh).load()
    if (
        not isinstance(envelope, tuple)
        or len(envelope) != 3
        or envelope[0] != _MAGIC
        or envelope[1] != CODE_VERSION
    ):
        raise ValueError("wrong cache generation")
    return _checked(envelope[2])


def load_compiled(cache_dir: Path, key: str) -> Optional[KernelTrace]:
    """The cached artifact for ``key``, or None on miss/corruption.

    Corrupted pickles, wrong-generation envelopes (stale magic or
    :data:`CODE_VERSION`), foreign globals and malformed columns are
    quarantined — moved aside, never served, never silently deleted — and
    the artifact recompiles.
    """
    with _paused_gc():
        return _store(cache_dir).load(key, _decode)


def store_compiled(cache_dir: Path, key: str, artifact: KernelTrace) -> None:
    """Atomically persist ``artifact`` under ``key`` (best-effort).

    A read-only or full cache directory degrades to recompilation, never
    to failure: after ``STORE_ERROR_THRESHOLD`` consecutive ``OSError``s
    the store goes memory-only for this process and queues a single
    ``cache_degraded`` note instead of erroring per artifact.
    """
    with _paused_gc():
        _store(cache_dir).store(
            key, lambda fh: pickle.dump((_MAGIC, CODE_VERSION, artifact), fh, protocol=4)
        )


def get_or_build(
    cache_dir: Optional[Path],
    key: str,
    builder: Callable[[], KernelTrace],
) -> Tuple[KernelTrace, str]:
    """Load ``key`` from ``cache_dir`` or build and store it.

    Returns ``(artifact, source)`` with source ``"disk"`` on a cache hit
    and ``"compile"`` on a build.  ``cache_dir=None`` disables the disk
    layer entirely (always compiles, stores nothing).
    """
    if cache_dir is not None:
        artifact = load_compiled(cache_dir, key)
        if artifact is not None:
            return artifact, "disk"
    artifact = builder()
    if cache_dir is not None:
        store_compiled(cache_dir, key, artifact)
    return artifact, "compile"
