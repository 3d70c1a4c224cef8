"""Parallel, disk-cached experiment-execution engine.

Every figure of the reproduction decomposes into *simulation points* —
:class:`SimPoint`: a workload under a named design, on ``num_sms`` SMs —
and figures share points heavily (the Fig. 1 baseline runs are the
Fig. 9/10 denominators).
The engine is the single authority that turns a batch of points into
:class:`~repro.metrics.SimStats`:

1. **dedup** — a batch is reduced to its unique points;
2. **cache** — each point is looked up in a per-process memory cache and
   then in a content-addressed on-disk cache keyed by a stable SHA-256
   hash of the *resolved* design config (every ``GPUConfig`` field,
   including the memory hierarchy), the workload name plus its full
   profile and :data:`~repro.workloads.PROFILE_VERSION`, and the
   simulator version;
3. **fan-out** — remaining misses are grouped into *app-affinity chunks*
   (every point of one app lands on one worker, so each trace is
   synthesized/compiled once per bank layout and then served from the
   worker's in-process memo) and run on a ``concurrent.futures`` process
   pool (``workers > 1``).  Chunks are LPT-packed using expected
   per-point seconds from past :class:`~repro.obs.RunManifest` records
   to even out worker wall time.  A per-chunk timeout (the per-point
   budget × chunk size), one in-parent retry when a worker crashes or
   times out, and a graceful serial fallback when the pool cannot be
   created keep batches robust.

Caching is loss-free because simulation is bit-deterministic (warp
scheduling never iterates hash-ordered sets — see ``SubCore.ready``) and
:meth:`SimStats.to_payload` round-trips losslessly.

Robustness is a verified *degradation ladder*, not ad-hoc handling:
``docs/robustness.md`` lists every rung and :mod:`repro.chaos` injects
every fault class and asserts byte-identical digests.  Results are
persisted and journaled per point *as they settle*
(:class:`~repro.obs.RunJournal`, enabling ``python -m repro --resume``);
the disk cache is a :class:`~repro._store.ContentStore`, which owns the
atomic-write / quarantine / memory-only rule.

Observability: the engine keeps per-point wall times and hit/miss/retry
counters (:class:`EngineProfile`); ``python -m repro --profile`` prints
them, and ``--workers/--cache-dir/--no-cache`` configure the process-wide
engine (:func:`get_engine`) every figure module runs its points on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

# A cache hit uses these leaf modules and nothing else of the package; the
# simulator, the trace toolchain, the process pool and the opt-in telemetry
# classes are imported where a miss (or the option) first needs them — see
# docs/performance.md, "Start-up and the hit path".
from .. import __version__ as _SIM_VERSION
from .._store import ContentStore
from ..chaos.hooks import trip as chaos_trip
from ..config.gpu_config import GPUConfig
from ..metrics.stats import SimStats
from ..obs.manifest import RunManifest, read_manifest, stats_digest
from ..workloads.profiles import PROFILE_VERSION, AppProfile
from ..workloads.registry import (
    Pairs, all_profiles, compiled_code_key, get_compiled_kernel, kernel_source,
)
from .designs import get_design

if TYPE_CHECKING:
    import concurrent.futures

    from ..obs.heartbeat import Heartbeat
    from ..obs.journal import RunJournal
    from ..obs.metrics import MetricsRegistry

#: Bump when the cache-file layout (not the simulated results) changes.
#: 2: SMStats payloads may carry ``stall_cycles`` (repro.obs).
CACHE_SCHEMA = 2

#: Default on-disk cache location (override with ``REPRO_CACHE_DIR`` or
#: ``configure(cache_dir=...)``).
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro-sim")
).expanduser()

#: Consecutive failed pool chunks (crash or timeout) before the circuit
#: breaker opens and later batches run serially in-process.
CIRCUIT_THRESHOLD = 3


def _text(pairs: Pairs) -> str:
    return "[" + ",".join(f"{k}={v}" for k, v in pairs) + "]" if pairs else ""


@dataclass(frozen=True, order=True)
class SimPoint:
    """One simulation the evaluation needs: a workload under a named design.

    ``app`` is a registry app or a kernel builder, ``kernel`` its profile
    variant or builder arguments (:func:`~repro.workloads.registry.kernel_source`),
    ``overrides`` ``GPUConfig`` fields replaced on the design.  Both take a
    mapping and are kept as sorted pairs; empty, they change nothing.
    """

    app: str
    design: str = "baseline"
    num_sms: int = 1
    collect_timeline: bool = False
    kernel: Pairs = ()
    overrides: Pairs = ()

    def __post_init__(self) -> None:
        if self.kernel != () or self.overrides != ():
            for name in ("kernel", "overrides"):
                object.__setattr__(self, name, tuple(sorted(dict(getattr(self, name)).items())))

    def label(self) -> str:
        tl = " +timeline" if self.collect_timeline else ""
        return (
            f"{self.app}{_text(self.kernel)} × {self.design}{_text(self.overrides)} "
            f"(num_sms={self.num_sms}{tl})"
        )


def _shallow_fields(point: SimPoint) -> tuple:
    """``point``'s fields for ``SimPoint(*fields)`` in a worker; ``astuple``
    would turn a dataclass override (a ``memory`` ``MemoryConfig``) into a tuple."""
    return tuple(getattr(point, f.name) for f in dataclasses.fields(point))


@dataclass
class EngineProfile:
    """Counters and per-point wall times for one engine's lifetime."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    sims: int = 0
    retries: int = 0
    disk_errors: int = 0
    #: Corrupted cache entries moved into the quarantine directory
    #: instead of being served (result cache; the trace-code cache keeps
    #: its own per-process tally and reports through worker notes).
    quarantines: int = 0
    #: Disk hits whose digest matched a journaled checkpoint on a
    #: ``--resume`` run — points this run did *not* have to redo.
    resumed: int = 0
    #: Compiled-trace artifact events observed across workers: ``compile``
    #: (synthesized + lowered + stored) vs ``disk`` (loaded from the
    #: content-addressed trace-code cache).  In-process memo hits are not
    #: counted — they are the expected steady state inside an app chunk.
    code_compiles: int = 0
    code_loads: int = 0
    #: Tracer events a ``trace_cycles`` cap cut (per point: the manifest).
    trace_dropped: int = 0
    point_seconds: List[Tuple[str, float]] = field(default_factory=list)
    #: Simulation wall time accumulated per worker process id; the parent
    #: process appears under its own pid (serial runs and retries).
    worker_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of point lookups served from a cache (0..1)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def note_sim(self, label: str, secs: float, worker: int) -> None:
        self.sims += 1
        self.point_seconds.append((label, secs))
        self.worker_seconds[worker] = self.worker_seconds.get(worker, 0.0) + secs

    def worker_skew(self) -> float:
        """Max/mean ratio of per-worker simulation wall time (1.0 = even).

        A high skew means the pool spent most of its wall clock waiting
        for one loaded worker — the signal to look at per-point timeouts
        or point ordering.
        """
        if not self.worker_seconds:
            return 1.0
        times = list(self.worker_seconds.values())
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    def total_sim_seconds(self) -> float:
        return sum(s for _, s in self.point_seconds)

    def summary(self, slowest: int = 5) -> str:
        lines = [
            "engine profile",
            "--------------",
            f"memory hits   {self.mem_hits}",
            f"disk hits     {self.disk_hits}",
            f"simulations   {self.sims}",
            f"retries       {self.retries}",
            f"disk errors   {self.disk_errors}",
            f"quarantines   {self.quarantines}",
            f"cache hit rate {self.hit_rate():.1%} "
            f"({self.hits}/{self.lookups} lookups)",
            f"trace code    {self.code_compiles} compiled, "
            f"{self.code_loads} loaded from cache",
            f"sim wall time {self.total_sim_seconds():.2f}s",
        ]
        if self.resumed:
            lines.append(f"resumed       {self.resumed} journaled points")
        if len(self.worker_seconds) > 1:
            lines.append(
                f"worker skew   {self.worker_skew():.2f}x max/mean over "
                f"{len(self.worker_seconds)} workers"
            )
        if self.point_seconds:
            lines.append(f"slowest points (top {slowest}):")
            ranked = sorted(self.point_seconds, key=lambda t: -t[1])[:slowest]
            lines.extend(f"  {secs:7.2f}s  {label}" for label, secs in ranked)
        elif self.lookups:
            lines.append(
                "no simulations ran: every point was served from cache"
            )
        return "\n".join(lines)


def resolved_config(
    point: SimPoint, sanitize: bool = False, trace: bool = False
) -> GPUConfig:
    """The effective config a point simulates (design, overrides, num_sms).

    ``trace`` enables stall attribution: traced runs carry the taxonomy
    buckets in their stats, which is why they key the cache separately.
    """
    config = get_design(point.design).replace(
        **dict(point.overrides), num_sms=point.num_sms
    )
    if sanitize:
        config = config.replace(sanitize=True)
    if trace:
        config = config.replace(stall_attribution=True)
    return config


def config_key_fields(config: GPUConfig) -> dict:
    """Every field of a config as JSON-safe primitives (nested included)."""
    return dataclasses.asdict(config)


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# The two large fragments of a point's key material, memoized by the frozen
# dataclass *value* — never by design or app name, so a design whose factory
# changes (or two names resolving to one config) can neither go stale nor
# collide.  (Value equality is Python's: a design built with ``2.0`` where
# another has ``2`` is the same configuration and shares its fragment.)
# Bounded: a sweep meets a few dozen configs and 112 profiles.
@lru_cache(maxsize=512)
def _config_fragment(config: GPUConfig) -> str:
    return _canonical_json(config_key_fields(config))


@lru_cache(maxsize=512)
def _profile_fragment(profile: AppProfile) -> str:
    return _canonical_json(dataclasses.asdict(profile))


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of the key
#: payload with a slot per value, in sorted-key order; the ``"kernel"``
#: entry's slot is empty for a point without a kernel spec.
_KEY_BLOB = (
    '{"collect_timeline":%s,"config":%s,"schema":%s,"sim_version":%s,"trace":%s,'
    '"workload":{"app":%s,%s"profile":%s,"profile_version":%s}}'
)


def point_key(point: SimPoint, sanitize: bool = False, trace: bool = False) -> str:
    """Stable content hash identifying a point's simulation inputs.

    The key covers the full resolved config, the workload's name *and*
    profile fields (so editing a profile invalidates its cached results),
    the trace-synthesis :data:`PROFILE_VERSION`, the simulator version,
    and the timeline flag; a kernel spec adds itself and keys the resolved
    variant (a builder: no profile).  It deliberately excludes the design *name*:
    two names resolving to identical configs share cache entries.
    ``sanitize`` is part of the config and therefore of the key: sanitized
    runs must be byte-identical to plain ones (that's what the smoke gate
    asserts), but they never *share* cache entries, so a sanitizer bug can
    never poison the plain-run cache.  ``trace`` separates the cache the
    same way: traced stats carry stall buckets a plain consumer must
    never see, and an explicit flag keeps the separation even if the
    resolved configs were ever to collide.

    The hashed bytes are the payload's canonical JSON (sorted keys,
    compact separators), assembled from :data:`_KEY_BLOB` around the
    memoized config and profile fragments; ``tests/test_pinned_keys.py``
    holds them to the one-``json.dumps`` derivation byte for byte.
    """
    scalar = _canonical_json
    kernel, profiles = "", all_profiles()
    if point.kernel or point.app not in profiles:
        kernel = '"kernel":%s,' % scalar(dict(point.kernel))
        spec, _ = kernel_source(point.app, point.kernel)
        profile = _profile_fragment(spec) if isinstance(spec, AppProfile) else "null"
    else:
        profile = _profile_fragment(profiles[point.app])
    blob = _KEY_BLOB % (
        scalar(point.collect_timeline),
        _config_fragment(resolved_config(point, sanitize=sanitize, trace=trace)),
        scalar(CACHE_SCHEMA),
        scalar(_SIM_VERSION),
        scalar(trace),
        scalar(point.app),
        kernel,
        profile,
        scalar(PROFILE_VERSION),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_stem(point: SimPoint) -> str:
    """Filesystem-safe basename for a point's trace files.

    A kernel spec or overrides add a digest, as a dozen override fields
    would outgrow a file name; the manifest maps each file to its label.
    """

    def part(name: str, pairs: Pairs) -> str:
        return name + ("+" + hashlib.sha256(repr(pairs).encode()).hexdigest()[:10] if pairs else "")

    tl = "-tl" if point.collect_timeline else ""
    return f"{part(point.app, point.kernel)}--{part(point.design, point.overrides)}--sms{point.num_sms}{tl}"


def _decode_result(fh) -> SimStats:
    """The result-cache codec's read half (see ``_store_disk`` for the write)."""
    doc = json.load(fh)
    if doc.get("schema") != CACHE_SCHEMA:
        # CACHE_SCHEMA is part of the point key, so an entry *at this
        # path* stamped with another generation is inconsistent, not
        # merely old — a bad entry like any other corruption.
        raise ValueError(f"schema {doc.get('schema')!r}")
    return SimStats.from_payload(doc["stats"])


def _load_simulator():
    """Import what a simulation needs; returns ``(simulate, drain_code_notes)``.

    The cycle-level model and the trace toolchain (synthesis, lowering,
    code cache).  No cache hit uses any of it, so nothing imports it at
    module level: a miss loads it here.  The pool path calls this in the
    parent *before* it forks, so every worker inherits the loaded modules
    instead of importing them again.
    """
    from ..gpu.gpu import simulate
    from ..trace import code_cache, compiled  # noqa: F401
    from ..workloads import synth  # noqa: F401

    return simulate, code_cache.drain_notes


def _simulate_point(
    point_fields: tuple,
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    trace_cycles: Optional[int] = None,
    code_cache_dir: Optional[str] = None,
) -> Tuple[tuple, dict, float, int, Optional[str], str, tuple, int]:
    """Worker entry: simulate one point, return its payload and wall time.

    Takes/returns plain tuples and dicts so the function pickles cheaply
    under any multiprocessing start method.  Returns ``(point_fields,
    stats payload, sim seconds, worker pid, chrome-trace path or None,
    compiled-code source, trace-code cache notes, events a ``trace_cycles``
    cap dropped)``.  The notes are
    ``(kind, detail)`` pairs drained from :mod:`repro.trace.code_cache`
    — quarantine/degradation events that happened inside this worker
    process and would otherwise be invisible to the parent's manifest.
    The kernel arrives pre-compiled through
    :func:`~repro.workloads.get_compiled_kernel` — resolved *before* the
    timed region, so ``secs`` measures simulation alone and the same-app
    points of an affinity chunk pay for trace synthesis exactly once per
    bank layout (``code source == "memory"`` from the second point on).
    With ``trace_dir`` set, the run is traced (stall attribution on, a
    :class:`~repro.obs.Tracer` attached) and the worker itself writes the
    point's ``<stem>.trace.json`` / ``<stem>.events.jsonl`` files, so
    event streams never travel over the pool's result pipe.
    """
    simulate, drain_code_notes = _load_simulator()
    point = SimPoint(*point_fields)
    chaos_trip("sim", point.label())
    config = resolved_config(point, sanitize=sanitize, trace=trace_dir is not None)
    tracer = None
    if trace_dir is not None:
        from ..obs.tracer import Tracer

        tracer = Tracer(max_cycles=trace_cycles)
    kernel, code_source = get_compiled_kernel(
        point.app,
        config.bank_mapping,
        config.rf_banks_per_subcore,
        cache_dir=Path(code_cache_dir) if code_cache_dir is not None else None,
        use_disk=code_cache_dir is not None,
        kernel=point.kernel,
    )
    t0 = time.perf_counter()
    stats = simulate(
        kernel,
        config,
        num_sms=point.num_sms,
        collect_timeline=point.collect_timeline,
        tracer=tracer,
    )
    secs = time.perf_counter() - t0
    trace_path: Optional[str] = None
    if tracer is not None:
        from ..obs.chrome_trace import write_chrome_trace, write_events_jsonl

        assert trace_dir is not None
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = trace_stem(point)
        chrome = out / f"{stem}.trace.json"
        write_chrome_trace(tracer, chrome)
        write_events_jsonl(tracer, out / f"{stem}.events.jsonl")
        trace_path = str(chrome)
    return (
        point_fields,
        stats.to_payload(),
        secs,
        os.getpid(),
        trace_path,
        code_source,
        tuple(drain_code_notes()),
        tracer.dropped if tracer is not None else 0,
    )


def _simulate_chunk(fields_list: Sequence[tuple], **kwargs) -> List[tuple]:
    """Worker entry for an app-affinity chunk: simulate points in order.

    One pool task per chunk keeps every same-app point on one worker, so
    the compiled trace is synthesized (or disk-loaded) once and then served
    from the in-process memo.  Looks ``_simulate_point`` up as a module
    global on every call so test seams that patch it apply to chunked runs
    too.
    """
    return [_simulate_point(fields, **kwargs) for fields in fields_list]


#: The engine's labelled counters: family -> (metric name, help, label).
_COUNTERS = {
    "point": (
        "repro_engine_points_total",
        "Point resolutions by source (cache tier or simulation).",
        "source",
    ),
    "code": (
        "repro_engine_code_total",
        "Compiled-trace artifact events by source (compile or disk load).",
        "source",
    ),
    "degradation": (
        "repro_engine_degradations_total",
        "Degradation-ladder events by step (cache_quarantine, "
        "cache_degraded, circuit_open, interrupted, journal_mismatch).",
        "step",
    ),
}


class ExperimentEngine:
    """Executes simulation points with caching, fan-out and robustness."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        use_disk_cache: bool = True,
        timeout: Optional[float] = None,
        progress: bool = False,
        sanitize: bool = False,
        trace_dir: Optional[os.PathLike] = None,
        trace_cycles: Optional[int] = None,
        manifest_path: Optional[os.PathLike] = None,
        metrics: Optional[MetricsRegistry] = None,
        status_path: Optional[os.PathLike] = None,
        journal_path: Optional[os.PathLike] = None,
        resume: bool = False,
    ):
        #: The arguments as given.  :func:`configure` rebuilds from these, so
        #: a path *defaulted* from another option (the manifest and journal
        #: under ``trace_dir``) is derived again, never read back as chosen.
        self._options = {k: v for k, v in locals().items() if k != "self"}
        self.workers = max(1, int(workers))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        self.use_disk_cache = use_disk_cache
        #: Per-point wall-clock budget (seconds) when running on the pool;
        #: a point exceeding it is retried once in the parent process.
        self.timeout = timeout
        self.progress = progress
        #: Run every simulation with the runtime invariant sanitizer
        #: installed (``python -m repro --sanitize``).  Keys the cache
        #: separately from plain runs even though results are identical.
        self.sanitize = sanitize
        #: Trace every simulated point into this directory (``--trace``):
        #: stall attribution on, Chrome-trace JSON + events JSONL written
        #: per point.  Keys the cache separately — traced stats carry
        #: stall buckets.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.trace_cycles = trace_cycles
        #: Per-run JSONL telemetry (``repro.obs.RunManifest``).  Defaults
        #: to ``<trace_dir>/manifest.jsonl`` when tracing; pass an explicit
        #: path to audit untraced batches too.
        if manifest_path is None and self.trace_dir is not None:
            manifest_path = self.trace_dir / "manifest.jsonl"
        self.manifest: Optional[RunManifest] = (
            RunManifest(manifest_path) if manifest_path is not None else None
        )
        #: Optional run-level metrics registry (``repro.obs.metrics``).
        #: ``None`` (the default) is the zero-overhead path: every hook is
        #: an ``is not None`` test, no instrument exists, results are
        #: byte-identical to an uninstrumented run.
        self.metrics = metrics
        #: Optional live-health heartbeat: a status.json rewritten
        #: atomically while batches run (``repro.obs.heartbeat``).
        self.heartbeat: Optional[Heartbeat] = None
        if status_path is not None:
            from ..obs.heartbeat import Heartbeat

            self.heartbeat = Heartbeat(str(status_path))
        #: Crash-safe run journal (``repro.obs.journal``): one atomically
        #: appended line per settled point.  Defaults to
        #: ``<trace_dir>/journal.jsonl`` when tracing, like the manifest.
        if journal_path is None and self.trace_dir is not None:
            journal_path = self.trace_dir / "journal.jsonl"
        self.journal: Optional[RunJournal] = None
        #: ``--resume``: journaled ``key -> digest`` checkpoints from the
        #: interrupted run.  Disk hits matching a checkpoint count as
        #: resumed; mismatches warn (``journal_mismatch``) and re-simulate.
        self.resume = resume
        self._resume_digests: Dict[str, str] = {}
        if journal_path is not None:
            from ..obs.journal import RunJournal, load_journal

            self.journal = RunJournal(journal_path)
            if resume:
                self._resume_digests = load_journal(self.journal.path)
        #: The on-disk result cache: ``<key>.json`` under the storage rule.
        self._disk = ContentStore(
            self.cache_dir,
            suffix=".json",
            site="result",
            what="result-cache",
            binary=False,
            on_event=self._store_event,
        )
        #: Circuit-breaker state (see ``docs/robustness.md``): consecutive
        #: chunk failures feed the serial fallback, which warns exactly once.
        self._pool_failures = 0
        self._circuit_open = False
        self._seen_code_notes: set = set()
        self.profile = EngineProfile()
        self._mem: Dict[str, SimStats] = {}
        #: point -> key, for this engine's lifetime: figures share points
        #: (the Fig. 1 baselines are the Fig. 9/10 denominators).
        self._keys: Dict[SimPoint, str] = {}

    @property
    def trace(self) -> bool:
        return self.trace_dir is not None

    def _point_key(self, point: SimPoint) -> str:
        key = self._keys.get(point)
        if key is None:
            key = point_key(point, sanitize=self.sanitize, trace=self.trace)
            self._keys[point] = key
        return key

    def _record(
        self,
        point: SimPoint,
        key: str,
        source: str,
        stats: SimStats,
        seconds: Optional[float] = None,
        worker: Optional[int] = None,
        trace: Optional[str] = None,
        dropped: int = 0,
    ) -> None:
        self._count("point", source)
        if self.manifest is None:
            return
        self.manifest.record(
            point.label(),
            key,
            source,
            stats_digest(stats.to_payload()),
            seconds=seconds,
            worker=worker,
            trace=trace,
            dropped=dropped,
        )

    def _warn(self, kind: str, detail: str, point: Optional[str] = None) -> None:
        """One degradation-ladder step: manifest warning + metrics counter."""
        self._count("degradation", kind)
        if self.manifest is not None:
            self.manifest.warn(kind, detail, point=point)

    def _store_event(self, kind: str, detail: str) -> None:
        """What the result cache reports: count it, warn on a ladder step."""
        if kind == "cache_error":
            self.profile.disk_errors += 1
            return
        if kind == "cache_quarantine":
            self.profile.quarantines += 1
        self._warn(kind, detail)

    def _settle(self, point: SimPoint, key: str, stats: SimStats) -> None:
        """Persist one freshly simulated point the moment it arrives.

        Memory cache, disk cache, then the journal checkpoint — in that
        order, so a key is journaled only after the result it names is
        durable.  Called per point as pool chunks settle (not after the
        whole batch), which is what makes a crash at point 900/1000 lose
        at most the in-flight points.
        """
        self._mem[key] = stats
        self._store_disk(key, point, stats)
        self._journal_point(point, key, stats)

    def _journal_point(self, point: SimPoint, key: str, stats: SimStats) -> None:
        if self.journal is None:
            return
        try:
            self.journal.record(key, stats_digest(stats.to_payload()), point.label())
        except OSError:
            self.profile.disk_errors += 1
            return
        chaos_trip("journal", key, path=str(self.journal.path))

    # -- cache plumbing ----------------------------------------------------

    def memory_cache_size(self) -> int:
        return len(self._mem)

    def clear_memory(self) -> None:
        self._mem.clear()

    def cache_path(self, key: str) -> Path:
        return self._disk.path(key)

    def _load_disk(self, key: str) -> Optional[SimStats]:
        if not self.use_disk_cache:
            return None
        return self._disk.load(key, _decode_result)

    def _store_disk(self, key: str, point: SimPoint, stats: SimStats) -> None:
        def encode(fh) -> None:
            # Kernel spec and overrides only when set: a plain point's entry
            # keeps the bytes it had before those fields existed.
            fields = {k: v for k, v in dataclasses.asdict(point).items() if v != ()}
            doc = {"schema": CACHE_SCHEMA, "point": fields, "stats": stats.to_payload()}
            json.dump(doc, fh, sort_keys=True)

        if self.use_disk_cache:
            self._disk.store(key, encode)

    # -- execution ---------------------------------------------------------

    def _resume_ok(self, point: SimPoint, key: str, stats: SimStats) -> bool:
        """Cross-check a disk hit against its journaled checkpoint.

        Only meaningful on ``--resume`` runs: a hit whose digest matches
        the journal counts as resumed; a mismatch means the cache changed
        underneath the journal (corruption, a foreign writer), so the
        point re-simulates and the discrepancy is warned, not hidden.
        """
        expected = self._resume_digests.get(key)
        if expected is None:
            return True
        if expected == stats_digest(stats.to_payload()):
            self.profile.resumed += 1
            return True
        self._warn(
            "journal_mismatch",
            f"cached digest for {point.label()} no longer matches its "
            "journaled checkpoint; re-simulating",
            point=point.label(),
        )
        return False

    def _lookup(self, point: SimPoint) -> Tuple[str, Optional[SimStats]]:
        """A point's key and its cached stats (memory, then disk), or None.

        Counts the hit or miss and records a hit in the manifest; a disk
        hit is promoted to the memory cache.
        """
        key = self._point_key(point)
        hit = self._mem.get(key)
        if hit is not None:
            self.profile.mem_hits += 1
            self._record(point, key, "memory", hit)
            return key, hit
        stats = self._load_disk(key)
        if stats is not None and self._resume_ok(point, key, stats):
            self.profile.disk_hits += 1
            self._mem[key] = stats
            self._record(point, key, "disk", stats)
            return key, stats
        self.profile.misses += 1
        return key, None

    def run_point(self, point: SimPoint) -> SimStats:
        """Resolve one point (memory cache → disk cache → simulate)."""
        key, stats = self._lookup(point)
        if stats is None:
            stats = self._run_serial([(point, key)], "sim")[point]
        return stats

    def run_many(self, points: Iterable[SimPoint]) -> Dict[SimPoint, SimStats]:
        """Resolve a batch of points, fanning cache misses out over workers.

        Returns a dict covering every *distinct* point in ``points``.
        """
        ordered = list(dict.fromkeys(points))

        batch_t0 = time.perf_counter()
        hb = self.heartbeat
        if hb is not None:
            hb.begin(len(ordered), in_flight=len(ordered))

        results: Dict[SimPoint, SimStats] = {}
        missing: List[Tuple[SimPoint, str]] = []
        scan_t0 = time.perf_counter()
        for p in ordered:
            key, stats = self._lookup(p)
            if stats is None:
                missing.append((p, key))
                continue
            results[p] = stats
            if hb is not None:
                hb.advance(done=1)
        self._metric_phase("cache-load", time.perf_counter() - scan_t0)

        if missing:
            use_pool = (
                self.workers > 1
                and len(missing) > 1
                and not self._circuit_open
            )
            restore_term = self._install_sigterm()
            try:
                if use_pool:
                    simulated = self._run_pool(missing)
                else:
                    simulated = self._run_serial(missing, "sim")
                # Hits first, then misses in request order — never the
                # pool's completion order.
                for p, _ in missing:
                    results[p] = simulated[p]
            except KeyboardInterrupt:
                self._interrupted()
                raise
            finally:
                self._restore_sigterm(restore_term)

        self._metric_batch(len(ordered), time.perf_counter() - batch_t0)
        if hb is not None:
            hb.finish()
        return results

    # -- interrupt handling --------------------------------------------------

    @staticmethod
    def _sigterm_to_interrupt(signum, frame):
        raise KeyboardInterrupt()

    def _install_sigterm(self):
        """Route SIGTERM through the KeyboardInterrupt path while a batch runs.

        Only possible from the main thread (a CPython restriction); from
        anywhere else — or when signals are unavailable — the run keeps
        default delivery and returns ``None``.  The previous handler is
        wrapped in a tuple so ``SIG_DFL`` (which is falsy) restores
        correctly.
        """
        if threading.current_thread() is not threading.main_thread():
            return None
        try:
            previous = signal.signal(signal.SIGTERM, self._sigterm_to_interrupt)
        except (ValueError, OSError):
            return None
        return (previous,)

    def _restore_sigterm(self, token) -> None:
        if token is None:
            return
        try:
            signal.signal(signal.SIGTERM, token[0])
        except (ValueError, OSError):
            pass

    def _interrupted(self) -> None:
        """Flush telemetry on Ctrl-C/SIGTERM: the run ends loudly, not torn.

        Every settled point is already on disk and in the journal
        (:meth:`_settle` runs per arrival), so all that remains is to say
        so: a structured manifest warning, a metrics counter, and a final
        heartbeat with state ``interrupted``.
        """
        self._progress_end()
        self._warn(
            "interrupted",
            "batch interrupted by signal; settled points are journaled "
            "and a re-run with --resume completes only the rest",
        )
        if self.heartbeat is not None:
            self.heartbeat.interrupt()

    # -- execution backends --------------------------------------------------

    def _sim_kwargs(self) -> dict:
        return {
            "sanitize": self.sanitize,
            "trace_dir": str(self.trace_dir) if self.trace_dir else None,
            "trace_cycles": self.trace_cycles,
            # The compiled-trace code cache lives beside the stats cache
            # and is disabled with it: --no-cache runs build in memory.
            "code_cache_dir": (
                str(self.cache_dir / "trace-code") if self.use_disk_cache else None
            ),
        }

    def _note_code(self, point: SimPoint, code_source: str, worker: int) -> None:
        """Account one point's compiled-code resolution (profile + manifest).

        In-process memo hits (``"memory"``) are the steady state inside an
        app-affinity chunk and are not recorded; compiles and disk loads
        are, as ``trace:<app>`` manifest entries keyed by the artifact's
        content address.  Without a disk cache there is no durable
        artifact to cite, so only the profile counter is kept.
        """
        if code_source == "memory":
            return
        self._count("code", code_source)
        if code_source == "compile":
            self.profile.code_compiles += 1
        elif code_source == "disk":
            self.profile.code_loads += 1
        if self.manifest is None or not self.use_disk_cache:
            return
        config = resolved_config(point)
        key = compiled_code_key(
            point.app, config.bank_mapping, config.rf_banks_per_subcore, point.kernel
        )
        self.manifest.record(
            f"trace:{point.app}", key, code_source, key[:16], worker=worker
        )

    def _code_notes(self, notes: Sequence[Tuple[str, str]]) -> None:
        """Surface trace-code cache degradation events from workers.

        Each worker process quarantines and degrades independently;
        identical (kind, detail) pairs from different workers collapse
        into one structured warning so a 16-worker pool on a read-only
        cache warns once, not sixteen times.
        """
        for kind, detail in notes:
            if (kind, detail) in self._seen_code_notes:
                continue
            self._seen_code_notes.add((kind, detail))
            self._warn(kind, detail)

    def _absorb(
        self, point: SimPoint, key: str, result: tuple, source: str
    ) -> SimStats:
        """Take one ``_simulate_point`` result into the engine, then settle it.

        Worker notes, code accounting, profile, manifest record — then
        :meth:`_settle`, so nothing is journaled before it is recorded.
        """
        _, payload, secs, worker, trace_path, code_source, notes, dropped = result
        self._code_notes(notes)
        self._note_code(point, code_source, worker)
        self.profile.note_sim(point.label(), secs, worker)
        self.profile.trace_dropped += dropped
        stats = SimStats.from_payload(payload)
        self._record(point, key, source, stats, secs, worker, trace_path, dropped)
        self._settle(point, key, stats)
        return stats

    def _run_serial(
        self, missing: Sequence[Tuple[SimPoint, str]], source: str
    ) -> Dict[SimPoint, SimStats]:
        """Simulate ``(point, key)`` pairs in this process, settling each."""
        done: Dict[SimPoint, SimStats] = {}
        kwargs = self._sim_kwargs()
        phase = "retry" if source == "retry" else "simulate"
        for point, key in missing:
            result = _simulate_point(_shallow_fields(point), **kwargs)
            self._metric_phase(phase, result[2])
            done[point] = self._absorb(point, key, result, source)
            if self.heartbeat is not None:
                self.heartbeat.advance(done=1)
        return done

    def _make_pool(self, n: int) -> concurrent.futures.ProcessPoolExecutor:
        import concurrent.futures
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        return concurrent.futures.ProcessPoolExecutor(max_workers=n, mp_context=ctx)

    def _point_weights(self) -> Dict[str, float]:
        """Expected seconds per point label, for chunk load balancing.

        Sourced from past runs: the run manifest on disk first (it survives
        across engines pointed at the same manifest path), then this
        engine's own profile.  Points never timed before weigh 1.0.
        """
        weights: Dict[str, float] = {}
        if self.manifest is not None:
            try:
                for rec in read_manifest(self.manifest.path):
                    secs = rec.get("seconds")
                    if isinstance(secs, (int, float)):
                        weights[rec["point"]] = float(secs)
            except (OSError, ValueError):
                pass
        for label, secs in self.profile.point_seconds:
            weights.setdefault(label, secs)
        return weights

    def _plan_chunks(
        self, missing: Sequence[Tuple[SimPoint, str]]
    ) -> List[List[SimPoint]]:
        """Pack points into app-affinity chunks, one pool task each.

        All points of one app (one kernel spec) always share a chunk — the
        worker then synthesizes/loads that trace once and serves every
        design from its in-process memo.  The groups are LPT-packed
        (heaviest first, into the lightest bin) over at most ``workers``
        bins, weighted by expected per-point seconds from past
        :class:`~repro.obs.RunManifest` records, which evens out worker
        wall time when apps differ wildly in cost.  Ties break on the
        group's first label and bin index, keeping the plan deterministic.
        """
        weights = self._point_weights()
        groups: Dict[Tuple[str, Pairs], List[SimPoint]] = {}
        for p, _ in missing:
            groups.setdefault((p.app, p.kernel), []).append(p)

        def load(points: List[SimPoint]) -> float:
            return sum(weights.get(p.label(), 1.0) for p in points)

        ordered = sorted(groups.items(), key=lambda kv: (-load(kv[1]), kv[1][0].label()))
        bins = min(self.workers, len(ordered))
        chunks: List[List[SimPoint]] = [[] for _ in range(bins)]
        loads = [0.0] * bins
        for _, points in ordered:
            i = min(range(bins), key=lambda j: (loads[j], j))
            chunks[i].extend(points)
            loads[i] += load(points)
        return [c for c in chunks if c]

    def _run_pool(
        self, missing: Sequence[Tuple[SimPoint, str]]
    ) -> Dict[SimPoint, SimStats]:
        """Fan app-affinity chunks out over a worker pool; retry failures.

        Robustness contract: a worker crash (``BrokenProcessPool``), a
        chunk timeout (the per-point budget times the chunk's size), or a
        pool that cannot even be created never fails the batch — affected
        points are re-simulated once in the parent process, which either
        succeeds or raises the *real* error.  Consecutive chunk failures
        feed the circuit breaker: at :data:`CIRCUIT_THRESHOLD` the engine
        warns once (``circuit_open``) and later batches run serially.
        Every settled point is persisted and journaled on arrival.
        """
        import concurrent.futures

        _load_simulator()
        keymap = dict(missing)
        plan_t0 = time.perf_counter()
        chunks = self._plan_chunks(missing)
        self._metric_phase("plan", time.perf_counter() - plan_t0)
        hb = self.heartbeat
        try:
            pool = self._make_pool(len(chunks))
        except (OSError, ValueError):
            self._pool_failures = CIRCUIT_THRESHOLD
            self._open_circuit("worker pool could not be created")
            return self._run_serial(missing, "sim")

        done: Dict[SimPoint, SimStats] = {}
        failed: List[SimPoint] = []
        total = len(missing)
        try:
            pending: Dict[concurrent.futures.Future, int] = {}
            submitted = time.perf_counter()
            deadlines: Dict[int, Optional[float]] = {}
            try:
                for i, chunk in enumerate(chunks):
                    fut = pool.submit(
                        _simulate_chunk,
                        [_shallow_fields(p) for p in chunk],
                        **self._sim_kwargs(),
                    )
                    pending[fut] = i
                    budget = (
                        self.timeout * len(chunk)
                        if self.timeout is not None
                        else None
                    )
                    deadlines[i] = (
                        submitted + budget if budget is not None else None
                    )
                    if hb is not None:
                        hb.worker_started(
                            f"chunk-{i}",
                            hb.clock() + budget if budget is not None else None,
                        )
            except concurrent.futures.process.BrokenProcessPool:
                started = set(pending.values())
                for i, chunk in enumerate(chunks):
                    if i not in started:
                        failed.extend(chunk)

            # Poll instead of a blocking per-chunk join: each pass settles
            # every completed chunk, expires chunks past their deadline
            # (budget = per-point timeout × chunk size) with a structured
            # manifest warning, and refreshes the heartbeat — so a wedged
            # worker is visible the moment it goes stale, not at join.
            while pending:
                wait_for: Optional[float] = None
                now = time.perf_counter()
                live = [
                    deadlines[i] for i in pending.values()
                    if deadlines[i] is not None
                ]
                if live:
                    wait_for = max(0.0, min(live) - now)
                if hb is not None:
                    wait_for = (
                        hb.interval
                        if wait_for is None
                        else min(wait_for, hb.interval)
                    )
                ready, _ = concurrent.futures.wait(
                    list(pending),
                    timeout=wait_for,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = time.perf_counter()
                for fut in sorted(ready, key=lambda f: pending[f]):
                    i = pending.pop(fut)
                    chunk = chunks[i]
                    try:
                        results = fut.result()
                    except Exception:
                        # BrokenProcessPool or an error raised inside the
                        # worker — every point of the chunk is retried
                        # once in-parent, where a real simulation error
                        # surfaces undisturbed.
                        failed.extend(chunk)
                        self._chunk_failed(
                            "chunk_crash", i, chunk, "raised in a worker"
                        )
                    else:
                        elapsed = now - submitted
                        self._metric_phase("simulate", elapsed)
                        self._pool_failures = 0
                        for p, res in zip(chunk, results):
                            done[p] = self._absorb(p, keymap[p], res, "sim")
                        if hb is not None:
                            hb.advance(done=len(chunk))
                    if hb is not None:
                        hb.worker_finished(f"chunk-{i}")
                    self._progress_line(len(done) + len(failed), total)
                for fut in sorted(pending, key=lambda f: pending[f]):
                    i = pending[fut]
                    deadline = deadlines[i]
                    if deadline is None or now <= deadline:
                        continue
                    # Past its budget with no result: the worker is
                    # wedged (or the budget too tight).  Record the
                    # stall in the manifest while the run is still in
                    # flight, abandon the chunk and retry in-parent.
                    pending.pop(fut)
                    fut.cancel()
                    chunk = chunks[i]
                    failed.extend(chunk)
                    budget = self.timeout * len(chunk)
                    self._chunk_failed(
                        "chunk_timeout", i, chunk, f"exceeded its {budget:.3g}s budget"
                    )
                    self._progress_line(len(done) + len(failed), total)
                if hb is not None:
                    hb.stale_workers()
                    hb.write()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            self._progress_end()

        self.profile.retries += len(failed)
        done.update(self._run_serial([(p, keymap[p]) for p in failed], "retry"))
        return done

    def _chunk_failed(
        self, kind: str, i: int, chunk: Sequence[SimPoint], what: str
    ) -> None:
        """One failed pool chunk: count it (circuit breaker at N), say why."""
        self._pool_failures += 1
        if self._pool_failures >= CIRCUIT_THRESHOLD:
            self._open_circuit(f"{self._pool_failures} consecutive pool chunk failures")
        if self.manifest is not None:
            self.manifest.warn(
                kind,
                f"chunk {i} ({chunk[0].app}, {len(chunk)} points) {what}; "
                "retrying in parent",
                point=f"chunk:{chunk[0].app}",
            )

    def _open_circuit(self, why: str) -> None:
        if self._circuit_open:
            return
        self._circuit_open = True
        self._warn(
            "circuit_open",
            f"{why}; falling back to serial in-process execution",
        )

    # -- observability -------------------------------------------------------

    def _count(self, family: str, value: str) -> None:
        """Increment one of the engine's labelled counters (:data:`_COUNTERS`)."""
        if self.metrics is None:
            return
        name, help_text, label = _COUNTERS[family]
        self.metrics.counter(name, help_text, (label,)).labels(**{label: value}).inc()

    def _metric_phase(self, phase: str, secs: float) -> None:
        """Observe one engine phase span (plan/cache-load/simulate/retry)."""
        if self.metrics is None:
            return
        self.metrics.histogram(
            "repro_engine_phase_seconds",
            "Wall time of engine phases, per chunk or batch.",
            ("phase",),
        ).labels(phase=phase).observe(secs)

    def _metric_batch(self, points: int, elapsed: float) -> None:
        """Publish batch-level gauges after :meth:`run_many` settles."""
        if self.metrics is None:
            return
        prof = self.profile
        self.metrics.gauge(
            "repro_engine_cache_hit_ratio",
            "Fraction of point lookups served from a cache (0..1).",
        ).set(prof.hit_rate())
        self.metrics.gauge(
            "repro_engine_worker_skew",
            "Max/mean ratio of per-worker simulation wall time (1.0 = even).",
        ).set(prof.worker_skew())
        if elapsed > 0:
            self.metrics.gauge(
                "repro_engine_points_per_sec",
                "Points resolved per wall-clock second over the last batch.",
            ).set(points / elapsed)
        seconds = self.metrics.gauge(
            "repro_engine_worker_seconds_total",
            "Simulation wall time accumulated per worker process.",
            ("worker",),
        )
        for worker in sorted(prof.worker_seconds):
            seconds.labels(worker=str(worker)).set(prof.worker_seconds[worker])

    def _progress_line(self, done: int, total: int) -> None:
        if self.progress:
            prof = self.profile
            sys.stderr.write(
                f"\r[engine] {done}/{total} points "
                f"(hits {prof.hits}, sims {prof.sims}, retries {prof.retries})"
            )
            sys.stderr.flush()

    def _progress_end(self) -> None:
        if self.progress:
            sys.stderr.write("\n")
            sys.stderr.flush()

    def profile_summary(self) -> str:
        return self.profile.summary()


# -- the process-wide engine every figure module runs on ---------------------

_engine = ExperimentEngine()


def get_engine() -> ExperimentEngine:
    """The process-wide engine (replaced by :func:`configure`)."""
    return _engine


def configure(**options) -> ExperimentEngine:
    """Replace the process-wide engine; unspecified knobs keep their values.

    Takes :class:`ExperimentEngine`'s keywords; ``None`` keeps what the
    current engine was constructed with.  The memory cache starts empty on
    the new engine; the disk cache is shared through the filesystem, so
    previously stored results remain visible (keys are content-addressed
    and engine-independent).
    """
    global _engine
    given = {name: value for name, value in options.items() if value is not None}
    _engine = ExperimentEngine(**{**_engine._options, **given})
    return _engine
