"""The 112-application registry.

Mirrors the paper's evaluation population: 44 TPC-H queries (22 x two
database flavours) plus 68 apps from cuGraph, Parboil, Rodinia, Polybench,
DeepBench and Cutlass.  ``SENSITIVE_APPS`` is the Table III subset used by
the Fig. 10/12 summary plots; ``RF_SENSITIVE_APPS`` is the read-operand-
limited sub-population of Fig. 11/14.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict
from functools import lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

# Profiles and names are all a cache hit reads from here; synthesis, lowering
# and the code cache are imported by the functions that build a kernel.
from .profiles import PROFILE_VERSION, AppProfile
from .suites import all_suite_profiles
from .tpch import all_tpch_profiles

if TYPE_CHECKING:
    from ..trace.kernel_trace import KernelTrace

#: Number of applications the paper evaluates.
EXPECTED_APP_COUNT = 112

#: Table III — applications particularly sensitive to SM core partitioning.
SENSITIVE_APPS = (
    "tpcU-q8",
    "tpcC-q9",
    "pb-mriq",
    "pb-mrig",
    "pb-sad",
    "pb-sgemm",
    "pb-cutcp",
    "cutlass-4096",
    "rod-lavaMD",
    "rod-bp",
    "rod-srad",
    "rod-htsp",
    "cg-lou",
    "cg-bfs",
    "cg-sssp",
    "cg-pgrnk",
    "cg-wcc",
    "cg-katz",
    "cg-hits",
    "ply-2Dcon",
    "ply-3Dcon",
    "db-conv-tr",
    "db-conv-inf",
    "db-rnn-tr",
    "db-rnn-inf",
)

#: Apps limited by the read-operand stage (Fig. 11 / Fig. 14 population).
RF_SENSITIVE_APPS = (
    "pb-mriq",
    "pb-mrig",
    "pb-sgemm",
    "rod-lavaMD",
    "rod-bp",
    "rod-srad",
    "rod-htsp",
    "cg-lou",
    "cg-bfs",
    "cg-sssp",
    "cg-pgrnk",
    "cg-wcc",
    "cg-katz",
    "cg-hits",
    "ply-2Dcon",
    "ply-3Dcon",
)

#: Compute-bound apps that scale with SM count (Fig. 18 population).
COMPUTE_BOUND_APPS = (
    "pb-sgemm",
    "pb-cutcp",
    "pb-sad",
    "cutlass-4096",
    "cutlass-2048",
    "rod-lavaMD",
    "ply-gemm",
    "ply-2mm",
    "db-gemm-tr",
    "db-conv-tr",
)


@lru_cache(maxsize=1)
def all_profiles() -> Dict[str, AppProfile]:
    """All 112 application profiles, keyed by name."""
    out: Dict[str, AppProfile] = {}
    out.update(all_tpch_profiles())
    out.update(all_suite_profiles())
    if len(out) != EXPECTED_APP_COUNT:
        raise RuntimeError(
            f"registry has {len(out)} apps; expected {EXPECTED_APP_COUNT}"
        )
    return out


def get_profile(name: str) -> AppProfile:
    try:
        return all_profiles()[name]
    except KeyError:
        raise KeyError(f"unknown application {name!r}") from None


def get_kernel(name: str) -> KernelTrace:
    """Synthesize the kernel trace of a registered application."""
    from .synth import build_kernel

    return build_kernel(get_profile(name))


#: Sorted ``(name, value)`` pairs: a simulation point's kernel spec (see
#: :func:`kernel_source`) or its ``GPUConfig`` overrides.
Pairs = Tuple[Tuple[str, Any], ...]


def kernel_source(name: str, kernel: Pairs = ()) -> Tuple[Hashable, Callable]:
    """A kernel spec's ``(identity, build)``.

    ``name`` is a registry app with :meth:`AppProfile.variant` fields in
    ``kernel`` (identity: the resolved profile), or a builder of
    :data:`~repro.workloads.microbench.BUILDERS` with its arguments
    (identity: name and pairs); only a builder imports the builder table.
    """
    profile = all_profiles().get(name)
    if profile is not None:
        profile = profile.variant(**dict(kernel)) if kernel else profile
        return profile, partial(_synthesize, profile)
    from .microbench import BUILDERS

    if name not in BUILDERS:
        raise KeyError(f"unknown application or kernel builder {name!r}")
    return (name, kernel), partial(BUILDERS[name], **dict(kernel))


def _synthesize(profile: AppProfile) -> KernelTrace:
    from .synth import build_kernel

    return build_kernel(profile)


def _code_payload(identity: Hashable) -> dict:
    """The content a kernel spec's code key hashes: profile or builder call."""
    if isinstance(identity, AppProfile):
        return asdict(identity)
    name, kernel = identity
    return {"builder": name, "params": dict(kernel)}


def compiled_code_key(
    name: str, mapping_name: str, num_banks: int, kernel: Pairs = ()
) -> str:
    """Content-address of a kernel spec's compiled code for a bank layout.

    The key any :func:`get_compiled_kernel` disk entry is stored under;
    exposed so the experiment engine can cite it in run manifests without
    rebuilding the artifact.
    """
    from ..trace.code_cache import code_key

    payload = _code_payload(kernel_source(name, kernel)[0])
    return code_key(PROFILE_VERSION, payload, mapping_name, num_banks)


#: Most compiled kernels :data:`_COMPILED_MEMO` keeps.  An app-affinity
#: chunk runs each kernel spec's points back to back, and no figure gives
#: one spec more than three bank layouts (``subcore-granularity``'s 8/4/2
#: banks, the mapping ablation's three mappings); perfbench's obs-overhead
#: fills two kernels before timing.  Eight covers both with room, and keeps
#: a pool worker's compiled code at a few MB however many apps it meets.
COMPILED_MEMO_SIZE = 8

#: In-process compiled-kernel memo, least recently used first: (name,
#: kernel spec, mapping, num_banks) → KernelTrace.  Registry profiles are
#: constants within a process, so the spec names the resolved profile and a
#: variant never meets the plain app's kernel; an engine worker running one
#: app under many designs compiles/loads it once.
_COMPILED_MEMO: OrderedDict[Tuple[str, Pairs, str, int], KernelTrace] = OrderedDict()


def get_compiled_kernel(
    name: str,
    mapping_name: str,
    num_banks: int,
    cache_dir: Optional[Path] = None,
    use_disk: bool = True,
    kernel: Pairs = (),
) -> Tuple[KernelTrace, str]:
    """A kernel spec's trace (:func:`kernel_source`) with compiled code attached.

    Resolution order: in-process memo of the :data:`COMPILED_MEMO_SIZE`
    most recently used kernels (``source="memory"``), the
    content-addressed disk cache (``"disk"``; default location
    :func:`repro.trace.default_cache_dir`, pass ``cache_dir`` to redirect
    or ``use_disk=False`` to skip it), else build + compile + store
    (``"compile"``).  The disk key covers ``PROFILE_VERSION``, the full
    profile (or builder) payload, the bank-mapping name and the bank
    count, so any of them changing invalidates the entry.
    """
    memo_key = (name, kernel, mapping_name, num_banks)
    cached = _COMPILED_MEMO.get(memo_key)
    if cached is not None:
        _COMPILED_MEMO.move_to_end(memo_key)
        return cached, "memory"

    identity, build = kernel_source(name, kernel)

    from ..regalloc.bank_mapping import get_mapping
    from ..trace.code_cache import code_key, default_cache_dir, get_or_build
    from ..trace.compiled import compile_kernel

    mapper = get_mapping(mapping_name)
    key = code_key(PROFILE_VERSION, _code_payload(identity), mapping_name, num_banks)

    def _build() -> KernelTrace:
        built = build()
        compile_kernel(built, mapper, num_banks)
        return built

    disk_dir: Optional[Path] = None
    if use_disk:
        disk_dir = cache_dir if cache_dir is not None else default_cache_dir()
    compiled, source = get_or_build(disk_dir, key, _build)
    _COMPILED_MEMO[memo_key] = compiled
    if len(_COMPILED_MEMO) > COMPILED_MEMO_SIZE:
        _COMPILED_MEMO.popitem(last=False)
    return compiled, source


def app_names(suite: str | None = None) -> List[str]:
    """All app names, optionally filtered by suite."""
    profiles = all_profiles()
    if suite is None:
        return sorted(profiles)
    names = sorted(n for n, p in profiles.items() if p.suite == suite)
    if not names:
        # str is totally ordered; the explicit key documents that.
        suites = sorted({p.suite for p in profiles.values()}, key=str)
        raise KeyError(f"unknown suite {suite!r}; options: {suites}")
    return names


def suites() -> List[str]:
    # str is totally ordered; the explicit key documents that.
    return sorted({p.suite for p in all_profiles().values()}, key=str)
