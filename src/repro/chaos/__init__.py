"""Deterministic fault injection for the experiment engine (``repro.chaos``).

The engine fans 112-app figure sweeps across process pools with two disk
caches; this package is how its failure handling is *verified* rather
than spot-fixed.  A seeded :class:`FaultPlan` describes which faults
fire where — worker crashes, hangs, slow workers, cache-entry corruption
on read or write, ``OSError`` on store, and hard process kills — and is
activated through an environment variable, so engine worker processes
inherit it with no extra plumbing (:mod:`repro.chaos.hooks`).

Because plans are deterministic (hash draws, per-process counters, no
RNG, no wall clock), chaos runs have a stronger oracle than "survived":
**every fault class must produce byte-identical stats digests to a
fault-free run**, and a killed-then-resumed batch must re-simulate only
the points missing from its run journal.  ``python -m repro.chaos
--smoke`` gates exactly that in CI; see ``docs/robustness.md`` for the
failure model and the degradation ladder the faults exercise.

CLI::

    python -m repro.chaos --smoke          # fault matrix, digest oracle
    python -m repro.chaos --kill-resume    # SIGKILL mid-batch, then --resume
    python -m repro.chaos --list           # fault classes and sites
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .hooks import (
        PARENT_ENV,
        PLAN_ENV,
        ChaosFault,
        active_plan,
        clear_plan,
        install_plan,
        reset,
        trip,
    )
    from .plan import (
        FAULTS,
        PLAN_SCHEMA_VERSION,
        SITES,
        FaultPlan,
        FaultRule,
        plan_from_json,
        plan_loads,
        single_fault_plan,
        validate_plan,
    )

__all__ = lazy_package(
    __name__,
    {
        "hooks": [
            "PARENT_ENV", "PLAN_ENV", "ChaosFault", "active_plan", "clear_plan",
            "install_plan", "reset", "trip",
        ],
        "plan": [
            "FAULTS", "PLAN_SCHEMA_VERSION", "SITES", "FaultPlan", "FaultRule",
            "plan_from_json", "plan_loads", "single_fault_plan", "validate_plan",
        ],
    },
)
