"""Static and dynamic correctness checking for the simulator ("simcheck").

Two layers, one contract (see ``docs/determinism.md`` and
``docs/static_analysis.md``):

* :mod:`repro.analysis.passes` — the **static gate**: the hot-path pass
  over a project model (:mod:`~repro.analysis.project`) and call graph
  (:mod:`~repro.analysis.callgraph`).  RPR101–103 keep allocation,
  ``try`` in loops and re-read attribute chains out of the cycle-hot
  call graph, and RPR104 keeps ``# simcheck:`` annotations honest.  A
  per-cycle cost is the one defect no output oracle (pinned digests,
  keys, profiles, traces) sees; the ledger in ``docs/static_analysis.md``
  records why each earlier rule went.
* :mod:`repro.analysis.invariants` — an opt-in **runtime invariant
  sanitizer** (``GPUConfig.sanitize=True``) installing per-cycle
  conservation checks across the core model; violations raise a
  structured :class:`InvariantViolation` naming the cycle, SM, sub-core
  and counter.

Run them from the command line::

    python -m repro.analysis --check-all src/repro  # static gate (CI)
    python -m repro.analysis --sanitize-smoke       # dynamic gate (CI)

The sanitizer smoke grid lives in :mod:`repro.analysis.smoke`; it and the
passes are imported lazily because they pull in more of the package,
while the sanitizer must stay importable from :mod:`repro.core` without
cycles.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .invariants import InvariantViolation, Sanitizer
    from .passes import RULES, Finding, Rule, run_project_passes

__all__ = lazy_package(
    __name__,
    {
        "invariants": ["InvariantViolation", "Sanitizer"],
        "passes": ["Finding", "RULES", "Rule", "run_project_passes"],
    },
)
