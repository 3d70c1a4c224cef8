"""Static and dynamic correctness checking for the simulator ("simcheck").

Three layers, one contract (see ``docs/determinism.md`` and
``docs/static_analysis.md``):

* :mod:`repro.analysis.linter` — an AST-based **determinism linter**
  (rules RPR001..RPR006) that flags the hazard classes known to corrupt
  cycle-level simulation results: hash-ordered iteration, unkeyed sorts of
  hash-derived containers, unseeded RNG use, wall-clock reads, ``id()`` /
  ``hash()`` values, and mutable default arguments.
* :mod:`repro.analysis.passes` — **whole-program analysis passes** over a
  shared project model (:mod:`~repro.analysis.project`) and call graph
  (:mod:`~repro.analysis.callgraph`): RPR1xx hot-path discipline, RPR2xx
  reset-completeness, RPR3xx version/schema drift.  Findings export as
  text, GitHub annotations and SARIF (:mod:`~repro.analysis.sarif`).
* :mod:`repro.analysis.invariants` — an opt-in **runtime invariant
  sanitizer** (``GPUConfig.sanitize=True``) installing per-cycle
  conservation checks across the core model; violations raise a
  structured :class:`InvariantViolation` naming the cycle, SM, sub-core
  and counter.

Run them from the command line::

    python -m repro.analysis --lint src/repro       # determinism gate (CI)
    python -m repro.analysis --check-all src/repro  # whole-program gate (CI)
    python -m repro.analysis --sanitize-smoke       # dynamic gate (CI)

The sanitizer smoke grid lives in :mod:`repro.analysis.smoke`; it and the
whole-program passes are imported lazily because they pull in more of the
package, while the linter half must stay importable from
:mod:`repro.core` without cycles.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .invariants import InvariantViolation, Sanitizer
    from .linter import Finding, LintReport, lint_paths, lint_source
    from .rules import RULES, Rule, all_rules, get_rule, register_rules

__all__ = lazy_package(
    __name__,
    {
        "invariants": ["InvariantViolation", "Sanitizer"],
        "linter": ["Finding", "LintReport", "lint_paths", "lint_source"],
        "rules": ["RULES", "Rule", "all_rules", "get_rule", "register_rules"],
    },
)
