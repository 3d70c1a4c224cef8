"""``repro.bench``: the simulator's performance-trajectory harness.

Runs a pinned micro/macro point set (:mod:`repro.bench.suite`), times
each point, and emits a machine-readable ``BENCH_*.json`` report with
wall time, simulated cycles/sec, a calibration-normalized throughput
figure, and an optional per-stage (stall-bucket) breakdown from the
``repro.obs`` hooks.  ``python -m repro.bench --help`` for the CLI;
docs/performance.md for how to read the reports.

The committed ``BENCH_baseline.json`` at the repo root is the reference
the CI ``bench-smoke`` job gates against; ``BENCH_pr<N>.json`` files
record the trajectory across PRs.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .compare import Comparison, compare_reports
    from .harness import REPORT_SCHEMA, calibrate, run_point, run_suite, summary
    from .schema import validate_report
    from .suite import (
        FULL_SUITE,
        QUICK_SUITE,
        SUITE_VERSION,
        SUITES,
        BenchPoint,
        get_suite,
    )

__all__ = lazy_package(
    __name__,
    {
        "compare": ["Comparison", "compare_reports"],
        "harness": ["REPORT_SCHEMA", "calibrate", "run_point", "run_suite", "summary"],
        "schema": ["validate_report"],
        "suite": [
            "FULL_SUITE", "QUICK_SUITE", "SUITE_VERSION", "SUITES", "BenchPoint",
            "get_suite",
        ],
    },
)
