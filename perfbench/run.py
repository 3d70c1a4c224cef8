"""One workload, one run, one process: the entry point ``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints the workload's report section, then, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the four end-to-end metrics every workload reports (``--trace 0``) or
every per-layer metric (``--trace 1``).  ``python -m perfbench`` runs
this file once per workload and pass (``--section`` hands the full
section back).  Exits non-zero without a result when the simulator's
sources are not beside it.
"""

import sys
import time

_T0 = time.perf_counter()

import argparse
import json
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
if not (_REPO / "src" / "repro" / "__init__.py").is_file():
    sys.exit("perfbench/run.py: src/repro is not in this checkout; nothing to measure")
sys.path[:0] = [str(_REPO), str(_REPO / "src")]

from perfbench import report, spec, workloads  # noqa: E402  (after the path set-up)
from perfbench.harness import run_workload  # noqa: E402


def driver_metrics(section: dict) -> dict:
    """Project a section onto the metric lists of ``BENCHMARK.json``."""
    if section["traced"]:
        return section["layers"]
    got = section["metrics"]
    out = {}
    for name, metric in spec.DRIVER_END_TO_END.items():
        source = spec.WORK_METRIC[section["workload"]] if name == "work_per_s" else name
        out[name] = {"value": got[source]["value"], "unit": metric.unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--section", help="also write the full report section to this file")
    args = parser.parse_args(argv)

    section = run_workload(
        workloads.make(args.workload, args.smoke),
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        workers=args.workers,
        import_s=time.perf_counter() - _T0,
    )
    if args.section:
        Path(args.section).write_text(json.dumps(section))
    stamp = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "traced": bool(args.trace)}
    print(report.render(report.assemble({args.workload: section}, stamp)))
    print(
        json.dumps(
            {
                "correct": section["failed"] == 0,
                "attempted": section["attempted"],
                "failed": section["failed"],
                "metrics": driver_metrics(section),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
