"""Command-line entry point: regenerate paper figures by name.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig10               # run one experiment, print its rows
    python -m repro fig15 fig16 fig17   # several in one process (shared cache)
    python -m repro all                 # everything (slow)

Engine options (see repro.experiments.engine)::

    --workers N      # worker processes for simulation fan-out
                     # (default: all CPUs; 1 = serial)
    --cache-dir DIR  # on-disk result cache location
                     # (default: $REPRO_CACHE_DIR or ~/.cache/repro-sim)
    --no-cache       # disable the on-disk result cache
    --profile        # print cache hit/miss counters and slowest points
    --sanitize       # run every simulation with the runtime invariant
                     # sanitizer installed (see repro.analysis); results
                     # are identical, runs are slower and cached apart

Observability options (see repro.obs and docs/observability.md)::

    --trace            # trace every simulated point: Chrome-trace JSON +
                       # events JSONL per point, plus a run manifest
                       # (manifest.jsonl); stats gain stall-attribution
                       # buckets and are cached apart from untraced runs
    --trace-dir DIR    # where trace files go (default: repro-traces;
                       # implies --trace)
    --trace-cycles N   # only record events of the first N cycles
    --profile-report APP[:DESIGN]
                       # simulate one point and print its profiler-style
                       # breakdown; with --trace it includes the stacked
                       # stall-attribution chart
    --manifest PATH    # append run-manifest records (cache hits, sims,
                       # retries, structured warnings) to PATH without
                       # paying for full event tracing
    --metrics-dir DIR  # write metrics.json there at exit: the engine
                       # profile (points and code artifacts by source,
                       # degradations, phase times, per-worker seconds)
                       # as of the end of the last batch
    --status-file PATH # write an atomic status.json heartbeat while
                       # batches run (done/failed/in-flight, per-worker
                       # last progress, ETA)

Robustness options (see docs/robustness.md)::

    --journal PATH     # append a crash-safe journal line per completed
                       # point (key + stats digest); the durable record
                       # of a batch's progress (default when tracing:
                       # <trace-dir>/journal.jsonl)
    --resume           # cross-check disk-cached results against the
                       # journal and re-simulate only points the journal
                       # does not cover; implies --journal (default
                       # path: repro-journal.jsonl).  Use after a crash,
                       # kill or Ctrl-C ended a batch early
"""

from __future__ import annotations

import os
import sys
from importlib import import_module

#: Experiment name -> ``"module"`` or ``"module.ROW"`` under
#: ``repro.experiments``: a figure module, or a row of one, exposing
#: ``run()`` and ``format_result(result)``.  Only the modules of the names
#: requested are imported; ``list``, ``--help`` and an unknown name import
#: nothing beyond this file.
EXPERIMENTS: dict[str, str] = {
    "fig01": "speedups.FIG01",
    "fig03": "fig03_fma_imbalance",
    "fig08": "fig08_imbalance_scaling",
    "fig09": "speedups.FIG09",
    "fig10": "speedups.FIG10",
    "fig11": "speedups.FIG11",
    "fig12": "speedups.FIG12",
    "fig13": "fig13_area_power",
    "fig14": "fig14_rf_utilization",
    "fig15": "speedups.FIG15",
    "fig16": "speedups.FIG16",
    "fig17": "fig17_issue_cov",
    "fig18": "fig18_sm_scaling",
    "cu-validation": "cu_validation",
    "rba-latency": "rba_latency",
    "rba-banks": "rba_banks",
    "hash-table": "hash_table_size",
    "headline": "headline",
    "ablation-mapping": "ablation_bank_mapping",
    "subcore-granularity": "subcore_granularity",
    "work-stealing": "work_stealing_study",
    "effect4": "effect4_concurrent",
    "ablation-scheduler": "ablation_baseline_scheduler",
}


def experiment_module(name: str):
    """Import the figure behind a registered experiment name: a module, or a
    row of one; either has ``run()`` and ``format_result(result)``."""
    module, _, row = EXPERIMENTS[name].partition(".")
    figure = import_module(f"{__package__}.experiments.{module}")
    return getattr(figure, row) if row else figure


class _CLIError(ValueError):
    pass


def _parse_args(args: list[str]) -> tuple[dict, list[str]]:
    """Split engine flags from experiment names."""
    opts = {
        "workers": None,
        "cache_dir": None,
        "no_cache": False,
        "profile": False,
        "sanitize": False,
        "trace": False,
        "trace_dir": None,
        "trace_cycles": None,
        "profile_report": None,
        "manifest": None,
        "metrics_dir": None,
        "status_file": None,
        "journal": None,
        "resume": False,
    }
    valued = {
        "--workers": "workers",
        "--cache-dir": "cache_dir",
        "--trace-dir": "trace_dir",
        "--trace-cycles": "trace_cycles",
        "--profile-report": "profile_report",
        "--manifest": "manifest",
        "--metrics-dir": "metrics_dir",
        "--status-file": "status_file",
        "--journal": "journal",
    }
    names: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--no-cache":
            opts["no_cache"] = True
        elif arg == "--profile":
            opts["profile"] = True
        elif arg == "--sanitize":
            opts["sanitize"] = True
        elif arg == "--trace":
            opts["trace"] = True
        elif arg == "--resume":
            opts["resume"] = True
        elif any(arg == f or arg.startswith(f + "=") for f in valued):
            flag, sep, value = arg.partition("=")
            if not sep:
                i += 1
                if i >= len(args):
                    raise _CLIError(f"{flag} requires a value")
                value = args[i]
            key = valued[flag]
            if key in ("workers", "trace_cycles"):
                try:
                    opts[key] = int(value)
                except ValueError:
                    raise _CLIError(f"{flag} expects an integer, got {value!r}")
                if opts[key] < 1:
                    raise _CLIError(f"{flag} must be >= 1")
            else:
                opts[key] = value
        elif arg.startswith("-") and arg not in ("-h", "--help"):
            raise _CLIError(f"unknown option: {arg}")
        else:
            names.append(arg)
        i += 1
    if opts["trace_dir"] is not None or opts["trace_cycles"] is not None:
        opts["trace"] = True
    if opts["trace"] and opts["trace_dir"] is None:
        opts["trace_dir"] = "repro-traces"
    if opts["resume"] and opts["journal"] is None and not opts["trace"]:
        # --resume needs a journal to resume from; outside --trace (which
        # defaults the journal beside the manifest) give it a stable name.
        opts["journal"] = "repro-journal.jsonl"
    return opts, names


#: Point traced by a bare ``python -m repro --trace`` (no experiment names).
DEFAULT_TRACE_POINT = ("cg-lou", "baseline")


def _run_profile_report(spec: str) -> int:
    """``--profile-report APP[:DESIGN]``: one point, profiler-style text."""
    from .experiments.engine import SimPoint, get_engine
    from .metrics.profile_report import profile_report

    app, _, design = spec.partition(":")
    point = SimPoint(app=app, design=design or "baseline")
    try:
        # A batch of one, so a metrics document and a heartbeat see it.
        stats = get_engine().run_many([point])[point]
    except KeyError as exc:
        print(f"--profile-report: unknown app or design: {exc}", file=sys.stderr)
        return 2
    print(profile_report(stats))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        opts, names = _parse_args(args)
    except _CLIError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    standalone = opts["profile_report"] is not None or opts["trace"]
    if (not names and not standalone) or any(a in names for a in ("list", "-h", "--help")):
        print(__doc__)
        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [a for a in names if a not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"options: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    from .experiments.engine import configure, get_engine

    workers = opts["workers"]
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "0") or 0) or (
            os.cpu_count() or 1
        )
    metrics = None
    if opts["metrics_dir"] is not None:
        from .obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    configure(
        workers=workers,
        cache_dir=opts["cache_dir"],
        use_disk_cache=not opts["no_cache"],
        progress=sys.stderr.isatty(),
        sanitize=opts["sanitize"],
        trace_dir=opts["trace_dir"],
        trace_cycles=opts["trace_cycles"],
        manifest_path=opts["manifest"],
        metrics=metrics,
        status_path=opts["status_file"],
        journal_path=opts["journal"],
        resume=opts["resume"],
    )

    if opts["trace"] and not names and opts["profile_report"] is None:
        # A bare --trace still produces a trace to look at.
        app, design = DEFAULT_TRACE_POINT
        opts["profile_report"] = f"{app}:{design}"

    status = 0
    if opts["profile_report"] is not None:
        status = _run_profile_report(opts["profile_report"])
    for name in names:
        print(f"\n=== {name} ===")
        figure = experiment_module(name)
        print(figure.format_result(figure.run()))
    if opts["profile"]:
        print(f"\n{get_engine().profile_summary()}")
    if opts["trace"]:
        engine = get_engine()
        written = (
            engine.manifest.records_written if engine.manifest is not None else 0
        )
        print(
            f"\ntraces in {opts['trace_dir']}/ "
            f"(manifest.jsonl: {written} records; open *.trace.json in "
            "https://ui.perfetto.dev)"
        )
        if engine.profile.trace_dropped:
            print(
                f"--trace-cycles {opts['trace_cycles']} cut "
                f"{engine.profile.trace_dropped} events (per point: the "
                "manifest records' \"dropped\")"
            )
    if metrics is not None:
        import json as _json
        from pathlib import Path

        out = Path(opts["metrics_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(
            _json.dumps(metrics.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nmetrics in {out}/metrics.json")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
