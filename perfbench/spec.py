"""Names, units, directions and bounds of everything perfbench reports.

This is the registry the reports, ``--agree`` and ``BENCHMARK.json`` are
checked against (``perfbench/tests/test_spec.py``).  All times are *host*
time; every metric marked ``exact`` is a *simulated* (or otherwise
deterministic) count that must repeat bit-for-bit between two runs of
the same code and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

LOOP_DENSE = "loop-dense"
LOOP_SPARSE = "loop-sparse"
TRACE_BUILD = "trace-build"
FIGURE_COLD = "figure-cold"
FIGURE_WARM = "figure-warm"
OBS_OVERHEAD = "obs-overhead"

#: Why each workload exists (the one-line form that BENCHMARK.json carries;
#: README.md has the long form and the sizes).
WORKLOADS: Dict[str, str] = {
    LOOP_DENSE: (
        "3 RF-sensitive apps x 4 designs, direct GPU.run on prebuilt kernels: "
        "repro.core issues/arbitrates/collects on nearly every cycle; "
        "engine, caches and trace build idle. work = simulated kinsts"
    ),
    LOOP_SPARSE: (
        "2 TPC-H apps x 3 designs, direct GPU.run: barrier-bound, long memory "
        "waits, event-horizon jumps and closed-form skipped-step accounting; "
        "the other use of the cycle loop. work = simulated kinsts"
    ),
    TRACE_BUILD: (
        "23 of the 112 registry apps: build_kernel, compile_kernel, store_compiled, "
        "load_compiled; repro.workloads + repro.trace do all the work, the "
        "cycle loop none. work = apps"
    ),
    FIGURE_COLD: (
        "fresh child per round: configure(workers=2) + rba_banks.run on 4 "
        "seed-drawn apps (16 points) + format, empty caches: import, plan, "
        "pool, worker trace build, settle, journal. work = simulated kinsts"
    ),
    FIGURE_WARM: (
        "cold `python -m repro rba-banks` in set-up, then warm CLI runs and "
        "fresh-engine run_point disk hits: interpreter start, imports, keys, "
        "cache reads; cycle loop idle. work = points hit"
    ),
    OBS_OVERHEAD: (
        "2 points, legs interleaved per round: plain / sanitize / stall "
        "attribution / +Tracer, and engine plain vs manifest+metrics+status+"
        "journal: what each opt-in signal costs. work = plain-leg kinsts"
    ),
}

ALL = tuple(WORKLOADS)
SIMULATING = (LOOP_DENSE, LOOP_SPARSE, FIGURE_COLD, OBS_OVERHEAD)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the base median by which the metric may worsen; ``None``
    #: for per-layer metrics (diagnostic, never gated).
    bound: Optional[float] = None
    #: Workloads that report it (end-to-end metrics only; every per-layer
    #: metric is reported on every workload, 0 where the layer is idle).
    on: Tuple[str, ...] = ALL
    exact: bool = False


def _index(*metrics: Metric) -> Dict[str, Metric]:
    return {m.name: m for m in metrics}


#: The end-to-end metrics of the human report, measured with tracing off.
#: The 2-core reference sandbox drifts in speed by several percent over
#: minutes (README.md has the numbers), so host-time metrics get the widest
#: bound the contract allows, 25 %; drift-free ones (memory, leg ratios) 10 %.
END_TO_END: Dict[str, Metric] = _index(
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("kinsts_per_s", "kinst/s", "higher", 0.25, SIMULATING),
    Metric("points_per_s", "1/s", "higher", 0.25, (FIGURE_COLD, FIGURE_WARM)),
    Metric("apps_per_s", "1/s", "higher", 0.25, (TRACE_BUILD,)),
    Metric("hit_us_p50", "us", "lower", 0.25, (FIGURE_WARM,)),
    Metric("cli_ms_p50", "ms", "lower", 0.25, (FIGURE_WARM,)),
    Metric("cli_ms_p80", "ms", "lower", 0.25, (FIGURE_WARM,)),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("overhead_x.sanitize", "x", "lower", 0.10, (OBS_OVERHEAD,)),
    Metric("overhead_x.stall_attribution", "x", "lower", 0.10, (OBS_OVERHEAD,)),
    Metric("overhead_x.tracer", "x", "lower", 0.10, (OBS_OVERHEAD,)),
    Metric("overhead_x.telemetry", "x", "lower", 0.10, (OBS_OVERHEAD,)),
)

#: The driver contract (BENCHMARK.json) wants one end-to-end list that
#: *every* workload reports and that is never 0, so run.py projects the
#: table above onto these four: ``work_per_s`` is the workload's own
#: rate metric, named here.
WORK_METRIC: Dict[str, str] = {
    LOOP_DENSE: "kinsts_per_s",
    LOOP_SPARSE: "kinsts_per_s",
    TRACE_BUILD: "apps_per_s",
    FIGURE_COLD: "kinsts_per_s",
    FIGURE_WARM: "points_per_s",
    OBS_OVERHEAD: "kinsts_per_s",
}
DRIVER_END_TO_END: Dict[str, Metric] = _index(
    END_TO_END["setup_s"],
    END_TO_END["wall_s"],
    Metric("work_per_s", "1/s", "higher", END_TO_END["kinsts_per_s"].bound),
    END_TO_END["peak_rss_mb"],
)


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, exact=exact)


#: Per-layer metrics of the traced pass; the prefix is the repro module.
PER_LAYER: Dict[str, Metric] = _index(
    _layer("trace_overhead_x", "x"),
    # cli (repro.__main__) -> cli_ms_p50/p80 on figure-warm
    _layer("cli.interp_ms", "ms"),
    _layer("cli.import_ms", "ms"),
    _layer("cli.list_ms", "ms"),
    _layer("cli.numpy_import_ms", "ms"),
    # workloads -> apps_per_s on trace-build
    _layer("workloads.synth_ms_per_app", "ms"),
    _layer("workloads.synth_kinsts_per_s", "kinst/s", "higher"),
    _layer("workloads.trace_insts", "count", exact=True),
    # trace -> apps_per_s on trace-build, points_per_s on figure-cold
    _layer("trace.compile_ms_per_app", "ms"),
    _layer("trace.store_ms_per_app", "ms"),
    _layer("trace.load_ms_per_app", "ms"),
    _layer("trace.artifact_kb_per_app", "KB", exact=True),
    _layer("trace.load_vs_build_x", "x", "higher"),
    _layer("trace.memo_hit_us", "us"),
    # gpu -> kinsts_per_s on loop-*
    _layer("gpu.construct_ms", "ms"),
    _layer("gpu.run_ms_per_point", "ms"),
    _layer("gpu.kcycles_per_s", "kcycle/s", "higher"),
    _layer("gpu.sim_cycles", "count", exact=True),
    _layer("gpu.sim_insts", "count", exact=True),
    _layer("gpu.sim_ipc", "inst/cycle", "higher", exact=True),
    _layer("gpu.stepped_cycle_share", "ratio", exact=True),
    _layer("gpu.self_share", "ratio"),
    # core -> kinsts_per_s on loop-dense first, loop-sparse second
    _layer("core.sm_share", "ratio"),
    _layer("core.subcore_share", "ratio"),
    _layer("core.arbitration_share", "ratio"),
    _layer("core.collector_unit_share", "ratio"),
    _layer("core.warp_share", "ratio"),
    _layer("core.warp_scheduler_share", "ratio"),
    _layer("core.execution_share", "ratio"),
    _layer("core.register_file_share", "ratio"),
    _layer("core.thread_block_share", "ratio"),
    _layer("core.py_calls_per_cycle", "1/cycle", exact=True),
    _layer("core.py_calls_per_inst", "1/inst", exact=True),
    _layer("core.bank_conflict_cycles", "count", exact=True),
    _layer("core.issue_stall_no_cu", "count", exact=True),
    _layer("core.issue_stall_no_ready", "count", exact=True),
    _layer("core.rf_reads", "count", exact=True),
    _layer("core.issue_cov", "ratio", exact=True),
    # memory -> kinsts_per_s on loop-sparse more than loop-dense
    _layer("memory.self_share", "ratio"),
    _layer("memory.l1_hit_rate", "ratio", "higher", exact=True),
    _layer("memory.l2_misses", "count", exact=True),
    _layer("memory.dram_accesses", "count", exact=True),
    # metrics -> settle cost on figure-cold, payload parse on figure-warm
    _layer("metrics.to_payload_us", "us"),
    _layer("metrics.payload_kb", "KB", exact=True),
    # obs -> overhead_x.telemetry / overhead_x.tracer on obs-overhead
    _layer("obs.digest_us", "us"),
    _layer("obs.journal_append_us", "us"),
    _layer("obs.manifest_record_us", "us"),
    _layer("obs.heartbeat_write_us", "us"),
    _layer("obs.tracer_events_per_kcycle", "1/kcycle", exact=True),
    _layer("obs.trace_export_ms", "ms"),
    # analysis -> overhead_x.sanitize
    _layer("analysis.sanitize_checks_share", "ratio"),
    # chaos -> must stay noise on figure-cold
    _layer("chaos.trip_off_ns", "ns"),
    # experiments -> points_per_s on figure-cold, hit_us_p50 on figure-warm
    _layer("experiments.point_key_us", "us"),
    _layer("experiments.hit_mem_us", "us"),
    _layer("experiments.hit_disk_us_p90", "us"),
    _layer("experiments.batch_warm_ms", "ms"),
    _layer("experiments.sim_seconds_sum", "s"),
    _layer("experiments.parallel_efficiency", "ratio", "higher"),
    _layer("experiments.dispatch_overhead_s", "s"),
    _layer("experiments.worker_skew", "x"),
    _layer("experiments.code_compiles", "count", exact=True),
    _layer("experiments.code_loads", "count", exact=True),
    _layer("experiments.cache_hits", "count", exact=True),
    _layer("experiments.cache_misses", "count", exact=True),
    _layer("experiments.engine_tax_x", "x"),
    _layer("experiments.resume_ms", "ms"),
    _layer("experiments.format_ms", "ms"),
)
