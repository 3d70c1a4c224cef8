"""The six workloads.  Each puts the work in a different layer.

Everything here calls public functions of ``repro`` and reads public
result objects; nothing under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.chaos import trip as chaos_trip
from repro.experiments import fig14_rf_utilization, rba_banks
from repro.experiments.designs import get_design
from repro.experiments.engine import ExperimentEngine, SimPoint, point_key
from repro.gpu import GPU, simulate
from repro.metrics import SimStats
from repro.obs import (
    Heartbeat,
    MetricsRegistry,
    RunJournal,
    RunManifest,
    Tracer,
    load_journal,
    stats_digest,
    write_chrome_trace,
)
from repro.regalloc import get_mapping
from repro.trace import code_key, compile_kernel
from repro.trace.code_cache import load_compiled, store_compiled
from repro.workloads import (
    PROFILE_VERSION,
    RF_SENSITIVE_APPS,
    AppProfile,
    app_names,
    build_kernel,
    get_compiled_kernel,
    get_profile,
)

from . import env, spec
from .harness import Ctx, Round, Workload, percentile
from .layers import FileProfile, profile_files, time_us

COLD_CHILD = Path(__file__).with_name("cold_child.py")


def reseed(profile: AppProfile, seed: int) -> AppProfile:
    """The profile whose trace ``--seed`` asks for; seed 0 is the registry's own."""
    if seed == 0:
        return profile
    mixed = hashlib.sha256(f"{seed}:{profile.seed}".encode()).digest()
    return dataclasses.replace(profile, seed=int.from_bytes(mixed[:4], "big") & 0x7FFFFFFF)


def seeded_kernel(app: str, seed: int, designs: Sequence[str]):
    """Build ``app``'s kernel and lower it for every design's bank layout."""
    kernel = build_kernel(reseed(get_profile(app), seed))
    for design in designs:
        cfg = get_design(design)
        compile_kernel(kernel, get_mapping(cfg.bank_mapping), cfg.rf_banks_per_subcore)
    return kernel


def digest_of(stats: SimStats) -> str:
    return stats_digest(stats.to_payload())


def per(amount: float, seconds: float) -> float:
    """``amount / seconds``; NaN when every op that feeds it failed."""
    return amount / seconds if seconds else float("nan")


_CORE_FILES = (
    "sm", "subcore", "arbitration", "collector_unit", "warp",
    "warp_scheduler", "execution", "register_file", "thread_block",
)


def cycle_loop_shares(prof: FileProfile) -> Dict[str, float]:
    """Self-time shares of the cycle-loop layers in one profiled section."""
    out = {
        "gpu.self_share": prof.share("gpu/"),
        "memory.self_share": prof.share("memory/"),
    }
    for stem in _CORE_FILES:
        out[f"core.{stem}_share"] = prof.share(f"core/{stem}.py")
    return out


def simulated_counts(stats: Sequence[SimStats]) -> Dict[str, float]:
    """Exact simulated totals over a set of points."""
    cycles = sum(s.cycles for s in stats)
    insts = sum(s.instructions for s in stats)
    l1 = sum(s.l1_hits + s.l1_misses for s in stats)
    return {
        "gpu.sim_cycles": cycles,
        "gpu.sim_insts": insts,
        "gpu.sim_ipc": insts / cycles if cycles else 0.0,
        "core.bank_conflict_cycles": sum(s.bank_conflict_cycles() for s in stats),
        "core.issue_stall_no_cu": sum(sm.issue_stall_no_cu for s in stats for sm in s.sms),
        "core.issue_stall_no_ready": sum(sm.issue_stall_no_ready for s in stats for sm in s.sms),
        "core.rf_reads": sum(s.total_rf_reads() for s in stats),
        "core.issue_cov": statistics.fmean(s.issue_cov() for s in stats) if stats else 0.0,
        "memory.l1_hit_rate": sum(s.l1_hits for s in stats) / l1 if l1 else 0.0,
        "memory.l2_misses": sum(s.l2_misses for s in stats),
        "memory.dram_accesses": sum(s.dram_accesses for s in stats),
    }


def payload_cost(stats: Sequence[SimStats]) -> Dict[str, float]:
    """What serializing a result costs: the settle and cache-parse unit of work."""
    sizes = [len(json.dumps(s.to_payload(), separators=(",", ":"))) for s in stats]
    return {
        "metrics.to_payload_us": time_us(stats[0].to_payload, n=200),
        "metrics.payload_kb": statistics.fmean(sizes) / 1024.0,
    }


# -- loop-dense / loop-sparse ---------------------------------------------


class Loop(Workload):
    """Direct ``GPU(config).run(kernel)`` calls (what ``simulate()`` does) on prebuilt kernels."""

    def __init__(self, name: str, apps: Sequence[str], designs: Sequence[str], smoke: bool = False):
        super().__init__(smoke)
        self.name = name
        self.apps = tuple(apps[:1] if smoke else apps)
        self.designs = tuple(designs[:2] if smoke else designs)

    def sizes(self) -> dict:
        return {"apps": self.apps, "designs": self.designs, "points": len(self.apps) * len(self.designs)}

    def setup(self, ctx: Ctx) -> None:
        self.configs = {d: get_design(d) for d in self.designs}
        self.kernels = {app: seeded_kernel(app, ctx.seed, self.designs) for app in self.apps}
        # A process's first simulation pays first-use costs; they are set-up, not round 1.
        simulate(self.kernels[self.apps[0]], self.configs[self.designs[0]], num_sms=1)

    def _run_points(self, ctx: Ctx, r: int, apps: Sequence[str]) -> Tuple[float, Dict[str, SimStats]]:
        wall, stats = 0.0, {}
        for app in apps:
            for design in self.designs:
                label = f"{app}x{design}"
                with ctx.op(f"{label}#r{r}") as op:
                    with ctx.span("gpu.construct"):
                        gpu = GPU(self.configs[design], num_sms=1)
                    with ctx.span("gpu.run"):
                        stats[label] = gpu.run(self.kernels[app])
                wall += op.seconds
        return wall, stats

    def round(self, ctx: Ctx, r: int) -> Round:
        with ctx.span("round", op=f"r{r}"):
            wall, stats = self._run_points(ctx, r, self.apps)
        for app in self.apps:
            counts = {stats[f"{app}x{d}"].instructions for d in self.designs if f"{app}x{d}" in stats}
            if len(counts) > 1:
                ctx.ops.fail(f"{app}x{self.designs[0]}#r{r}", f"designs executed different instruction counts {sorted(counts)}")
        insts = sum(s.instructions for s in stats.values())
        return Round(
            wall=wall,
            samples={"kinsts_per_s": per(insts, wall) / 1e3},
            digests={label: digest_of(s) for label, s in stats.items()},
            detail={"stats": stats},
        )

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        stats = list(rounds[-1].detail["stats"].values())
        out = simulated_counts(stats)
        out["gpu.construct_ms"] = ctx.rec.mean_ms("gpu.construct")
        out["gpu.run_ms_per_point"] = ctx.rec.mean_ms("gpu.run")
        out["gpu.kcycles_per_s"] = out["gpu.sim_cycles"] / statistics.median(r.wall for r in rounds) / 1e3
        # One more pass over the first app, every design, under cProfile.
        app = self.apps[0]
        prof = profile_files(lambda: self._run_points(ctx, 0, [app]))
        profiled = [rounds[-1].detail["stats"][f"{app}x{d}"] for d in self.designs]
        cycles = sum(s.cycles for s in profiled)
        out.update(cycle_loop_shares(prof))
        out["gpu.stepped_cycle_share"] = prof.ncalls.get(("core/sm.py", "step"), 0) / cycles
        out["core.py_calls_per_cycle"] = prof.calls / cycles
        out["core.py_calls_per_inst"] = prof.calls / sum(s.instructions for s in profiled)
        return out


# -- trace-build ------------------------------------------------------------


class TraceBuild(Workload):
    """``build_kernel`` -> ``compile_kernel`` -> ``store_compiled`` -> ``load_compiled`` per app."""

    name = spec.TRACE_BUILD
    DESIGN = "baseline"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        names = sorted(app_names())
        self.apps = tuple(names[:2] if smoke else names[::5])
        #: Apps whose loaded artifact is also simulated against the fresh one.
        self.verified = 1 if smoke else 2

    def sizes(self) -> dict:
        return {"apps": len(self.apps), "of_registry": len(app_names()), "verified_by_simulation": self.verified}

    def setup(self, ctx: Ctx) -> None:
        self.config = get_design(self.DESIGN)
        self.mapper = get_mapping(self.config.bank_mapping)
        self.banks = self.config.rf_banks_per_subcore
        self.profiles = [reseed(get_profile(a), ctx.seed) for a in self.apps]
        self.keys = [
            code_key(PROFILE_VERSION, dataclasses.asdict(p), self.config.bank_mapping, self.banks)
            for p in self.profiles
        ]
        self.check = set(random.Random(ctx.seed).sample(range(len(self.apps)), self.verified))

    def _build(self, ctx: Ctx, r: int, cache: Path, indices: Sequence[int]) -> Round:
        part = {"synth": 0.0, "compile": 0.0, "store": 0.0, "load": 0.0}
        wall, insts, size, built, digests = 0.0, 0, 0, 0, {}
        for i in indices:
            app, profile, key = self.apps[i], self.profiles[i], self.keys[i]
            with ctx.op(f"{app}#r{r}") as op:
                with ctx.span("workloads.build_kernel") as synth:
                    kernel = build_kernel(profile)
                with ctx.span("trace.compile_kernel") as lower:
                    compile_kernel(kernel, self.mapper, self.banks)
                with ctx.span("trace.store_compiled") as store:
                    store_compiled(cache, key, kernel)
                with ctx.span("trace.load_compiled") as load:
                    loaded = load_compiled(cache, key)
                if loaded is None:
                    raise RuntimeError("stored artifact did not load back")
            if not op.ok:
                continue
            wall += op.seconds
            built += 1
            for name, span in (("synth", synth), ("compile", lower), ("store", store), ("load", load)):
                part[name] += span.seconds
            insts += kernel.ctas[0].dynamic_instructions
            blob = next(cache.glob(f"{key}*")).read_bytes()
            size += len(blob)
            digests[f"{app}:artifact"] = hashlib.sha256(blob).hexdigest()[:16]
            if r == 1 and i in self.check:
                # Checked here, not after the round, so no kernel outlives its app.
                fresh, cached = (digest_of(simulate(k, self.config, num_sms=1)) for k in (kernel, loaded))
                digests[f"{app}x{self.DESIGN}"] = fresh
                if fresh != cached:
                    ctx.ops.fail(op.id, f"loaded artifact simulates to {cached}, fresh to {fresh}")
        return Round(
            wall=wall,
            samples={"apps_per_s": per(built, wall)},
            digests=digests,
            detail={"part": part, "insts": insts, "bytes": size, "apps": built},
        )

    def round(self, ctx: Ctx, r: int) -> Round:
        with ctx.span("round", op=f"r{r}"):
            return self._build(ctx, r, ctx.tmp / f"code-r{r}", range(len(self.apps)))

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        def mean(key: str) -> float:
            return statistics.fmean(r.detail["part"][key] / r.detail["apps"] for r in rounds)

        last = rounds[-1].detail
        out = {
            "workloads.synth_ms_per_app": 1e3 * mean("synth"),
            "workloads.synth_kinsts_per_s": last["insts"] / last["part"]["synth"] / 1e3,
            "workloads.trace_insts": last["insts"],
            "trace.compile_ms_per_app": 1e3 * mean("compile"),
            "trace.store_ms_per_app": 1e3 * mean("store"),
            "trace.load_ms_per_app": 1e3 * mean("load"),
            "trace.artifact_kb_per_app": last["bytes"] / last["apps"] / 1024.0,
            "trace.load_vs_build_x": (mean("synth") + mean("compile")) / mean("load"),
        }
        memo = (self.apps[0], self.config.bank_mapping, self.banks)
        get_compiled_kernel(*memo, cache_dir=ctx.tmp / "memo")
        out["trace.memo_hit_us"] = time_us(lambda: get_compiled_kernel(*memo), n=2000)
        prof = profile_files(lambda: self._build(ctx, 0, ctx.tmp / "code-prof", range(min(4, len(self.apps)))))
        out.update(cycle_loop_shares(prof))
        return out


# -- figure-cold ------------------------------------------------------------


def draw_apps(seed: int, n: int) -> Tuple[str, ...]:
    """``n`` RF-sensitive apps: one per trace-length stratum, drawn by ``seed``.

    Stratifying by ``AppProfile.total_instructions``, and redrawing until
    the batch is within 2 % of the mean batch, gives every seed about the
    same simulated work, so wall time compares across seeds while the
    apps themselves change.
    """
    length = {a: get_profile(a).total_instructions for a in RF_SENSITIVE_APPS}
    ranked = sorted(length, key=lambda a: (length[a], a))
    target = sum(length.values()) * n / len(ranked)
    rng = random.Random(seed)
    size = len(ranked) / n
    while True:
        apps = tuple(rng.choice(ranked[round(i * size):round((i + 1) * size)]) for i in range(n))
        if n == 1 or abs(sum(length[a] for a in apps) / target - 1.0) <= 0.02:
            return apps


class FigureCold(Workload):
    """A whole figure from nothing, in a fresh interpreter per round."""

    name = spec.FIGURE_COLD

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.napps = 1 if smoke else 4
        self.designs = tuple(d for pair in rba_banks.BANK_DESIGNS.values() for d in pair)

    def sizes(self) -> dict:
        return {
            "apps": getattr(self, "apps", self.napps),
            "designs": self.designs,
            "points": self.napps * len(self.designs),
        }

    def setup(self, ctx: Ctx) -> None:
        self.apps = draw_apps(ctx.seed, self.napps)

    def _child(self, ctx: Ctx, cache: Path, resume: bool = False) -> dict:
        cfg = {
            "cache_dir": str(cache),
            "journal": str(cache / "journal.jsonl"),
            "apps": self.apps,
            "workers": ctx.workers,
            "resume": resume,
        }
        proc = env.python_child([str(COLD_CHILD), json.dumps(cfg)], env.child_env(cache))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-400:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        for name, start, end in report["spans"]:
            ctx.rec.add(name, start, end)
        return report

    def round(self, ctx: Ctx, r: int) -> Round:
        cache = ctx.tmp / f"cold-r{r}"
        with ctx.span("round", op=f"r{r}"), ctx.op(f"figure#r{r}") as op:
            report = self._child(ctx, cache)
        if not op.ok:
            return Round(wall=op.seconds)
        points = report["points"]
        journal = load_journal(cache / "journal.jsonl")
        if len(journal) != len(points):
            ctx.ops.fail(op.id, f"journal holds {len(journal)} of {len(points)} points")
        digests = {label: digest for label, _insts, _cycles, digest in points}
        digests.update({f"journal:{key}": digest for key, digest in journal.items()})
        digests["figure-text"] = hashlib.sha256(report["text"].encode()).hexdigest()[:16]
        insts = sum(p[1] for p in points)
        return Round(
            wall=op.seconds,
            samples={"kinsts_per_s": insts / op.seconds / 1e3, "points_per_s": len(points) / op.seconds},
            digests=digests,
            detail={"report": report, "cache": cache},
        )

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        good = [r.detail["report"] for r in rounds if r.detail]
        if not good:
            return {}
        spans = [{name: end - start for name, start, end in rep["spans"]} for rep in good]
        profiles = [rep["profile"] for rep in good]
        mean = statistics.fmean
        run_s = mean(s["experiments.run"] for s in spans)
        sim_s = mean(p["sim_seconds"] for p in profiles)
        last = profiles[-1]
        points = good[-1]["points"]
        cycles, insts = sum(p[2] for p in points), sum(p[1] for p in points)
        out = {
            "cli.import_ms": 1e3 * mean(s["cli.import"] for s in spans),
            "experiments.sim_seconds_sum": sim_s,
            "experiments.parallel_efficiency": sim_s / (ctx.workers * run_s),
            "experiments.dispatch_overhead_s": run_s - sim_s / ctx.workers,
            "experiments.worker_skew": mean(p["worker_skew"] for p in profiles),
            "experiments.code_compiles": last["code_compiles"],
            "experiments.code_loads": last["code_loads"],
            "experiments.cache_hits": last["hits"],
            "experiments.cache_misses": last["misses"],
            "experiments.format_ms": 1e3 * mean(s["experiments.format_result"] for s in spans),
            "gpu.sim_cycles": cycles,
            "gpu.sim_insts": insts,
            "gpu.sim_ipc": insts / cycles,
            "gpu.run_ms_per_point": 1e3 * sim_s / len(points),
            "chaos.trip_off_ns": 1e3 * time_us(lambda: chaos_trip("sim", "perfbench"), n=20000),
        }
        cache = next(r.detail["cache"] for r in rounds if r.detail)
        resumed = self._child(ctx, cache, resume=True)
        out["experiments.resume_ms"] = 1e3 * next(
            end - start for name, start, end in resumed["spans"] if name == "experiments.run"
        )
        if resumed["profile"]["resumed"] != len(points):
            ctx.ops.fail("figure#resume", f"resumed {resumed['profile']['resumed']} of {len(points)} points")
        engine = ExperimentEngine(workers=1, cache_dir=cache)
        out.update(payload_cost([engine.run_point(SimPoint(a, d)) for a in self.apps for d in self.designs]))
        return out


# -- figure-warm ------------------------------------------------------------

#: The grid each CLI figure resolves, as the engine sees it.
FIGURE_GRIDS = {
    "rba-banks": lambda: [
        SimPoint(app, design)
        for app in RF_SENSITIVE_APPS
        for pair in rba_banks.BANK_DESIGNS.values()
        for design in pair
    ],
    "fig14": lambda: [
        SimPoint(app, design, 1, True)
        for app in fig14_rf_utilization.APPS
        for design in fig14_rf_utilization.DESIGNS
    ],
}


class FigureWarm(Workload):
    """The read side: warm CLI invocations and fresh-engine disk hits.

    The grid is the figure's own, so ``--seed`` changes nothing here.
    """

    name = spec.FIGURE_WARM
    setup_repeats = 1  # one cold figure (~12 s) is the set-up

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.figure = "fig14" if smoke else "rba-banks"
        self.cli_per_round = 2 if smoke else 10
        self.engines_per_round = 1 if smoke else 10

    def sizes(self) -> dict:
        return {
            "figure": self.figure,
            "points": len(FIGURE_GRIDS[self.figure]()),
            "cli_per_round": self.cli_per_round,
            "engines_per_round": self.engines_per_round,
            "seed_applies": False,
            **getattr(self, "pooled_n", {}),
        }

    def setup(self, ctx: Ctx) -> None:
        self.cache = ctx.tmp / "warm"
        self.child_env = env.child_env(self.cache)
        self.cmd = ["-m", "repro", self.figure, "--workers", str(ctx.workers), "--cache-dir", str(self.cache)]
        self.points = FIGURE_GRIDS[self.figure]()
        cold = env.python_child(self.cmd, self.child_env)
        if cold.returncode != 0:
            raise RuntimeError(f"cold CLI run exited {cold.returncode}: {cold.stderr[-400:]}")
        self.reference = cold.stdout

    def _hit_loop(self, ctx: Ctx, tag: str) -> Tuple[float, List[float], ExperimentEngine, list]:
        with ctx.span("experiments.engine_init") as init:
            engine = ExperimentEngine(workers=1, cache_dir=self.cache)
        hits, stats = [], []
        for i, point in enumerate(self.points):
            with ctx.op(f"hit#{tag}.{i}", name="experiments.run_point") as op:
                stats.append(engine.run_point(point))
            hits.append(op.seconds)
        if engine.profile.disk_hits != len(self.points) or engine.profile.sims:
            ctx.ops.fail(f"hit#{tag}.0", f"{engine.profile.disk_hits} disk hits, {engine.profile.sims} simulations")
        return init.seconds + sum(hits), hits, engine, stats

    def round(self, ctx: Ctx, r: int) -> Round:
        cli, hits, loops, digests = [], [], [], {}
        with ctx.span("round", op=f"r{r}"):
            for i in range(self.cli_per_round):
                with ctx.op(f"cli#r{r}.{i}", name="cli.invoke") as op:
                    proc = env.python_child(self.cmd, self.child_env)
                    if proc.returncode != 0:
                        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
                    if proc.stdout != self.reference:
                        raise RuntimeError("warm stdout differs from the cold run's")
                cli.append(op.seconds)
            for e in range(self.engines_per_round):
                loop_s, hit_s, _engine, stats = self._hit_loop(ctx, f"r{r}.{e}")
                loops.append(loop_s)
                hits.extend(hit_s)
                if e == 0:
                    digests = {p.label(): digest_of(s) for p, s in zip(self.points, stats)}
        return Round(
            wall=sum(cli) + sum(loops),
            samples={"points_per_s": len(self.points) / statistics.median(loops), **self._latencies(cli, hits)},
            digests=digests,
            detail={"cli": cli, "hits": hits},
        )

    @staticmethod
    def _latencies(cli: List[float], hits: List[float]) -> Dict[str, float]:
        return {
            "hit_us_p50": 1e6 * statistics.median(hits),
            "cli_ms_p50": 1e3 * statistics.median(cli),
            "cli_ms_p80": 1e3 * percentile(cli, 80),
        }

    def finish(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        cli = [s for r in rounds for s in r.detail["cli"]]
        hits = [s for r in rounds for s in r.detail["hits"]]
        self.pooled_n = {"cli_samples": len(cli), "hit_samples": len(hits)}
        return self._latencies(cli, hits)

    def _child_ms(self, ctx: Ctx, args: List[str]) -> float:
        runs = []
        for _ in range(3):
            with ctx.span("cli.probe") as span:
                env.python_child(args, self.child_env)
            runs.append(span.seconds)
        return 1e3 * statistics.median(runs)

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        interp = self._child_ms(ctx, ["-c", "pass"])
        hits = [s for r in rounds for s in r.detail["hits"]]
        prof = profile_files(lambda: self._hit_loop(ctx, "prof"))
        _loop, _hits, engine, stats = self._hit_loop(ctx, "mem")
        point = self.points[0]
        fresh = ExperimentEngine(workers=1, cache_dir=self.cache)
        with ctx.span("experiments.run_many") as batch:
            fresh.run_many(self.points)
        out = {
            "cli.interp_ms": interp,
            "cli.import_ms": self._child_ms(ctx, ["-c", "import repro.experiments"]) - interp,
            "cli.list_ms": self._child_ms(ctx, ["-m", "repro", "list"]),
            "cli.numpy_import_ms": self._child_ms(ctx, ["-c", "import numpy"]) - interp,
            "experiments.point_key_us": time_us(lambda: point_key(point), n=100),
            "experiments.hit_mem_us": time_us(lambda: engine.run_point(point), n=1000),
            "experiments.hit_disk_us_p90": 1e6 * percentile(hits, 90),
            "experiments.batch_warm_ms": 1e3 * batch.seconds,
            "experiments.cache_hits": fresh.profile.hits,
            "experiments.cache_misses": fresh.profile.misses,
        }
        out.update(payload_cost(stats))
        out.update(cycle_loop_shares(prof))
        return out


# -- obs-overhead -----------------------------------------------------------


def overhead_ratios(legs: Dict[str, float]) -> Dict[str, float]:
    """On-leg seconds over the matching plain leg's (base = plain)."""
    return {
        "overhead_x.sanitize": per(legs["sanitize"], legs["plain"]),
        "overhead_x.stall_attribution": per(legs["stall_attribution"], legs["plain"]),
        "overhead_x.tracer": per(legs["tracer"], legs["plain"]),
        "overhead_x.telemetry": per(legs["engine_telemetry"], legs["engine_plain"]),
    }


class ObsOverhead(Workload):
    """What each opt-in signal costs when it is on, against the matching plain leg."""

    name = spec.OBS_OVERHEAD
    setup_repeats = 1  # a second set-up would find the compiled-kernel memo the first one filled
    POINTS = (("cutlass-4096", "baseline"), ("tpcU-q1", "shuffle_rba"))
    DIRECT_LEGS = ("plain", "sanitize", "stall_attribution", "tracer")

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.points = self.POINTS[:1] if smoke else self.POINTS

    def sizes(self) -> dict:
        return {"points": self.points, "legs": self.DIRECT_LEGS + ("engine_plain", "engine_telemetry")}

    def setup(self, ctx: Ctx) -> None:
        self.kernels, self.configs = {}, {}
        for app, design in self.points:
            cfg = get_design(design)
            self.kernels[app] = seeded_kernel(app, ctx.seed, [design])
            self.configs[design] = {
                "plain": cfg,
                "sanitize": cfg.replace(sanitize=True),
                "stall_attribution": cfg.replace(stall_attribution=True),
                "tracer": cfg.replace(stall_attribution=True),
            }
            # The engine legs resolve registry kernels through the in-process
            # memo; fill it here so no leg synthesizes inside the timed region.
            get_compiled_kernel(app, cfg.bank_mapping, cfg.rf_banks_per_subcore, use_disk=False)
        # A process's first simulation pays first-use costs; they are set-up, not round 1.
        app, design = self.points[0]
        simulate(self.kernels[app], self.configs[design]["plain"], num_sms=1)

    def _engine(self, ctx: Ctx, leg: str, r: int) -> ExperimentEngine:
        kwargs = {}
        if leg == "engine_telemetry":
            out = ctx.tmp / f"telemetry-r{r}"
            kwargs = {
                "manifest_path": out / "manifest.jsonl",
                "metrics": MetricsRegistry(),
                "status_path": out / "status.json",
                "journal_path": out / "journal.jsonl",
            }
        return ExperimentEngine(workers=1, cache_dir=ctx.tmp / "unused", use_disk_cache=False, **kwargs)

    def round(self, ctx: Ctx, r: int) -> Round:
        legs = dict.fromkeys(self.DIRECT_LEGS + ("engine_plain", "engine_telemetry"), 0.0)
        digests, events, cycles = {}, 0, 0
        self.plain: List[SimStats] = []
        with ctx.span("round", op=f"r{r}"):
            for app, design in self.points:
                got: Dict[str, SimStats] = {}
                for leg in self.DIRECT_LEGS:
                    tracer = Tracer() if leg == "tracer" else None
                    with ctx.op(f"{app}x{design}:{leg}#r{r}", name=f"gpu.simulate.{leg}") as op:
                        got[leg] = simulate(self.kernels[app], self.configs[design][leg], num_sms=1, tracer=tracer)
                    legs[leg] += op.seconds
                    if not op.ok:
                        continue
                    plain = got.get("plain")
                    digests[f"{app}x{design}:{leg}"] = digest_of(got[leg])
                    if leg == "sanitize" and plain is not None and digest_of(plain) != digest_of(got[leg]):
                        ctx.ops.fail(op.id, "sanitized digest differs from plain")
                    if leg in ("stall_attribution", "tracer") and plain is not None and (
                        (plain.cycles, plain.instructions) != (got[leg].cycles, got[leg].instructions)
                    ):
                        ctx.ops.fail(op.id, "cycles/instructions differ from plain")
                    if tracer is not None:
                        events, cycles = events + len(tracer), cycles + got[leg].cycles
                if "plain" in got:
                    self.plain.append(got["plain"])
            sim_points = [SimPoint(app, design) for app, design in self.points]
            for leg in ("engine_plain", "engine_telemetry"):
                engine = self._engine(ctx, leg, r)
                with ctx.op(f"{leg}#r{r}", name=f"experiments.run_many.{leg}") as op:
                    results = engine.run_many(sim_points)
                legs[leg] += op.seconds
                if op.ok:
                    digests.update({f"{p.label()}:{leg}": digest_of(results[p]) for p in sim_points})
            for p in sim_points:
                a, b = (digests.get(f"{p.label()}:{leg}") for leg in ("engine_plain", "engine_telemetry"))
                if a != b:
                    ctx.ops.fail(f"engine_telemetry#r{r}", f"{p.label()}: digest differs from the plain engine's")
        return Round(
            wall=sum(legs.values()),
            samples={
                "kinsts_per_s": per(sum(s.instructions for s in self.plain), legs["plain"]) / 1e3,
                **overhead_ratios(legs),
            },
            digests=digests,
            detail={"legs": legs, "events": events, "cycles": cycles},
        )

    def finish(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        # Summed over rounds, not the median of per-round ratios.
        self.total = {leg: sum(r.detail["legs"][leg] for r in rounds) for leg in rounds[0].detail["legs"]}
        return overhead_ratios(self.total)

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        payload = self.plain[0].to_payload()
        digest = stats_digest(payload)
        out_dir = ctx.tmp / "probes"
        out_dir.mkdir()
        journal = RunJournal(out_dir / "journal.jsonl")
        manifest = RunManifest(out_dir / "manifest.jsonl")
        heartbeat = Heartbeat(str(out_dir / "status.json"))
        app, design = self.points[0]
        # Rounds drop their tracers at once (a few 100k retained event dicts
        # would tax every later collection), so export a fresh one.
        tracer = Tracer()
        simulate(self.kernels[app], self.configs[design]["tracer"], num_sms=1, tracer=tracer)
        with ctx.span("obs.write_chrome_trace") as export:
            write_chrome_trace(tracer, out_dir / "trace.json")
        del tracer
        prof = profile_files(
            lambda: simulate(self.kernels[app], self.configs[design]["sanitize"], num_sms=1)
        )
        last = rounds[-1].detail
        return {
            "obs.digest_us": time_us(lambda: stats_digest(payload), n=200),
            "obs.journal_append_us": time_us(lambda: journal.record("k" * 64, digest, "probe"), n=300),
            "obs.manifest_record_us": time_us(lambda: manifest.record("probe", "k" * 64, "sim", digest, seconds=0.1, worker=1), n=300),
            "obs.heartbeat_write_us": time_us(lambda: heartbeat.write(force=True), n=100),
            "obs.tracer_events_per_kcycle": 1e3 * last["events"] / last["cycles"],
            "obs.trace_export_ms": 1e3 * export.seconds,
            "analysis.sanitize_checks_share": prof.share("analysis/invariants.py"),
            "experiments.engine_tax_x": per(self.total["engine_plain"], self.total["plain"]),
            **simulated_counts(self.plain),
        }


def make(name: str, smoke: bool = False) -> Workload:
    if name == spec.LOOP_DENSE:
        return Loop(name, ("pb-sgemm", "cg-lou", "rod-lavaMD"), ("baseline", "rba", "fully_connected", "cu4"), smoke)
    if name == spec.LOOP_SPARSE:
        return Loop(name, ("tpcU-q8", "tpcC-q4"), ("baseline", "srr", "shuffle_rba"), smoke)
    classes = {c.name: c for c in (TraceBuild, FigureCold, FigureWarm, ObsOverhead)}
    if name not in classes:
        raise SystemExit(f"perfbench: unknown workload {name!r}; options: {', '.join(spec.WORKLOADS)}")
    return classes[name](smoke)
