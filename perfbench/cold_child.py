"""Child of the figure-cold workload: one ``rba-banks`` batch in a fresh interpreter.

Run as ``python cold_child.py '<json config>'``.  Imports happen inside
the timed region on purpose — a cold figure pays for them.  The last
stdout line is a JSON report: spans (``time.perf_counter`` readings, a
clock the parent shares), the engine profile, every point's counts and
digest, and the formatted figure.
"""

import json
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    marks = [time.perf_counter()]

    from repro.experiments import rba_banks
    from repro.experiments.engine import SimPoint, configure
    from repro.obs import stats_digest

    marks.append(time.perf_counter())
    engine = configure(
        workers=cfg["workers"],
        cache_dir=cfg["cache_dir"],
        journal_path=cfg["journal"],
        resume=cfg["resume"],
        progress=False,
    )
    marks.append(time.perf_counter())
    result = rba_banks.run(cfg["apps"])
    marks.append(time.perf_counter())
    text = rba_banks.format_result(result)
    marks.append(time.perf_counter())

    prof = engine.profile
    profile = {
        "hits": prof.hits,
        "misses": prof.misses,
        "sims": prof.sims,
        "resumed": prof.resumed,
        "code_compiles": prof.code_compiles,
        "code_loads": prof.code_loads,
        "sim_seconds": prof.total_sim_seconds(),
        "worker_skew": prof.worker_skew(),
    }
    points = []
    for app in cfg["apps"]:
        for pair in rba_banks.BANK_DESIGNS.values():
            for design in pair:
                point = SimPoint(app, design)
                stats = engine.run_point(point)
                points.append(
                    [point.label(), stats.instructions, stats.cycles, stats_digest(stats.to_payload())]
                )
    names = ("cli.import", "experiments.configure", "experiments.run", "experiments.format_result")
    spans = [[name, marks[i], marks[i + 1]] for i, name in enumerate(names)]
    print(json.dumps({"spans": spans, "profile": profile, "points": points, "text": text}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
