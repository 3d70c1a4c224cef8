"""``PYTHONPATH=src python -m perfbench`` — every workload, every metric, by name.

    python -m perfbench [--workload NAME ...] [--seed N] [--seconds S]
                        [--traced] [--smoke] [--workers N] [--out report.json]
    python -m perfbench --agree A.json B.json

Each workload (and each pass) runs in a process of its own, so imports,
peak memory and in-process memos are that workload's alone.  Exits
non-zero if any operation failed (``failed_share > 0``) or, with
``--agree``, if the two reports disagree beyond the bounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.bench.harness import calibrate

from . import env, report, spec

RUN = Path(__file__).with_name("run.py")


def run_section(name: str, args: argparse.Namespace, traced: bool) -> dict:
    """Run one workload pass in a fresh interpreter and return its section."""
    with env.scratch() as tmp:
        out = tmp / "section.json"
        cmd = [
            sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(traced)), "--section", str(out),
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.workers is not None:
            cmd += ["--workers", str(args.workers)]
        proc = subprocess.run(cmd, cwd=env.REPO, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {proc.returncode}")
        return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="timed region per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true", help="add the traced pass: per-layer metrics and span files")
    parser.add_argument("--smoke", action="store_true", help="1-2 apps per workload, two short rounds: walks every code path")
    parser.add_argument("--workers", type=int, default=None, help="engine workers (default min(2, nproc); more than nproc is refused)")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.agree:
        rows, good = report.agree(*(report.load(p) for p in args.agree))
        print("\n".join(rows))
        print("AGREE" if good else "DISAGREE")
        return 0 if good else 1

    if args.seconds is None:
        args.seconds = json.loads((env.REPO / "BENCHMARK.json").read_text())["run_seconds"]
    workers = env.engine_workers(args.workers)
    sections = {}
    for name in args.workload or list(spec.WORKLOADS):
        print(f"[perfbench] {name} ...", file=sys.stderr)
        section = run_section(name, args, traced=False)
        if args.traced:
            traced = run_section(name, args, traced=True)
            if traced["model_digest"] != section["model_digest"]:
                traced["failed"] += 1
                traced["failures"].append("traced pass model_digest differs from the timed pass")
            section["layers"] = traced["layers"]
            section["layer_self_s"] = traced["layer_self_s"]
            for key in ("attempted", "failed", "failures"):
                section[key] += traced[key]
        sections[name] = section
    stamp = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": args.traced,
        "git_sha": env.git_sha(),
        "host": env.host_record(workers),
        # Host-speed note from suite v1's calibration loop: informational, never gates.
        "calibration_ops_per_s": calibrate(),
    }
    full = report.assemble(sections, stamp)
    print(report.render(full))
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    return 1 if full["failed_share"] > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
