"""What a process loads before it has to simulate (a count, not a timing).

A cache-hit figure run, ``python -m repro list`` and a bare ``import
repro`` must not load the simulator, the trace toolchain, the analysis
and bench tooling or the process pool; the first cache *miss* loads the
simulator in the parent before the pool forks.  Each case runs in a fresh
interpreter and reports its ``sys.modules``.  See docs/performance.md,
"Start-up and the hit path".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import rba_banks
from repro.experiments.engine import ExperimentEngine, SimPoint

SRC = Path(__file__).resolve().parent.parent / "src"

#: Module-name prefixes no hit-path process may load.
MISS_PATH_ONLY = (
    "repro.gpu",
    "repro.core",
    "repro.memory",
    "repro.trace.builder",
    "repro.trace.compiled",
    "repro.trace.code_cache",
    "repro.workloads.synth",
    "repro.regalloc",
    "repro.analysis",
    "repro.bench",
    "concurrent.futures",
    "multiprocessing",
)

# argv: output path, then either ["-c", code] or the CLI's arguments.
_CHILD = """\
import json, runpy, sys

out, rest = sys.argv[1], sys.argv[2:]
status = 0
try:
    if rest[0] == "-c":
        exec(rest[1])
    else:
        sys.argv = ["repro", *rest]
        runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    status = exc.code or 0
with open(out, "w") as fh:
    json.dump({"status": status, "modules": sorted(sys.modules)}, fh)
"""


def run_fresh(tmp_path, *args):
    """Run ``python -m repro ARGS`` (or ``-c CODE``) in a fresh interpreter.

    Returns ``(exit status, loaded module names, stdout)``.
    """
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env.pop("REPRO_CHAOS_PLAN", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    return report["status"], report["modules"], proc.stdout


def loaded(modules, prefixes):
    return [
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


@pytest.mark.parametrize(
    "args, status",
    [
        (["list"], 0),
        (["--help"], 0),
        (["list", "rba-banks"], 0),
        (["fig99"], 2),
    ],
)
def test_cli_names_that_run_nothing_import_nothing(tmp_path, args, status):
    got, modules, _ = run_fresh(tmp_path, *args)
    assert got == status
    ours = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert ours == ["repro", "repro._lazy"]  # runpy runs __main__ unregistered
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.experiments",
        "import repro.experiments.engine",
        "from repro.experiments.engine import configure; configure(workers=2)",
        "import repro.obs, repro.workloads, repro.trace, repro.metrics, repro.chaos",
    ],
)
def test_imports_stay_off_the_miss_path(tmp_path, code):
    _, modules, _ = run_fresh(tmp_path, "-c", code)
    assert loaded(modules, MISS_PATH_ONLY) == []


def test_warm_figure_never_loads_the_simulator(tmp_path):
    # Fill the cache without 64 simulations: one real result stored under
    # every key of the figure's grid.  The rows are meaningless; the run is
    # fully warm, which is all a module count needs.
    warm = tmp_path / "warm"
    engine = ExperimentEngine(workers=1, cache_dir=warm)
    stats = engine.run_point(SimPoint("rod-nw"))
    grid = [
        SimPoint(app, design)
        for app in rba_banks.RF_SENSITIVE_APPS
        for pair in rba_banks.BANK_DESIGNS.values()
        for design in pair
    ]
    for point in grid:
        engine._store_disk(engine._point_key(point), point, stats)

    status, modules, stdout = run_fresh(
        tmp_path, "rba-banks", "--workers", "2", "--cache-dir", str(warm), "--profile"
    )
    assert status == 0
    assert f"disk hits     {len(grid)}" in stdout
    assert "simulations   0" in stdout
    assert loaded(modules, MISS_PATH_ONLY) == []
    # Every hit went through the one store, which brings in nothing of its
    # own: the pickle codec stays in code_cache (listed above), and
    # ``tempfile`` loads at the first write — a warm run never writes.
    assert "repro._store" in modules and "tempfile" not in modules
    figures = loaded(modules, ["repro.experiments"])
    assert "repro.experiments.rba_banks" in figures
    assert not [m for m in figures if ".fig" in m or ".ablation" in m]


_FIRST_MISS = """\
import sys
from repro.experiments.engine import ExperimentEngine, SimPoint

SIMULATOR = ("repro.gpu.gpu", "repro.core.sm", "repro.workloads.synth",
             "repro.trace.compiled", "repro.trace.code_cache")
assert not [m for m in SIMULATOR if m in sys.modules], "loaded before any miss"
at_fork = []

class Probe(ExperimentEngine):
    def _make_pool(self, n):
        at_fork.append([m for m in SIMULATOR if m in sys.modules])
        return super()._make_pool(n)

engine = Probe(workers=2, use_disk_cache=False)
engine.run_many([SimPoint("rod-nw"), SimPoint("rod-kmeans")])
assert engine.profile.sims == 2 and engine.profile.retries == 0
assert at_fork == [list(SIMULATOR)], at_fork
"""


def test_first_miss_loads_the_simulator_in_the_parent_before_the_fork(tmp_path):
    status, modules, _ = run_fresh(tmp_path, "-c", _FIRST_MISS)
    assert status == 0
    assert "repro.gpu.gpu" in modules and "concurrent.futures" in modules
