"""``pytest perfbench/tests -q`` from the repo root (not part of tier-1 ``testpaths``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
for path in (REPO / "src", REPO):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def smoke_report(tmp_path_factory) -> dict:
    """One ``--smoke --traced`` run of the real command, shared by the session."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--traced", "--out", str(out)],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    report = json.loads(out.read_text())
    report["_stdout"] = proc.stdout
    return report
