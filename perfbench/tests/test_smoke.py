"""The smoke sizing walks every code path and reports every registered name."""

import json
import subprocess
import sys

from conftest import REPO
from perfbench import spec


def test_smoke_report_has_every_workload_and_metric_with_its_unit(smoke_report):
    assert list(smoke_report["workloads"]) == list(spec.WORKLOADS)
    assert smoke_report["failed_share"] == 0
    for name, section in smoke_report["workloads"].items():
        expected = {m.name: m.unit for m in spec.END_TO_END.values() if name in m.on}
        assert {k: v["unit"] for k, v in section["metrics"].items()} == expected
        assert {k: v["unit"] for k, v in section["layers"].items()} == {
            m.name: m.unit for m in spec.PER_LAYER.values()
        }
        assert section["failed"] == 0 and section["attempted"] >= 1
        assert section["sizes"]["rounds"] >= 2
        for metric, entry in section["metrics"].items():
            assert f"  {metric:<30}" in smoke_report["_stdout"]
            if metric != "failed_share":
                assert entry["value"] > 0, (name, metric)


def test_every_per_layer_metric_is_measured_somewhere(smoke_report):
    # A cold figure with app-affinity chunks compiles each trace once and
    # loads none; code_loads turns non-zero only if chunking splits an app.
    for metric in set(spec.PER_LAYER) - {"experiments.code_loads"}:
        assert any(
            section["layers"][metric]["value"] for section in smoke_report["workloads"].values()
        ), f"{metric} is 0 on every workload"


def test_cycle_loop_is_idle_where_the_workload_says_so(smoke_report):
    shares = ("gpu.self_share", "memory.self_share", "core.sm_share", "core.subcore_share")
    for name in (spec.TRACE_BUILD, spec.FIGURE_WARM):
        layers = smoke_report["workloads"][name]["layers"]
        assert all(layers[s]["value"] == 0 for s in shares)
    for name in (spec.LOOP_DENSE, spec.LOOP_SPARSE):
        layers = smoke_report["workloads"][name]["layers"]
        self_time = [k for k in layers if k.endswith("_share") and k.startswith(("gpu.self", "core.", "memory."))]
        assert sum(layers[k]["value"] for k in self_time) >= 0.85
        assert 0 < layers["gpu.stepped_cycle_share"]["value"] <= 1


def test_span_files_hold_self_times_within_their_parents(smoke_report):
    for name in spec.WORKLOADS:
        spans = json.loads((REPO / "perfbench" / "out" / f"trace-{name}.json").read_text())
        assert spans, name
        by_id = {s["id"]: s for s in spans}
        children = {}
        for s in spans:
            assert s["workload"] == name and s["end"] >= s["start"]
            assert -1e-9 <= s["self_s"] <= s["end"] - s["start"] + 1e-9
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        for parent, kids in children.items():
            span = by_id[parent]
            assert sum(k["end"] - k["start"] for k in kids) <= span["end"] - span["start"] + 1e-6


def _driver_line(*extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", spec.LOOP_SPARSE, "--seed", "3", "--seconds", "1", "--smoke", *extra],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_driver_line_follows_the_contract(benchmark_json):
    timed = _driver_line("--trace", "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] is True and timed["failed"] == 0 and timed["attempted"] >= 1
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == {
        m["name"]: m["unit"] for m in benchmark_json["end_to_end"]
    }
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    traced = _driver_line("--trace", "1")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in benchmark_json["per_layer"]
    }


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for src in (REPO / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_text(src.read_text())
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", spec.LOOP_DENSE, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
