"""BENCHMARK.json and perfbench.spec describe the same benchmark."""

import re

from perfbench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed(benchmark_json):
    names = [w["name"] for w in benchmark_json["workloads"]]
    names += [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(spec.END_TO_END):
        assert NAME.match(name), name
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_contract_shape(benchmark_json):
    assert set(benchmark_json) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["perfbench"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert len(benchmark_json["per_layer"]) <= 128
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])


def test_workloads_match_spec(benchmark_json):
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == spec.WORKLOADS


def test_metrics_match_spec(benchmark_json):
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.DRIVER_END_TO_END.values()
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER.values()
    ]


def test_work_per_s_carries_each_rate_metrics_bound_and_direction():
    work = spec.DRIVER_END_TO_END["work_per_s"]
    assert set(spec.WORK_METRIC) == set(spec.WORKLOADS)
    for workload, source in spec.WORK_METRIC.items():
        metric = spec.END_TO_END[source]
        assert workload in metric.on
        assert (metric.bound, metric.better) == (work.bound, work.better)
