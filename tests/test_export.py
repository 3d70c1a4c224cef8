"""Tests for JSON export of stats and experiment results."""

import json

import pytest

from repro import simulate, volta_v100
from repro.experiments import dump_json, load_json, stats_to_dict
from repro.experiments import speedups
from repro.workloads import fma_microbenchmark


@pytest.fixture(scope="module")
def stats():
    return simulate(fma_microbenchmark("baseline", fmas=16), volta_v100(), num_sms=1)


class TestStatsExport:
    def test_roundtrips_through_json(self, stats):
        payload = json.loads(dump_json(stats))
        assert payload["cycles"] == stats.cycles
        assert payload["derived"]["ipc"] == pytest.approx(stats.ipc)
        assert len(payload["sms"]) == 1

    def test_timeline_dropped_by_default(self, stats):
        payload = stats_to_dict(stats)
        assert "rf_read_timeline" not in payload["sms"][0]

    def test_timeline_kept_when_requested(self):
        s = simulate(
            fma_microbenchmark("baseline", fmas=8), volta_v100(), num_sms=1,
            collect_timeline=True,
        )
        payload = stats_to_dict(s, include_timeline=True)
        assert "rf_read_timeline" in payload["sms"][0]

    def test_file_io(self, stats, tmp_path):
        path = tmp_path / "stats.json"
        dump_json(stats, path)
        loaded = load_json(path)
        assert loaded["instructions"] == stats.instructions


class TestResultExport:
    def test_figure_result_serializes(self):
        rows = speedups.FIG01.run(["rod-nw"])
        payload = json.loads(dump_json(rows))
        assert payload[0][0] == "rod-nw"
        assert payload[0][1] == rows[0][1]

    def test_plain_containers_pass_through(self):
        assert json.loads(dump_json({"x": [1, 2.5, None, True]})) == {
            "x": [1, 2.5, None, True]
        }

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError):
            dump_json({"bad": object()})
