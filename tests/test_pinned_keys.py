"""Cache addresses are an on-disk contract: pinned against the pre-memo derivation.

``point_key`` assembles its hashed bytes around memoized config and
profile fragments (``repro.experiments.engine``).  Every result-cache and
trace-code-cache entry on a user's disk is named by these hashes, so they
must not move: the values below were printed by the commit before the
memo (PR 11) and a cache directory written by it is fully hit by this
code.  They cover plain / sanitize / trace / ``collect_timeline`` /
``num_sms=2`` / TPC-H apps / 4-bank designs.  (Profiles are drawn by
``repro.workloads.draw.Draw``, which reproduces numpy's ``default_rng``
in-repo, so they no longer depend on the installed numpy; a draw that
diverged would move every key of its app at once.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.config import volta_v100
from repro.experiments import designs
from repro.experiments.engine import (
    CACHE_SCHEMA,
    ExperimentEngine,
    SimPoint,
    point_key,
    resolved_config,
)
from repro.workloads import PROFILE_VERSION, compiled_code_key, get_profile

PINNED_POINT_KEYS = [
    (
        SimPoint("rod-nw", "baseline", 1, False),
        False,
        False,
        "98857d5b7f93bea2e9035e4f6ea2606cb10feb2d776673149ff14ad3eb0002b3",
    ),
    (
        SimPoint("rod-nw", "rba", 1, False),
        False,
        False,
        "f982364acfe0ce975d531e7448595d983872b7338baaa4ea4901b86955a02baf",
    ),
    (
        SimPoint("rod-nw", "baseline", 1, False),
        True,
        False,
        "4e32331fac06fe25e7ca241805e3071530ac6faa199632f20090561664555740",
    ),
    (
        SimPoint("rod-nw", "baseline", 1, False),
        False,
        True,
        "64c307a96945af21d75ccc78aad865ef052558607d4733ee16dea54549dd7dc4",
    ),
    (
        SimPoint("cg-lou", "shuffle_rba", 1, True),
        False,
        False,
        "15b7d6b32ba1abebfb625eb38317c5bda85baed336a8a205ea4f45311a8882d4",
    ),
    (
        SimPoint("pb-sgemm", "baseline", 2, False),
        False,
        False,
        "7b0d9f0edc04147ecbf4b3e825ac3de846ddd61b4a06087ed1aabc33268042c1",
    ),
    (
        SimPoint("tpcU-q8", "srr", 1, False),
        False,
        False,
        "d01c056c5c239e9ecfde632b9296f2e7620b4d091989db0b0ef6c63a87e972c4",
    ),
    (
        SimPoint("tpcC-q9", "fully_connected", 1, False),
        True,
        True,
        "ddc286e0e16df49992bd15e1667559b0cbf1be86b3edcfe108c2a682ae7d3440",
    ),
    (
        SimPoint("pb-mriq", "rba_4banks", 1, False),
        False,
        False,
        "1fe47f391c8ec2b9d6fabc5539a403e31f29932a24b7078fc4b67113ec3f97e9",
    ),
    (
        SimPoint("cutlass-4096", "baseline_4banks", 1, False),
        False,
        False,
        "9976c5d4e1387b9409ba4ef9e533a38998c2e8057fb69f00b9cc049902d10e46",
    ),
]

#: Re-pinned when ``CODE_VERSION`` moves (it is part of the key, so every
#: older artifact simply misses): these are the ``CODE_VERSION = 2`` values.
#: The point keys above do not contain it and must never move with it.
PINNED_CODE_KEYS = [
    (
        ("rod-nw", "warp_swizzle", 2),
        "2c81c7f4d0173a4b54e7b5a87c130479ce647301d9e3c9b802bb8ecfa5eedde5",
    ),
    (
        ("tpcU-q8", "warp_swizzle", 4),
        "c9a76e7e2920ffe6d30c931d9ae226535d37005800ddaf74e05b03eb55f0afc6",
    ),
    (
        ("pb-sgemm", "mod", 2),
        "b53416c7249cd4d4e4c7e2a3126c80a785c39855bdafee733ed4fe7edc016f93",
    ),
]


def reference_point_key(
    point: SimPoint, sanitize: bool = False, trace: bool = False
) -> str:
    """The derivation ``point_key`` replaced: one ``json.dumps`` of the whole payload."""
    payload = {
        "schema": CACHE_SCHEMA,
        "sim_version": "1.0.0",
        "config": dataclasses.asdict(
            resolved_config(point, sanitize=sanitize, trace=trace)
        ),
        "workload": {
            "app": point.app,
            "profile": dataclasses.asdict(get_profile(point.app)),
            "profile_version": PROFILE_VERSION,
        },
        "collect_timeline": point.collect_timeline,
        "trace": trace,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("point, sanitize, trace, expected", PINNED_POINT_KEYS)
def test_point_keys_are_where_the_parent_commit_put_them(
    point, sanitize, trace, expected
):
    assert point_key(point, sanitize=sanitize, trace=trace) == expected
    assert reference_point_key(point, sanitize=sanitize, trace=trace) == expected


@pytest.mark.parametrize(
    "args, expected",
    PINNED_CODE_KEYS,
    ids=[args[0] for args, _ in PINNED_CODE_KEYS],  # the app: stable across re-pins
)
def test_compiled_code_keys_are_where_the_parent_commit_put_them(args, expected):
    assert compiled_code_key(*args) == expected


def test_every_design_and_flag_matches_the_reference_derivation():
    FLAGS = [(False, False, False), (True, False, True), (False, True, False)]
    for design in designs.design_names():
        for app in ("rod-nw", "tpcC-q9"):
            for sanitize, trace, timeline in FLAGS:
                point = SimPoint(app, design, collect_timeline=timeline)
                flags = {"sanitize": sanitize, "trace": trace}
                assert point_key(point, **flags) == reference_point_key(
                    point, **flags
                ), point.label()


def test_memo_is_keyed_by_config_value_not_design_name(monkeypatch):
    point = SimPoint("rod-nw", "baseline")
    original = point_key(point)
    with monkeypatch.context() as patch:
        patch.setitem(
            designs.DESIGNS,
            "baseline",
            lambda: volta_v100().replace(rf_banks_per_subcore=4),
        )
        swapped = point_key(point)
        assert swapped != original
        assert swapped == reference_point_key(point)
    assert point_key(point) == original


def test_engine_remembers_keys_per_point_and_flags(tmp_path):
    point = SimPoint("rod-nw", "rba")
    plain = ExperimentEngine(cache_dir=tmp_path)
    assert plain._point_key(point) == plain._point_key(point) == point_key(point)
    checked = ExperimentEngine(cache_dir=tmp_path, sanitize=True)
    assert checked._point_key(point) == point_key(point, sanitize=True)
