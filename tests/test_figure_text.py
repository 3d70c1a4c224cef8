"""The printed text of every experiment, pinned at trimmed sizes.

One case per ``python -m repro list`` name, plus the generic sweep's grid.
Each case resolves its figure the way the CLI does (``experiment_module``),
runs it on a trimmed population and pins the SHA-256 and length of
``format_result`` (or ``format_grid``), so that a change to how figures are
declared, executed or reduced must leave every printed byte as it was.  On
a mismatch the assertion message shows the text that was produced.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import pytest

from repro.__main__ import EXPERIMENTS, experiment_module
from repro.experiments import sweep as sw

from .test_sweep import two_by_two_sweep

#: Two apps a speedup figure can reduce over: one RF-sensitive, one not.
TWO_APPS = ["ply-syrk", "rod-kmeans"]
ONE_APP = ["ply-syrk"]


def _text(name: str, *args, **kwargs) -> Callable[[], str]:
    """A producer of the text ``python -m repro NAME`` prints, at these sizes."""

    def produce() -> str:
        fig = experiment_module(name)
        return fig.format_result(fig.run(*args, **kwargs))

    return produce


def _sweep() -> str:
    return sw.format_grid(two_by_two_sweep())


#: name -> (text producer, SHA-256 of the UTF-8 text, length in characters)
PINNED = {
    "fig01": (
        _text("fig01", TWO_APPS),
        "feeee41581aebdf5bf0a964add406ba44b1e07b6e61d23a2ceff5b907306d19a",
        864,
    ),
    "fig03": (
        _text("fig03", fmas=64),
        "d15719563bb6668777b2a51106d82b70a44d075e79cd8ecec32ff26f6683b07c",
        381,
    ),
    "fig08": (
        _text("fig08", imbalances=(1, 8), base_fmas=16),
        "63fb9fc7b38136849bffe9ea8424d5a67f4479bbd3d27602858af2506e16dae4",
        253,
    ),
    "fig09": (
        _text("fig09", TWO_APPS),
        "d54336b07e8471d23d5cedc3c0d054102dc88aff7dbcee4a12bcb4699438b925",
        420,
    ),
    "fig10": (
        _text("fig10", ONE_APP),
        "efc03630b42da4334f8766bd047ac540bcd6c92a167f7b8850846a86e0d14cb8",
        597,
    ),
    "fig11": (
        _text("fig11", TWO_APPS),
        "4347d5b3ed162d037bce5a486206bdef0cef68f6a074d8916f62004549b18346",
        471,
    ),
    "fig12": (
        _text("fig12", ONE_APP),
        "65100c49e102c132c2298a00df0b73f8ac3696729bf7c77ae7fda866fe818838",
        536,
    ),
    "fig13": (
        _text("fig13"),
        "efe094f2bab81d589221f16cdb576e0f86d8de8e03a6a7cae5479668f257bff9",
        406,
    ),
    "fig14": (
        _text("fig14", ONE_APP),
        "f1211c692122b4a0a3987e55970654c6ab6fe6eb923668691801671d88d454aa",
        799,
    ),
    "fig15": (
        _text("fig15", ["tpcC-q1"]),
        "b197ceb9d4070e0d7dc1a606e99de243f8c5b2fb5945db0c9a13e8fd8d9ba875",
        466,
    ),
    "fig16": (
        _text("fig16", ["tpcU-q8"]),
        "5ad3cdcc6fb3cf9e8ef76b0347bdd162409008641617f0e98a469e0872f8b2da",
        482,
    ),
    "fig17": (
        _text("fig17", ["tpcU-q1"]),
        "d24938b0312001052d56f808f759f7357882acf6a0a9e9bceb290d3765def743",
        348,
    ),
    "fig18": (
        _text("fig18", apps=("pb-sgemm",), sweep=(1, 2), fc_sms=1, num_ctas=8),
        "5e463ff77453a4db0bc5b373b2f64fa7600e99a251929a5ccdb66e5d78ac952c",
        352,
    ),
    "cu-validation": (
        _text("cu-validation", insts=96, warps=16),
        "24e4af688e6c159b3b280697a5621b8de963f5fc9103413de3787afca967997a",
        796,
    ),
    "rba-latency": (
        _text("rba-latency", ONE_APP, latencies=(0, 20)),
        "6627f35651f5c51a0e4bb521e461a6854dd846be6b94c66a4b48256fa0321a67",
        267,
    ),
    "rba-banks": (
        _text("rba-banks", ONE_APP),
        "a2a1e8f99a435a7916254a7f2e6d9359f5c774cd932cc196e9c1062e6a960c1d",
        302,
    ),
    "hash-table": (
        _text("hash-table", ONE_APP),
        "7561ec447c89833be3f13e9030d78921859dfdd116574b5c01d857a076215381",
        234,
    ),
    # headline reduces over the sensitive apps among its population, so the
    # trimmed population holds one.
    "headline": (
        _text("headline", ["ply-syrk", "rod-bp"]),
        "2a326f28f1f1824bab38e8c12064fb5c8ad2c0afb231063cb42df3d6704bf2fd",
        293,
    ),
    "ablation-mapping": (
        _text("ablation-mapping", apps=("ply-syrk",)),
        "0b100de6a1aeef8a61aaa2905c36dc23dba71d3084b822cd0bb0400ffac30ea4",
        375,
    ),
    "subcore-granularity": (
        _text("subcore-granularity", apps=("ply-syrk",), fmas=32),
        "dae03c7220c53a2cdef44239116dff0b7e58ab5216a4ebca83bb7646d11daa6a",
        399,
    ),
    "work-stealing": (
        _text("work-stealing", apps=("ply-syrk",), imbalance=4, latencies=(0, 64)),
        "17d35a38383d64e995fb0041ec9441a3bd95d7d5390060caec1f197ecf46658a",
        528,
    ),
    "effect4": (
        _text("effect4"),
        "532f5043973413ca83bc3ab0298aa109b01bfdd97807328101cf995fdc9d95b9",
        461,
    ),
    "ablation-scheduler": (
        _text("ablation-scheduler", apps=("ply-syrk", "rod-kmeans")),
        "5a9b6e280cf7f5c69e2fe469c5983e1ea2629ea8b0ff2c52819d15d83914bb5d",
        387,
    ),
    "sweep": (
        _sweep,
        "12273a3bdc970436bbecd361a15dea0c780f367424b032767e9d0324c9df5a61",
        168,
    ),
}


def test_every_cli_name_is_pinned():
    assert set(PINNED) == {*EXPERIMENTS, "sweep"}


@pytest.mark.parametrize("name", list(PINNED))
def test_printed_text_is_pinned(name):
    produce, digest, length = PINNED[name]
    text = produce()
    got = (hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text))
    assert got == (digest, length), f"{name} printed:\n{text}"
