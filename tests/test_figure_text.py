"""The printed text of nine experiment modules, pinned at trimmed sizes.

These are the modules whose points are microbenchmarks, profile variants
or config overrides: Fig. 3, Fig. 8, Fig. 18, the Sec. V collector-unit
validation, the two extension studies, the two ablations and the generic
sweep.  Each case pins the SHA-256 and length of ``format_result`` (or
``format_grid``) so that a change to how their points are executed must
leave every printed byte as it was.  On a mismatch the assertion message
shows the text that was produced.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.experiments as ex
from repro.experiments import sweep as sw

from .test_sweep import two_by_two_sweep


def _fig03() -> str:
    mod = ex.fig03_fma_imbalance
    return mod.format_result(mod.run(fmas=64))


def _fig08() -> str:
    mod = ex.fig08_imbalance_scaling
    return mod.format_result(mod.run(imbalances=(1, 8), base_fmas=16))


def _fig18() -> str:
    mod = ex.fig18_sm_scaling
    return mod.format_result(
        mod.run(apps=("pb-sgemm",), sweep=(1, 2), fc_sms=1, num_ctas=8)
    )


def _cu_validation() -> str:
    mod = ex.cu_validation
    return mod.format_result(mod.run(insts=96, warps=16))


def _subcore_granularity() -> str:
    mod = ex.subcore_granularity
    return mod.format_result(mod.run(apps=("ply-syrk",), fmas=32))


def _work_stealing() -> str:
    mod = ex.work_stealing_study
    return mod.format_result(
        mod.run(apps=("ply-syrk",), imbalance=4, latencies=(0, 64))
    )


def _ablation_mapping() -> str:
    mod = ex.ablation_bank_mapping
    return mod.format_result(mod.run(apps=("ply-syrk",)))


def _ablation_scheduler() -> str:
    mod = ex.ablation_baseline_scheduler
    return mod.format_result(mod.run(apps=("ply-syrk", "rod-kmeans")))


def _sweep() -> str:
    return sw.format_grid(two_by_two_sweep())


#: name -> (text producer, SHA-256 of the UTF-8 text, length in characters)
PINNED = {
    "fig03": (
        _fig03,
        "d15719563bb6668777b2a51106d82b70a44d075e79cd8ecec32ff26f6683b07c",
        381,
    ),
    "fig08": (
        _fig08,
        "63fb9fc7b38136849bffe9ea8424d5a67f4479bbd3d27602858af2506e16dae4",
        253,
    ),
    "fig18": (
        _fig18,
        "5e463ff77453a4db0bc5b373b2f64fa7600e99a251929a5ccdb66e5d78ac952c",
        352,
    ),
    "cu_validation": (
        _cu_validation,
        "24e4af688e6c159b3b280697a5621b8de963f5fc9103413de3787afca967997a",
        796,
    ),
    "subcore_granularity": (
        _subcore_granularity,
        "dae03c7220c53a2cdef44239116dff0b7e58ab5216a4ebca83bb7646d11daa6a",
        399,
    ),
    "work_stealing_study": (
        _work_stealing,
        "17d35a38383d64e995fb0041ec9441a3bd95d7d5390060caec1f197ecf46658a",
        528,
    ),
    "ablation_bank_mapping": (
        _ablation_mapping,
        "0b100de6a1aeef8a61aaa2905c36dc23dba71d3084b822cd0bb0400ffac30ea4",
        375,
    ),
    "ablation_baseline_scheduler": (
        _ablation_scheduler,
        "5a9b6e280cf7f5c69e2fe469c5983e1ea2629ea8b0ff2c52819d15d83914bb5d",
        387,
    ),
    "sweep": (
        _sweep,
        "12273a3bdc970436bbecd361a15dea0c780f367424b032767e9d0324c9df5a61",
        168,
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_printed_text_is_pinned(name):
    produce, digest, length = PINNED[name]
    text = produce()
    got = (hashlib.sha256(text.encode("utf-8")).hexdigest(), len(text))
    assert got == (digest, length), f"{name} printed:\n{text}"
