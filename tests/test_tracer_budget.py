"""Memory budget of the event tracer, counted in bytes rather than time.

Two ceilings on the bank_stealing x cg-lou point (82,828 events):

* the bytes a finished :class:`Tracer` keeps per stored event, counted by
  ``tracemalloc`` over allocations made in ``repro/obs/tracer.py``;
* the ``tracemalloc`` peak while :func:`write_chrome_trace` runs, against
  the size of the file it writes.

A tracer that keeps one dict per event (~260 bytes) or an exporter that
builds the whole document before serializing it (≈ 8x the file size)
fails them.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro.obs.tracer as tracer_module
from repro import simulate
from repro.experiments.designs import get_design
from repro.obs import Tracer, write_chrome_trace
from repro.workloads import get_kernel

RETAINED_BYTES_PER_EVENT = 100
EXPORT_PEAK_PER_FILE_BYTE = 0.5


@pytest.fixture(scope="module")
def traced():
    """The point's tracer and the bytes it retains, allocated in tracer.py."""
    kernel, config = get_kernel("cg-lou"), get_design("bank_stealing")
    tracemalloc.start()
    try:
        tracer = Tracer()
        simulate(kernel, config, num_sms=1, tracer=tracer)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, tracer_module.__file__)])
    retained = sum(stat.size for stat in mine.statistics("filename"))
    return tracer, retained


def test_retained_bytes_per_event(traced):
    tracer, retained = traced
    assert len(tracer) == 82828
    per_event = retained / len(tracer)
    assert per_event <= RETAINED_BYTES_PER_EVENT, f"{per_event:.1f} bytes/event"


def test_export_peak_is_a_fraction_of_the_file(traced, tmp_path):
    tracer, _ = traced
    path = tmp_path / "trace.json"
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_chrome_trace(tracer, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= EXPORT_PEAK_PER_FILE_BYTE * size, f"peak {peak} B for a {size} B file"
