"""perfbench — the layered host-performance benchmark of the repro simulator.

Six workloads, each chosen to put the work in a different layer, measured
from outside through the package's public functions.  ``python -m
perfbench`` prints every metric by name; ``perfbench/run.py`` is the
one-workload entry point described by ``BENCHMARK.json``.  See
``perfbench/README.md``.
"""
