"""Regenerate every figure at full scale and dump the report to stdout.

Run:  python scripts/generate_experiments.py > experiments_full.txt

Runs every ``python -m repro list`` name, at the CLI's sizes except where
``SIZES`` says otherwise.  One process so the engine's memory cache is
shared across figures (the Fig. 1 baseline runs are the Fig. 9/10
denominators).  Takes tens of minutes on one core.
"""

import time

from repro.__main__ import EXPERIMENTS, experiment_module
from repro.experiments import get_engine

#: ``run`` arguments of the figures that the report runs larger than the CLI.
SIZES = {
    "fig03": {"fmas": 1024},
    "fig08": {"base_fmas": 128},
    "cu-validation": {"insts": 256},
}


def main():
    t0 = time.time()
    for name in EXPERIMENTS:
        start = time.time()
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}", flush=True)
        try:
            figure = experiment_module(name)
            print(figure.format_result(figure.run(**SIZES.get(name, {}))))
        except Exception as err:  # keep going; report the failure
            print(f"!! FAILED: {err!r}")
        print(f"[{time.time() - start:.0f}s]", flush=True)
    cached = get_engine().memory_cache_size()
    print(f"\nTOTAL: {time.time() - t0:.0f}s, cache={cached} entries")


if __name__ == "__main__":
    main()
