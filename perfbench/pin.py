"""Record the digests the benchmark pins, one per workload and seed.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-31

Each seed's workload is set up and served once; the result digest is
written to ``perfbench/pins.json`` together with the engine epoch and NumPy
version it holds for.  Re-pin only after a change that is meant to alter
results (an engine-epoch bump), never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT, PINS, _pin_process


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv=None) -> int:
    """Serve every workload once per seed and write the pin file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,2,5")
    args = parser.parse_args(argv)
    _pin_process()
    import numpy

    from repro.scenarios import ENGINE_EPOCH
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    for name, workload_class in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            workload = workload_class(seed, OUT)
            workload.setup()
            workload.prepare()
            outcome = workload.summarize(workload.request())
            workload.cleanup()
            if outcome.problems:
                print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}", flush=True)
    pins = {"engine_epoch": ENGINE_EPOCH, "numpy": numpy.__version__, "digests": digests}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
