#!/usr/bin/env python3
"""Interference sweep: a miniature version of the paper's Fig. 8 heatmaps.

Declares the sweep as a grid of :class:`repro.ScenarioSpec` values — robots
sharing the 802.11 medium x interference probability x burst duration — and
fans it out over worker processes with the :func:`repro.sweep` facade.  The
result is a uniform table with the trajectory RMSE of the stock stack and of
FoReCo for every cell; thanks to spec-derived seeding it is identical no
matter how many workers run it.  The full-size sweep lives in
``repro.experiments.fig8_simulation_heatmap`` (run it via
``foreco-experiments fig8 --jobs 4``).

Run it with::

    python examples/interference_sweep.py
"""

from __future__ import annotations

import repro
from repro.scenarios import ScenarioSpec, scenario_grid, wireless_channel

ROBOT_COUNTS = (5, 15, 25)
PROBABILITIES = (0.01, 0.05)
DURATIONS = (10, 100)
REPETITIONS = 2
JOBS = 4


def main() -> None:
    base = ScenarioSpec(
        name="interference-sweep",
        channel=wireless_channel(),
        seed=1,
        repetitions=REPETITIONS,
    )
    specs = scenario_grid(
        base,
        {
            "channel.n_robots": ROBOT_COUNTS,
            "channel.probability": PROBABILITIES,
            "channel.duration_slots": DURATIONS,
        },
    )
    print(f"{len(specs)} scenarios x {REPETITIONS} repetitions on {JOBS} workers\n")

    sweep = repro.sweep(specs, jobs=JOBS)

    header = (
        f"{'robots':>6s} {'p_if':>6s} {'T_if':>6s} {'late':>6s} "
        f"{'no-forecast':>12s} {'FoReCo':>8s} {'gain':>6s}"
    )
    print(header)
    print("-" * len(header))
    for row in sweep:
        options = row.spec.channel.options()
        print(
            f"{options['n_robots']:>6d} {options['probability']:>6.3f} "
            f"{options['duration_slots']:>6d} {row.mean_late_fraction:>6.2f} "
            f"{row.mean_rmse_no_forecast_mm:>10.2f}mm {row.mean_rmse_foreco_mm:>6.2f}mm "
            f"{row.improvement_factor:>5.1f}x"
        )

    worst = sweep.worst(metric="mean_rmse_no_forecast_mm")
    print(f"\nworst cell without forecasting: {worst.spec.channel.describe()}")
    print(f"  -> {worst.mean_rmse_no_forecast_mm:.2f} mm baseline, "
          f"{worst.mean_rmse_foreco_mm:.2f} mm with FoReCo")


if __name__ == "__main__":
    main()
