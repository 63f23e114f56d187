#!/usr/bin/env python3
"""Plugging a custom forecasting algorithm into FoReCo.

The paper notes that "FoReCo is flexible to support other forecasting
algorithms, which can be integrated in a modular fashion".  This example
implements a small custom forecaster — per-joint linear extrapolation of the
last two commands — against the :class:`repro.forecasting.Forecaster`
interface, registers it under a name with
:func:`repro.forecasting.register_forecaster`, and compares it with the
built-in VAR, MA, exponential-smoothing and VARMA algorithms on the same
bursty-loss scenario by sweeping the ``foreco.algorithm`` axis of a
:class:`repro.ScenarioSpec` grid.

Run it with::

    python examples/custom_forecaster.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro import get_scenario
from repro.forecasting import Forecaster, register_forecaster
from repro.scenarios import scenario_grid


class LinearExtrapolationForecaster(Forecaster):
    """Predict the next command by continuing the last observed joint velocity."""

    name = "linear-extrapolation"

    def _fit(self, commands: np.ndarray) -> None:
        # Nothing to learn: the forecaster only uses the last two commands.
        return None

    def _predict_next(self, history: np.ndarray) -> np.ndarray:
        if history.shape[0] < 2:
            return history[-1]
        return history[-1] + (history[-1] - history[-2])


LABELS = {
    "var": "VAR (paper prototype)",
    "ma": "Moving Average",
    "ses": "Exponential smoothing",
    "varma": "VARMA (future work)",
    "linear-extrapolation": "custom linear extrapolation",
}


def main() -> None:
    # Once registered, the custom algorithm is addressable by name from any
    # ScenarioSpec — exactly like the built-ins.
    register_forecaster("linear-extrapolation", LinearExtrapolationForecaster)

    base = get_scenario("bursty-loss", seed=9).with_channel(burst_length=15)
    specs = scenario_grid(base, {"foreco.algorithm": tuple(LABELS)})
    # jobs=2 forks worker processes, which inherit the registration; where
    # the platform cannot fork (Windows), sweep runtime registrations with jobs=1.
    sweep = repro.sweep(specs, jobs=2)

    print(f"{'forecaster':<30s} {'FoReCo RMSE [mm]':>18s}")
    print("-" * 50)
    for row in sweep:
        label = LABELS[row.spec.foreco.algorithm]
        print(f"{label:<30s} {row.mean_rmse_foreco_mm:>18.2f}")


if __name__ == "__main__":
    main()
