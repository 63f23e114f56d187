#!/usr/bin/env python3
"""Controlled consecutive-loss recovery: a miniature of the paper's Fig. 9.

Deliberately drops bursts of 5, 10 and 25 consecutive commands from a
pick-and-place run — each burst length is one variation of the
``bursty-loss`` scenario preset — and shows, around one burst, how the
end-effector distance-from-origin evolves for:

* the defined trajectory (what the operator commanded),
* the stock stack (repeats the last command during the burst),
* FoReCo (injects VAR forecasts).

Run it with::

    python examples/controlled_loss_recovery.py
"""

from __future__ import annotations

import numpy as np

from repro import SessionEngine, get_scenario, sweep
from repro.robot import NiryoOneArm


def text_plot(times_s: np.ndarray, series: dict[str, np.ndarray], width: int = 60) -> str:
    """Tiny ASCII rendering of a few distance-from-origin curves."""
    lines = []
    all_values = np.concatenate(list(series.values()))
    low, high = float(all_values.min()), float(all_values.max())
    span = max(high - low, 1e-9)
    for label, values in series.items():
        marks = [" "] * width
        for value in values:
            index = int((value - low) / span * (width - 1))
            marks[index] = "#"
        lines.append(f"{label:<12s} [{low:6.1f} mm] {''.join(marks)} [{high:6.1f} mm]")
    lines.append(f"(window {times_s[0]:.2f}s .. {times_s[-1]:.2f}s)")
    return "\n".join(lines)


def main() -> None:
    arm = NiryoOneArm()
    base = get_scenario("bursty-loss", seed=1).with_channel(n_bursts=4, min_gap=80)

    # One facade call resolves all three burst lengths (sharing datasets and
    # the trained forecaster across them).
    bursts = (5, 10, 25)
    results = sweep([base.with_channel(burst_length=burst) for burst in bursts])
    engine = SessionEngine()

    for burst, result in zip(bursts, results):
        # Replay the last repetition's kept delay trace for its trajectories.
        trajectories = engine.trajectories(result)
        print(f"== {burst} consecutive losses ==")
        print(f"   no-forecast RMSE {result.mean_rmse_no_forecast_mm:6.2f} mm")
        print(f"   FoReCo RMSE      {result.mean_rmse_foreco_mm:6.2f} mm "
              f"(x{result.improvement_factor:.1f} better)")

        # Zoom on the first burst, plus a little context either side.
        mask = ~np.isfinite(result.delays_ms)
        commands = trajectories.defined.joints
        start = int(np.argmax(mask))
        window = slice(max(0, start - 10), min(commands.shape[0], start + burst + 15))
        times = np.arange(commands.shape[0])[window] * 0.02
        series = {
            "defined": arm.trajectory_distance_mm(commands[window]),
            "no forecast": arm.trajectory_distance_mm(trajectories.baseline.joints[window]),
            "FoReCo": arm.trajectory_distance_mm(trajectories.foreco.joints[window]),
        }
        print(text_plot(times, series))
        print()


if __name__ == "__main__":
    main()
