"""Fig. 9 — controlled consecutive-loss experiments.

In the paper's first experimental analysis (§VI-D1), the remote controller
deliberately drops 5, 10 or 25 consecutive control commands at random points
of a 30-second run, and the robot trajectory is recorded with the stock stack
and with FoReCo injecting VAR forecasts.  Each burst length is one
``loss-burst`` :class:`ScenarioSpec`, executed through the scenario sweep
engine.  Reported outcomes:

* FoReCo reduces the trajectory error for every burst length;
* its RMSE stays in the single-digit millimetre range, consistent with the
  5-robot simulation heatmap;
* the forecast drifts progressively as the burst length grows, because each
  forecast is built from prior forecasts (error propagation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import ForecoConfig, SimulationOutcome
from ..scenarios import SweepExecutor, loss_burst_channel, scenario_grid
from .common import (
    FIG9_BURST_LENGTHS,
    ExperimentScale,
    base_scenario,
    get_scale,
)


@dataclass
class Fig9Result:
    """Per-burst-length comparison of no-forecast vs FoReCo."""

    burst_lengths: list[int]
    rmse_no_forecast_mm: dict[int, float] = field(default_factory=dict)
    rmse_foreco_mm: dict[int, float] = field(default_factory=dict)
    max_error_foreco_mm: dict[int, float] = field(default_factory=dict)
    trajectories: dict[int, SimulationOutcome] = field(default_factory=dict, repr=False)

    def to_text(self) -> str:
        """Text rendering of the three Fig. 9 panels."""
        lines = ["# Fig. 9 — controlled consecutive command losses"]
        header = "burst | no-forecast RMSE [mm] | FoReCo RMSE [mm] | improvement | FoReCo max error [mm]"
        lines.append(header)
        lines.append("-" * len(header))
        for burst in self.burst_lengths:
            baseline = self.rmse_no_forecast_mm[burst]
            foreco = self.rmse_foreco_mm[burst]
            lines.append(
                f"{burst:5d} | {baseline:21.2f} | {foreco:16.2f} | x{baseline / max(foreco, 1e-9):10.1f} "
                f"| {self.max_error_foreco_mm[burst]:20.2f}"
            )
        return "\n".join(lines)

    def improvement_factor(self, burst: int) -> float:
        """No-forecast RMSE over FoReCo RMSE for one burst length."""
        return self.rmse_no_forecast_mm[burst] / max(self.rmse_foreco_mm[burst], 1e-9)

    def to_dict(self) -> dict:
        """JSON-safe rendering of the per-burst table."""
        return {
            "experiment": "fig9",
            "burst_lengths": list(self.burst_lengths),
            "rmse_no_forecast_mm": {str(b): self.rmse_no_forecast_mm[b] for b in self.burst_lengths},
            "rmse_foreco_mm": {str(b): self.rmse_foreco_mm[b] for b in self.burst_lengths},
            "max_error_foreco_mm": {str(b): self.max_error_foreco_mm[b] for b in self.burst_lengths},
            "improvement_factor": {
                str(b): self.improvement_factor(b) for b in self.burst_lengths
            },
        }


def run(
    scale: str | ExperimentScale = "ci",
    seed: int = 42,
    burst_lengths: tuple[int, ...] = FIG9_BURST_LENGTHS,
    n_bursts: int = 5,
    config: ForecoConfig | None = None,
    jobs: int = 1,
) -> Fig9Result:
    """Reproduce the Fig. 9 controlled-loss experiments."""
    scale = get_scale(scale)
    base = base_scenario(
        "fig9",
        scale,
        seed,
        config,
        channel=loss_burst_channel(burst_length=5, n_bursts=n_bursts, min_gap=60),
        run_seconds=scale.run_seconds,
    )
    specs = scenario_grid(base, {"channel.burst_length": burst_lengths})
    executor = SweepExecutor(jobs=jobs)
    sweep = executor.run(specs)

    result = Fig9Result(burst_lengths=list(burst_lengths))
    for burst, row in zip(burst_lengths, sweep):
        trajectories = executor.engine.trajectories(row)
        foreco_errors = _per_step_errors(trajectories)
        result.rmse_no_forecast_mm[burst] = row.mean_rmse_no_forecast_mm
        result.rmse_foreco_mm[burst] = row.mean_rmse_foreco_mm
        result.max_error_foreco_mm[burst] = float(foreco_errors.max()) if foreco_errors.size else 0.0
        result.trajectories[burst] = trajectories
    return result


def _per_step_errors(outcome: SimulationOutcome) -> np.ndarray:
    """Per-slot Cartesian error of the FoReCo trajectory against the defined one."""
    from ..robot.niryo import NiryoOneArm

    arm = NiryoOneArm()
    executed = arm.kinematics.positions(outcome.foreco.joints) * 1000.0
    defined = arm.kinematics.positions(outcome.defined.joints) * 1000.0
    return np.linalg.norm(executed - defined, axis=1)
