"""Fig. 10 — jammed-channel experiment with PID recovery transient.

In the paper's second experimental analysis (§VI-D2), a 2.4 GHz jammer
interferes with the wireless channel for a 30-second run.  The reported
outcomes are:

* FoReCo reduces the trajectory RMSE by more than 2x (18.91 mm → 8.72 mm);
* during long jam bursts FoReCo's forecast slowly drifts (the same error
  propagation as Fig. 9);
* after the channel recovers, the stock stack's MoveIt PID controller needs
  ≈400 ms to settle back onto the defined trajectory, because it received
  repeated commands for over a second.

This module reproduces the run as a single ``jammer`` :class:`ScenarioSpec`
(Gilbert–Elliott channel, PID joint controller enabled) resolved through the
scenario session engine, and reports the RMSE pair, the improvement factor
and the measured PID settling time after the longest jam burst.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..core import ForecoConfig, SimulationOutcome
from ..robot.niryo import NiryoOneArm
from ..scenarios import SessionEngine, jammer_channel
from ..wireless import JammerConfig
from .common import ExperimentScale, base_scenario, get_scale


@dataclass
class Fig10Result:
    """Jammed-run comparison between the stock stack and FoReCo."""

    rmse_no_forecast_mm: float
    rmse_foreco_mm: float
    jammed_fraction: float
    longest_burst_commands: int
    pid_settling_ms: float
    trajectories: SimulationOutcome

    @property
    def improvement_factor(self) -> float:
        """No-forecast RMSE divided by FoReCo RMSE (paper: ≈2x)."""
        return self.rmse_no_forecast_mm / max(self.rmse_foreco_mm, 1e-9)

    def to_text(self) -> str:
        """Human-readable summary of the Fig. 10 reproduction."""
        return "\n".join(
            [
                "# Fig. 10 — robot trajectory upon IEEE 802.11 jammer interference",
                f"no-forecast RMSE [mm] : {self.rmse_no_forecast_mm:.2f}",
                f"FoReCo RMSE [mm]      : {self.rmse_foreco_mm:.2f}",
                f"improvement           : x{self.improvement_factor:.2f}",
                f"jammed command share  : {self.jammed_fraction:.2f}",
                f"longest jam burst     : {self.longest_burst_commands} commands",
                f"PID settling time     : {self.pid_settling_ms:.0f} ms after channel recovery",
            ]
        )

    def to_dict(self) -> dict:
        """JSON-safe rendering of the headline numbers."""
        return {
            "experiment": "fig10",
            "rmse_no_forecast_mm": self.rmse_no_forecast_mm,
            "rmse_foreco_mm": self.rmse_foreco_mm,
            "improvement_factor": self.improvement_factor,
            "jammed_fraction": self.jammed_fraction,
            "longest_burst_commands": self.longest_burst_commands,
            "pid_settling_ms": self.pid_settling_ms,
        }


def run(
    scale: str | ExperimentScale = "ci",
    seed: int = 42,
    jammer_config: JammerConfig | None = None,
    config: ForecoConfig | None = None,
    use_pid: bool = True,
    jobs: int = 1,
) -> Fig10Result:
    """Reproduce the jammed-channel experiment (``jobs`` accepted for CLI uniformity)."""
    scale = get_scale(scale)
    channel_params = asdict(jammer_config) if jammer_config is not None else {}
    spec = base_scenario(
        "fig10",
        scale,
        seed,
        config,
        channel=jammer_channel(**channel_params),
        run_seconds=scale.run_seconds,
        use_pid=use_pid,
    )
    engine = SessionEngine()
    row = engine.run(spec)
    trajectories = engine.trajectories(row)
    delays = row.delays_ms

    period_ms = spec.foreco.command_period_ms
    deadline_ms = spec.foreco.to_config().deadline_ms
    late_mask = ~np.isfinite(delays) | (delays > deadline_ms)
    longest = _longest_run(late_mask)
    settling_ms = _pid_settling_after_recovery(trajectories, late_mask, period_ms)

    return Fig10Result(
        rmse_no_forecast_mm=trajectories.rmse_no_forecast_mm,
        rmse_foreco_mm=trajectories.rmse_foreco_mm,
        jammed_fraction=float(late_mask.mean()),
        longest_burst_commands=longest,
        pid_settling_ms=settling_ms,
        trajectories=trajectories,
    )


def _longest_run(mask: np.ndarray) -> int:
    """Length of the longest run of ``True`` entries."""
    longest = current = 0
    for value in mask:
        current = current + 1 if value else 0
        longest = max(longest, current)
    return int(longest)


def _pid_settling_after_recovery(
    outcome: SimulationOutcome, late_mask: np.ndarray, period_ms: float, threshold_mm: float | None = None
) -> float:
    """Time the baseline needs to settle back after the longest outage ends.

    Mirrors the paper's observation that the PID takes ≈400 ms to re-converge
    after the channel recovers from a long jam burst.  The settling threshold
    defaults to the baseline's own steady-state error level (its median error
    over slots whose command arrived on time) plus a 3 mm margin.
    """
    arm = NiryoOneArm()
    baseline = arm.kinematics.positions(outcome.baseline.joints) * 1000.0
    defined = arm.kinematics.positions(outcome.defined.joints) * 1000.0
    errors = np.linalg.norm(baseline - defined, axis=1)
    if threshold_mm is None:
        on_time_errors = errors[~late_mask] if np.any(~late_mask) else errors
        threshold_mm = float(np.median(on_time_errors)) + 3.0

    # Find the end of the longest outage.
    longest_end = 0
    longest_length = 0
    current = 0
    for index, late in enumerate(late_mask):
        if late:
            current += 1
            if current > longest_length:
                longest_length = current
                longest_end = index
        else:
            current = 0
    if longest_length == 0:
        return 0.0
    recovery_start = longest_end + 1
    settled_slots = 0
    for index in range(recovery_start, errors.size):
        settled_slots = index - recovery_start
        if errors[index] <= threshold_mm:
            break
    return float(settled_slots * period_ms)
