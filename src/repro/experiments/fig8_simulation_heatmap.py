"""Fig. 8 — simulation heatmaps: trajectory RMSE with and without FoReCo.

The paper replays the inexperienced operator's command stream through the
IEEE 802.11 analytical model for 5 / 15 / 25 robots sharing the medium, and
sweeps the interference probability (1%, 2.5%, 5%) and duration (10, 50, 100
slots).  For every cell it averages the trajectory RMSE over 40 repetitions,
once with the stock robot stack ("no forecasting") and once with FoReCo.

The sweep itself is declarative: one :class:`ScenarioSpec` per heatmap cell,
expanded with :func:`repro.scenarios.scenario_grid` and executed by the
:class:`repro.scenarios.SweepExecutor` (the cells differ only in channel, so
they form one kernel group and run as one stacked pass for any ``jobs``).

Reported outcome (the shape this experiment reproduces):

* the no-forecast error grows sharply with interference probability/duration
  and with the number of robots;
* FoReCo keeps the error bounded and roughly an order of magnitude smaller
  in the mild-to-moderate cells, and still wins in the worst cells;
* FoReCo's own error grows mildly along the same axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.heatmap import HeatmapGrid
from ..analysis.sweeps import heatmap_from_sweep
from ..core import ForecoConfig
from ..scenarios import SweepExecutor, scenario_grid, wireless_channel
from .common import (
    FIG8_DURATIONS,
    FIG8_PROBABILITIES,
    FIG8_ROBOT_COUNTS,
    ExperimentScale,
    base_scenario,
    get_scale,
)


@dataclass
class Fig8Result:
    """Per-robot-count heatmap pairs (no-forecast vs FoReCo)."""

    robot_counts: list[int]
    no_forecast: dict[int, HeatmapGrid] = field(default_factory=dict)
    foreco: dict[int, HeatmapGrid] = field(default_factory=dict)
    repetitions: int = 0

    def to_text(self) -> str:
        """Render all six heatmaps (paper layout: top row no-forecast, bottom FoReCo)."""
        blocks = [f"# Fig. 8 — trajectory RMSE heatmaps ({self.repetitions} repetitions/cell)"]
        for robots in self.robot_counts:
            blocks.append(self.no_forecast[robots].to_text())
            blocks.append(self.foreco[robots].to_text())
            blocks.append("")
        blocks.append(self.summary_text())
        return "\n".join(blocks)

    def summary_text(self) -> str:
        """The headline numbers the paper quotes from the figure."""
        lines = ["# summary"]
        for robots in self.robot_counts:
            worst_foreco = self.foreco[robots].max_mean()
            worst_baseline = self.no_forecast[robots].max_mean()
            lines.append(
                f"{robots:2d} robots: worst-cell no-forecast {worst_baseline:8.2f} mm, "
                f"worst-cell FoReCo {worst_foreco:6.2f} mm, "
                f"improvement x{worst_baseline / max(worst_foreco, 1e-9):.1f}"
            )
        return "\n".join(lines)

    def improvement_factor(self, robots: int) -> float:
        """Worst-cell no-forecast RMSE divided by worst-cell FoReCo RMSE."""
        return self.no_forecast[robots].max_mean() / max(self.foreco[robots].max_mean(), 1e-9)

    def to_dict(self) -> dict:
        """JSON-safe rendering (per-cell means for both heatmap stacks)."""
        return {
            "experiment": "fig8",
            "repetitions": self.repetitions,
            "robot_counts": list(self.robot_counts),
            "no_forecast": {str(r): self.no_forecast[r].as_records() for r in self.robot_counts},
            "foreco": {str(r): self.foreco[r].as_records() for r in self.robot_counts},
        }


def run(
    scale: str | ExperimentScale = "ci",
    seed: int = 42,
    robot_counts: tuple[int, ...] = FIG8_ROBOT_COUNTS,
    probabilities: tuple[float, ...] = FIG8_PROBABILITIES,
    durations: tuple[int, ...] = FIG8_DURATIONS,
    config: ForecoConfig | None = None,
    jobs: int = 1,
) -> Fig8Result:
    """Reproduce the Fig. 8 sweep at the requested scale."""
    scale = get_scale(scale)
    base = base_scenario(
        "fig8",
        scale,
        seed,
        config,
        channel=wireless_channel(),
        repetitions=scale.heatmap_repetitions,
        run_seconds=scale.run_seconds * 2,
    )
    specs = scenario_grid(
        base,
        {
            "channel.n_robots": robot_counts,
            "channel.probability": probabilities,
            "channel.duration_slots": durations,
        },
    )
    sweep = SweepExecutor(jobs=jobs).run(specs)

    result = Fig8Result(robot_counts=list(robot_counts), repetitions=scale.heatmap_repetitions)
    for robots in robot_counts:
        rows = sweep.filter(lambda row: row.spec.channel.options()["n_robots"] == robots)
        result.no_forecast[robots] = heatmap_from_sweep(
            rows, metric="rmse_no_forecast_mm", label=f"no forecasting - {robots} robots"
        )
        result.foreco[robots] = heatmap_from_sweep(
            rows, metric="rmse_foreco_mm", label=f"FoReCo - {robots} robots"
        )
    return result
