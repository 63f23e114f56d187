"""Fig. 7 — forecast accuracy versus forecasting window.

The paper trains VAR, MA and seq2seq on the experienced-operator dataset and
evaluates, on the inexperienced dataset, the RMSE of forecasting windows of
20–1000 ms (1–50 consecutive commands at Ω = 20 ms).  The reported outcome is
an ordering — VAR slightly better than MA, seq2seq clearly worse because its
~164k weights do not converge on the available data — with errors growing as
the window lengthens.

This module reproduces that sweep.  At CI scale the seq2seq network is shrunk
so the NumPy BPTT stays affordable; the qualitative ordering is preserved
(and asserted by the integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..forecasting import make_forecaster, multi_step_rmse
from ..scenarios import SessionEngine
from .common import ExperimentScale, base_scenario, get_scale


@dataclass
class Fig7Result:
    """Forecast RMSE per algorithm per forecasting window."""

    windows_ms: list[int]
    rmse_mm: dict[str, list[float]] = field(default_factory=dict)
    best_record: dict[str, int] = field(default_factory=dict)
    n_parameters: dict[str, int] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the figure as the text table the bench harness prints."""
        lines = ["# Fig. 7 — forecast RMSE [mm] vs forecasting window [ms]"]
        header = "window_ms | " + " ".join(f"{name:>10s}" for name in sorted(self.rmse_mm))
        lines.append(header)
        lines.append("-" * len(header))
        for index, window in enumerate(self.windows_ms):
            row = " ".join(f"{self.rmse_mm[name][index]:10.2f}" for name in sorted(self.rmse_mm))
            lines.append(f"{window:9d} | {row}")
        lines.append("")
        for name in sorted(self.best_record):
            lines.append(
                f"{name}: best record R = {self.best_record[name]}"
                + (f", |w| = {self.n_parameters[name]}" if name in self.n_parameters else "")
            )
        return "\n".join(lines)

    def final_rmse(self, algorithm: str) -> float:
        """RMSE at the longest forecasting window for one algorithm."""
        return self.rmse_mm[algorithm][-1]

    def to_dict(self) -> dict:
        """JSON-safe rendering of the per-algorithm RMSE curves."""
        return {
            "experiment": "fig7",
            "windows_ms": list(self.windows_ms),
            "rmse_mm": {name: list(curve) for name, curve in self.rmse_mm.items()},
            "best_record": dict(self.best_record),
            "n_parameters": dict(self.n_parameters),
        }


def _candidate_records(algorithm: str, scale: ExperimentScale) -> list[int]:
    """Record lengths swept per algorithm (paper: R = 1..20, best reported)."""
    if scale.name == "ci":
        return [5, 10] if algorithm != "seq2seq" else [5]
    if algorithm == "seq2seq":
        return [5, 10]
    return [1, 2, 5, 10, 15, 20]


def run(
    scale: str | ExperimentScale = "ci",
    seed: int = 42,
    algorithms: tuple[str, ...] = ("var", "ma", "seq2seq"),
    jobs: int = 1,
) -> Fig7Result:
    """Reproduce the Fig. 7 sweep at the requested scale.

    ``jobs`` is accepted for CLI uniformity but ignored: the candidate
    fits run in order in the calling process.
    """
    scale = get_scale(scale)
    datasets = SessionEngine().datasets(base_scenario("fig7", scale, seed))
    train = datasets.experienced.commands
    test = datasets.inexperienced.commands
    period_ms = datasets.inexperienced.period_ms

    windows_ms = list(scale.forecast_windows_ms)
    horizons = [max(1, int(round(w / period_ms))) for w in windows_ms]
    stride = max(1, (test.shape[0] - 60) // max(1, scale.forecast_evaluations))

    result = Fig7Result(windows_ms=windows_ms)
    for algorithm in algorithms:
        best_rmse: list[float] | None = None
        best_record = 0
        best_params = 0
        for record in _candidate_records(algorithm, scale):
            forecaster = _build(algorithm, record, scale, seed)
            forecaster.fit(train)
            rmse = [
                multi_step_rmse(
                    forecaster, test, horizon, stride=stride,
                    max_evaluations=scale.forecast_evaluations,
                )
                for horizon in horizons
            ]
            if best_rmse is None or np.mean(rmse) < np.mean(best_rmse):
                best_rmse = rmse
                best_record = record
                best_params = int(getattr(forecaster, "n_parameters", 0) or 0)
        assert best_rmse is not None
        result.rmse_mm[algorithm] = [float(v) for v in best_rmse]
        result.best_record[algorithm] = best_record
        if best_params:
            result.n_parameters[algorithm] = best_params
    return result


def _build(algorithm: str, record: int, scale: ExperimentScale, seed: int):
    """Construct one forecaster with scale-appropriate options."""
    if algorithm == "seq2seq":
        encoder, decoder = scale.seq2seq_units
        return make_forecaster(
            "seq2seq",
            record=record,
            encoder_units=encoder,
            decoder_units=decoder,
            epochs=scale.seq2seq_epochs,
            max_training_windows=400 if scale.name == "ci" else 2000,
            seed=seed,
        )
    return make_forecaster(algorithm, record=record)
