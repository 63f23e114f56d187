"""FoReCo core: the paper's primary contribution.

The building blocks follow Fig. 3 of the paper:

* :mod:`repro.core.config` — the FoReCo configuration (Ω, τ, R, α/β split,
  forecasting algorithm).
* :mod:`repro.core.dataset` — the command dataset FoReCo accumulates from the
  remote controller (history ``H``, train/test split, downsampling and
  quality checks).
* :mod:`repro.core.pipeline` — the training pipeline whose stages (load data,
  down-sampling, quality check, model training) are individually timed, as in
  the paper's Table I.
* :mod:`repro.core.recovery` — the runtime recovery engine: it watches for
  commands that miss their deadline ``a(c_i) + Ω + τ`` and injects forecasts
  into the robot driver.
* :mod:`repro.core.simulation` — an end-to-end remote-control session wiring
  operator commands, the wireless channel, the recovery engine and the robot
  driver; this is what the simulation and experimental evaluations run.
"""

from .config import ForecoConfig
from .dataset import CommandDataset, DatasetQualityReport, TrainTestSplit
from .pipeline import PipelineTimings, TrainingPipeline, TrainingReport
from .recovery import BatchedRecoveryResult, ForecoRecovery, RecoveryDecision, RecoveryStats
from .simulation import (
    BatchedRemoteControlSimulation,
    RemoteControlSimulation,
    SimulationBatch,
    SimulationOutcome,
    baseline_target_indices,
    compare_baseline_and_foreco,
)

__all__ = [
    "BatchedRecoveryResult",
    "BatchedRemoteControlSimulation",
    "baseline_target_indices",
    "ForecoConfig",
    "CommandDataset",
    "DatasetQualityReport",
    "TrainTestSplit",
    "PipelineTimings",
    "TrainingPipeline",
    "TrainingReport",
    "ForecoRecovery",
    "RecoveryDecision",
    "RecoveryStats",
    "RemoteControlSimulation",
    "SimulationBatch",
    "SimulationOutcome",
    "compare_baseline_and_foreco",
]
