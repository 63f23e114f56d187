"""The serial session path: the oracle for the session kernel.

The library runs every session through one stacked kernel
(:meth:`~repro.core.ForecoRecovery.process_stream_batch` plus
:class:`~repro.core.BatchedRemoteControlSimulation`) and samples every
channel through :func:`~repro.scenarios.sample_channel_delays_batch`.  This
module is the one-repetition-at-a-time path, kept as their reference:

* :func:`sample_channel_delays` builds each channel kind's own model and
  draws one realisation per seed through its per-class sampler;
* :func:`draw_queue_randomness` draws the AP queue's random inputs one
  variate at a time: one scalar exponential per interference burst, and
  ``Generator.choice`` plus ``Generator.exponential`` for each
  hyper-exponential service time (:func:`hyperexponential_draw`).  It is
  the reference for the block draws of
  :meth:`~repro.wireless.WirelessChannel._draw_queue_randomness`, which
  every AP-queue sample, serial or batched, goes through;
* :func:`baseline_indices` applies the stock stack's "newest arrived
  command" rule slot by slot;
* :func:`process_stream` runs the recovery engine over one session, one
  :meth:`~repro.core.ForecoRecovery.process_slot` call per slot;
* :class:`RemoteControlSimulation` runs one session through
  :func:`process_stream`, executes the baseline and FoReCo streams on two
  :class:`~oracles.driver.RobotDriver` runs and scores them with
  :func:`~repro.robot.trajectory.trajectory_rmse_mm`;
* :class:`SerialSessionEngine` and :class:`SerialFleetEngine` are the
  library's engines with their kernel pass swapped for a loop over
  repetitions (sessions), each on a fresh deep copy of the trained
  forecaster; :meth:`SerialSessionEngine.trajectories` replays a result's
  kept delay trace through :class:`RemoteControlSimulation`.

Every equality test and every benchmark ratio gate measures the kernel
against this code, which shares none of the kernel's stacking.
"""

from __future__ import annotations

import math

import numpy as np
from oracles.driver import DriverConfig, RobotDriver

from repro.core.recovery import ForecoRecovery, RecoveryDecision
from repro.core.simulation import SimulationBatch, SimulationOutcome
from repro.errors import ConfigurationError, DimensionError
from repro.fleet import FleetEngine
from repro.robot.niryo import NiryoOneArm
from repro.robot.trajectory import JointTrajectory, trajectory_rmse_mm
from repro.scenarios import ChannelSpec, ScenarioSpec, SessionEngine, SessionResult, repetition_seed
from repro.scenarios.engine import _compound_stage_seeds, _trace_replay, _wireless_from_options
from repro.wireless import (
    ConsecutiveLossInjector,
    GilbertElliottJammer,
    HandoverChannel,
    HandoverConfig,
    JammerConfig,
    MarkovChannelConfig,
    MarkovModulatedChannel,
    PeriodicLossInjector,
    RandomLossInjector,
)


def sample_channel_delays(
    channel: ChannelSpec,
    n_commands: int,
    seed: int,
    command_period_ms: float = 20.0,
) -> np.ndarray:
    """Sample one realisation of per-command delays (ms, ``inf`` = lost)."""
    options = channel.options()
    if channel.kind == "clean":
        return np.full(n_commands, float(options.get("nominal_delay_ms", 1.0)))
    if channel.kind == "wireless":
        wireless = _wireless_from_options(options, command_period_ms, seed=seed)
        return wireless.sample_trace(n_commands).delays()
    if channel.kind == "jammer":
        jammer = GilbertElliottJammer(config=JammerConfig(**options), seed=seed)
        return jammer.sample_trace(n_commands).delays()
    if channel.kind == "loss-burst":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = ConsecutiveLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "periodic-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = PeriodicLossInjector(**options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "random-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = RandomLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "trace":
        return _trace_replay(options, n_commands, [seed])[0]
    if channel.kind == "markov-interference":
        markov = MarkovModulatedChannel(config=MarkovChannelConfig(**options), seed=seed)
        return markov.sample_delays(n_commands)
    if channel.kind == "handover":
        handover = HandoverChannel(config=HandoverConfig(**options), seed=seed)
        return handover.sample_delays(n_commands)
    if channel.kind == "compound":
        stages = options.get("stages", ())
        if not stages:
            raise ConfigurationError("compound channel has no stages")
        total = np.zeros(n_commands)
        for stage, stage_seed in zip(stages, _compound_stage_seeds(stages, seed)):
            total = total + sample_channel_delays(
                stage, n_commands, stage_seed, command_period_ms
            )
        return total
    raise ConfigurationError(f"unknown channel kind {channel.kind!r}")


def hyperexponential_draw(dist, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(values, phases)`` of ``size`` hyper-exponential variates, one phase
    pick by ``Generator.choice(p=...)`` and one exponential per variate."""
    phases = rng.choice(dist.n_phases, size=size, p=dist.probs)
    return rng.exponential(1.0 / dist.rates[phases]), phases


def interference_intervals(channel, horizon_ms: float, rng: np.random.Generator) -> list[tuple[float, float]]:
    """The interferer's ``(on_start, on_end)`` intervals in ``[0, horizon_ms)``,
    one scalar exponential gap per burst."""
    intervals: list[tuple[float, float]] = []
    if not channel.interference.is_active:
        return intervals
    on = channel.burst_duration_ms()
    gap_mean = channel.mean_gap_ms()
    t = float(rng.exponential(gap_mean))
    while t < horizon_ms:
        intervals.append((t, t + on))
        t += on + float(rng.exponential(gap_mean))
    return intervals


def draw_queue_randomness(channel, rng: np.random.Generator, n_commands: int):
    """``(intervals, work, blocked, base_lost, interference_lost)`` of one AP-queue
    repetition, in the block order of ``WirelessChannel._draw_queue_randomness``."""
    horizon_ms = (n_commands + 1) * channel.command_period_ms
    intervals = interference_intervals(channel, horizon_ms, rng)
    work, _ = hyperexponential_draw(channel.contention_model.service_distribution(), rng, n_commands)
    blocked = rng.random(n_commands) < channel.interference_block_probability
    base_lost = rng.random(n_commands) < channel.contention_model.loss_probability
    interference_lost = rng.random(n_commands) < channel.interference_loss_probability
    return intervals, work, blocked, base_lost, interference_lost


def baseline_indices(delays_ms, command_period_ms: float) -> list[int]:
    """The stock stack's command at each slot of one session, slot by slot.

    At slot ``s`` it feeds the newest command ``i <= s`` that has arrived by
    the slot's end, ``i * Ω + Δ(c_i) <= (s + 1) * Ω`` (a non-finite delay
    never arrives), else the initial command 0.  The reference for
    :func:`~repro.core.simulation.baseline_target_indices`, which decides
    the same comparison through ``ceil(arrival / Ω)``: the two agree
    wherever the slot ends ``(s + 1) * Ω`` are exact, as at Ω = 20 ms.
    """
    period = float(command_period_ms)
    delays = [float(delay) for delay in delays_ms]
    indices = []
    for slot in range(len(delays)):
        end = (slot + 1) * period
        arrived = (
            i for i in range(slot, 0, -1) if math.isfinite(delays[i]) and i * period + delays[i] <= end
        )
        indices.append(next(arrived, 0))
    return indices


def process_stream(
    recovery: ForecoRecovery,
    commands: np.ndarray,
    delays_ms: np.ndarray,
    decisions: list[RecoveryDecision] | None = None,
) -> np.ndarray:
    """Process a full command stream slot by slot and return the executed commands.

    ``commands`` has shape ``(n, d)`` and ``delays_ms`` length ``n`` (``inf``
    marks lost commands).  The first command is assumed to arrive on time and
    also seeds the history window; ``recovery.stats`` counts the session, and
    ``decisions``, when given, receives every slot's decision.
    """
    commands = np.asarray(commands, dtype=float)
    delays_ms = np.asarray(delays_ms, dtype=float).ravel()
    if commands.ndim != 2 or commands.shape[0] != delays_ms.size:
        raise DimensionError("commands and delays_ms lengths must match")
    recovery.reset(commands.shape[1], seed_history=commands[:1])
    executed = np.empty_like(commands)
    for index in range(commands.shape[0]):
        decision = recovery.process_slot(commands[index], float(delays_ms[index]))
        executed[index] = decision.executed_command
        if decisions is not None:
            decisions.append(decision)
    return executed


class RemoteControlSimulation:
    """Replays a command stream through a channel, with and without FoReCo."""

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
        fallback: str = "hold",
    ) -> None:
        if not recovery.is_ready:
            raise ConfigurationError("the recovery engine must be trained before simulating")
        self.recovery = recovery
        self.arm = arm if arm is not None else NiryoOneArm()
        self.use_pid = bool(use_pid)
        self.fallback = fallback

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> SimulationOutcome:
        """Execute one session given per-command end-to-end delays."""
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float).ravel()
        if commands.ndim != 2 or commands.shape[0] != delays_ms.size:
            raise DimensionError("commands and delays_ms lengths must match")
        config = self.recovery.config

        # FoReCo pass: compute per-slot executed targets (real or forecast).
        foreco_targets = process_stream(self.recovery, commands, delays_ms)
        on_time_mask = np.array(
            [self.recovery.is_on_time(delay) for delay in delays_ms], dtype=bool
        )
        late_fraction = float(1.0 - on_time_mask.mean())
        recovery_fraction = self.recovery.stats.recovery_fraction

        driver_config = DriverConfig(
            command_period_ms=config.command_period_ms,
            tolerance_ms=config.tolerance_ms,
            fallback=self.fallback,  # type: ignore[arg-type]
            use_pid=self.use_pid,
        )

        # Baseline: execute commands as they arrive (stock stack behaviour).
        baseline_targets = self._baseline_targets(commands, delays_ms)
        baseline_driver = RobotDriver(arm=self.arm, config=driver_config)
        baseline_log = baseline_driver.run(
            baseline_targets, np.ones(commands.shape[0], dtype=bool), forecasts=None
        )

        # FoReCo: inject the recovery engine's forecasts for missing slots.
        foreco_driver = RobotDriver(arm=self.arm, config=driver_config)
        foreco_log = foreco_driver.run(commands, on_time_mask, forecasts=foreco_targets)

        # The driver's clock: slot * Ω / 1000.
        times = np.arange(commands.shape[0]) * config.command_period_ms / 1000.0
        defined = JointTrajectory(times, commands, label="defined")
        baseline = baseline_log.executed_trajectory(label="no-forecast")
        foreco = foreco_log.executed_trajectory(label="foreco")

        return SimulationOutcome(
            rmse_no_forecast_mm=trajectory_rmse_mm(baseline.joints, commands, arm=self.arm),
            rmse_foreco_mm=trajectory_rmse_mm(foreco.joints, commands, arm=self.arm),
            late_fraction=late_fraction,
            recovery_fraction=recovery_fraction,
            defined=defined,
            baseline=baseline,
            foreco=foreco,
        )

    def _baseline_targets(self, commands: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Per-slot targets executed by the stock (no-forecast) robot stack."""
        period = self.recovery.config.command_period_ms
        return commands[baseline_indices(delays_ms, period)]


def _as_batch(commands: np.ndarray, outcomes: list[SimulationOutcome]) -> SimulationBatch:
    """Serial outcomes as the kernel's result type, both trajectories stacked."""
    return SimulationBatch(
        rmse_no_forecast_mm=tuple(o.rmse_no_forecast_mm for o in outcomes),
        rmse_foreco_mm=tuple(o.rmse_foreco_mm for o in outcomes),
        late_fraction=tuple(o.late_fraction for o in outcomes),
        recovery_fraction=tuple(o.recovery_fraction for o in outcomes),
        commands=commands,
        times_s=outcomes[0].defined.times_s,
        baseline_executed=np.stack([o.baseline.joints for o in outcomes]),
        foreco_executed=np.stack([o.foreco.joints for o in outcomes]),
    )


class SerialSessionEngine(SessionEngine):
    """A :class:`SessionEngine` that runs every repetition as its own session."""

    def trajectories(self, result: SessionResult) -> SimulationOutcome:
        """The kept delay trace replayed through the serial session loop."""
        spec = result.spec
        simulation = RemoteControlSimulation(
            self.recovery(spec), use_pid=spec.use_pid, fallback=spec.fallback
        )
        return simulation.run(self.test_commands(spec), result.delays_ms)

    def _simulate(
        self, specs: list[ScenarioSpec], commands: np.ndarray
    ) -> tuple[SimulationBatch, np.ndarray]:
        outcomes: list[SimulationOutcome] = []
        delays: list[np.ndarray] = []
        for spec in specs:
            for repetition in range(spec.repetitions):
                simulation = RemoteControlSimulation(
                    self.recovery(spec), use_pid=spec.use_pid, fallback=spec.fallback
                )
                delays.append(self._sample_delays(spec, commands.shape[0], repetition))
                outcomes.append(simulation.run(commands, delays[-1]))
        return _as_batch(commands, outcomes), np.stack(delays)

    def _sample_delays(self, spec: ScenarioSpec, n_commands: int, repetition: int) -> np.ndarray:
        """One repetition's channel realisation (seeded from the spec)."""
        return sample_channel_delays(
            spec.channel,
            n_commands,
            seed=repetition_seed(spec, repetition),
            command_period_ms=spec.foreco.command_period_ms,
        )


class SerialFleetEngine(FleetEngine):
    """A :class:`FleetEngine` that runs every admitted session on its own."""

    def _simulate(
        self, template: ScenarioSpec, commands: np.ndarray, delays: np.ndarray
    ) -> SimulationBatch:
        outcomes: list[SimulationOutcome] = []
        for row in range(delays.shape[0]):
            simulation = RemoteControlSimulation(
                self.sessions.recovery(template), use_pid=template.use_pid, fallback=template.fallback
            )
            outcomes.append(simulation.run(commands, delays[row]))
        return _as_batch(commands, outcomes)


def assert_same_trajectories(expected: SimulationOutcome, actual: SimulationOutcome) -> None:
    """Two sessions' metrics and three joint trajectories, clocks included, equal bit for bit."""
    assert actual.rmse_no_forecast_mm == expected.rmse_no_forecast_mm
    assert actual.rmse_foreco_mm == expected.rmse_foreco_mm
    assert actual.late_fraction == expected.late_fraction
    assert actual.recovery_fraction == expected.recovery_fraction
    for name in ("defined", "baseline", "foreco"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.joints.dtype == want.joints.dtype and got.joints.shape == want.joints.shape, name
        assert got.joints.tobytes() == want.joints.tobytes(), name
        assert got.times_s.tobytes() == want.times_s.tobytes(), name


def assert_replays_last_session(result, template: ScenarioSpec) -> None:
    """The serial loop replays ``result.delays_ms`` to the last entry of each metric tuple.

    ``template`` is the spec every session of ``result`` ran (a fleet's
    per-operator template), so this holds for session and fleet rows alike.
    """
    sessions = SessionEngine()
    simulation = RemoteControlSimulation(
        sessions.recovery(template), use_pid=template.use_pid, fallback=template.fallback
    )
    replay = simulation.run(sessions.test_commands(template), result.delays_ms)
    for metric in ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction"):
        assert getattr(replay, metric) == getattr(result, metric)[-1], metric
