"""Human-operator models producing 50 Hz joint-command streams.

The paper collected two datasets — an *experienced* operator and an
*inexperienced* one — each repeating the pick-and-place action 100 times with
a joystick issuing a new command every 20 ms (H = 187 109 commands in total).
The experienced dataset trains the ML models; the inexperienced one is used
for testing and for driving every simulation/experiment, so that the model
operates "on data that is tightly related but not exactly the same as the
training data".

:class:`OperatorModel` synthesises equivalent streams.  A cycle of the task is
rendered as a trapezoidal-velocity interpolation between waypoints (the
profile a joystick naturally produces; a minimum-jerk profile is available as
an alternative); the operator's skill level (captured in
:class:`OperatorProfile`) adds:

* per-cycle timing variability (slower/faster repetitions),
* low-frequency joystick wander (smoothed noise) and overshoot at waypoints,
* occasional pauses, more frequent for the inexperienced operator.

The result is deterministic given a seed, so datasets are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import ensure_int, ensure_positive, rng_from
from ..errors import ConfigurationError
from .pick_place import PickPlaceTask, default_pick_place_task


@dataclass
class OperatorProfile:
    """Statistical description of an operator's driving style.

    Attributes
    ----------
    name:
        Label ("experienced" / "inexperienced").
    speed_variability:
        Standard deviation of the per-segment duration multiplier.
    jitter_rad:
        Standard deviation of the smoothed joystick wander added to every
        joint (radians).
    jitter_smoothing:
        Exponential-smoothing factor of the wander (closer to 1 = smoother).
    overshoot_rad:
        Magnitude of the overshoot added when arriving at a waypoint.
    pause_probability:
        Per-segment probability of inserting a short hesitation pause.
    pause_duration_s:
        Mean duration of a hesitation pause.
    """

    name: str
    speed_variability: float = 0.05
    jitter_rad: float = 0.002
    jitter_smoothing: float = 0.95
    overshoot_rad: float = 0.002
    pause_probability: float = 0.02
    pause_duration_s: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter_smoothing < 1.0:
            raise ConfigurationError("jitter_smoothing must lie in [0, 1)")
        if self.speed_variability < 0 or self.jitter_rad < 0 or self.overshoot_rad < 0:
            raise ConfigurationError("operator noise magnitudes must be non-negative")
        if not 0.0 <= self.pause_probability <= 1.0:
            raise ConfigurationError("pause_probability must lie in [0, 1]")


def experienced_operator() -> OperatorProfile:
    """Profile of the experienced operator (smooth, consistent, few pauses)."""
    return OperatorProfile(
        name="experienced",
        speed_variability=0.04,
        jitter_rad=0.0015,
        jitter_smoothing=0.97,
        overshoot_rad=0.001,
        pause_probability=0.01,
        pause_duration_s=0.15,
    )


def inexperienced_operator() -> OperatorProfile:
    """Profile of the inexperienced operator (jittery, variable, hesitant)."""
    return OperatorProfile(
        name="inexperienced",
        speed_variability=0.12,
        jitter_rad=0.005,
        jitter_smoothing=0.90,
        overshoot_rad=0.006,
        pause_probability=0.06,
        pause_duration_s=0.35,
    )


def _minimum_jerk(fraction: np.ndarray) -> np.ndarray:
    """Minimum-jerk position profile: 10t^3 - 15t^4 + 6t^5 on [0, 1]."""
    t = np.clip(fraction, 0.0, 1.0)
    return 10.0 * t ** 3 - 15.0 * t ** 4 + 6.0 * t ** 5


def _trapezoidal(fraction: np.ndarray, ramp: float = 0.2) -> np.ndarray:
    """Trapezoidal-velocity position profile on [0, 1].

    Joystick teleoperation produces motion that is close to constant velocity
    with short acceleration/deceleration ramps (the operator pushes the stick,
    holds it, and releases it), rather than the high-curvature minimum-jerk
    profile of an automatic planner.  ``ramp`` is the fraction of the segment
    spent accelerating (and, symmetrically, decelerating).
    """
    t = np.clip(fraction, 0.0, 1.0)
    ramp = float(np.clip(ramp, 1e-6, 0.5))
    peak = 1.0 / (1.0 - ramp)  # cruise velocity so the displacement integrates to 1
    position = np.empty_like(t)
    accel = t < ramp
    cruise = (t >= ramp) & (t <= 1.0 - ramp)
    decel = t > 1.0 - ramp
    position[accel] = 0.5 * peak * t[accel] ** 2 / ramp
    position[cruise] = 0.5 * peak * ramp + peak * (t[cruise] - ramp)
    td = 1.0 - t[decel]
    position[decel] = 1.0 - 0.5 * peak * td ** 2 / ramp
    return position


_PROFILES = {"trapezoidal": _trapezoidal, "minimum-jerk": _minimum_jerk}


class OperatorModel:
    """Synthesises a 50 Hz joint-command stream for a repetitive task.

    Parameters
    ----------
    task:
        The task to execute; defaults to the Niryo-sized pick-and-place cycle.
    profile:
        Operator style; defaults to the experienced operator.
    command_period_ms:
        Ω — command interval (20 ms, i.e. 50 Hz).
    seed:
        RNG seed; the same seed reproduces the same dataset exactly.
    """

    def __init__(
        self,
        task: PickPlaceTask | None = None,
        profile: OperatorProfile | None = None,
        command_period_ms: float = 20.0,
        motion_profile: str = "trapezoidal",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.task = task if task is not None else default_pick_place_task()
        self.profile = profile if profile is not None else experienced_operator()
        self.command_period_ms = ensure_positive("command_period_ms", command_period_ms)
        if motion_profile not in _PROFILES:
            raise ConfigurationError(
                f"unknown motion_profile {motion_profile!r}; available: {sorted(_PROFILES)}"
            )
        self.motion_profile = motion_profile
        self._profile_fn = _PROFILES[motion_profile]
        self.rng = rng_from(seed)

    @property
    def n_joints(self) -> int:
        """Joint dimensionality of the generated commands."""
        return self.task.n_joints

    # ------------------------------------------------------------ generation
    def generate_cycle(self, start_joints: np.ndarray | None = None) -> np.ndarray:
        """Generate the joint commands of a single task cycle.

        Returns an ``(n_commands, d)`` array starting from ``start_joints``
        (default: the first waypoint of the task).
        """
        dt_s = self.command_period_ms / 1000.0
        profile = self.profile
        waypoints = self.task.waypoints
        current = (
            np.asarray(start_joints, dtype=float).ravel().copy()
            if start_joints is not None
            else waypoints[0].joints.copy()
        )
        blocks: list[np.ndarray] = []
        wander = np.zeros(self.n_joints)

        for waypoint in waypoints:
            duration = waypoint.move_duration_s * max(
                0.2, 1.0 + self.rng.normal(0.0, profile.speed_variability)
            )
            n_steps = max(1, int(round(duration / dt_s)))
            target = waypoint.joints + self.rng.normal(0.0, profile.overshoot_rad, self.n_joints)
            fractions = self._profile_fn(np.arange(1, n_steps + 1) / n_steps)
            steps = self._wander(wander, n_steps)
            move = current + fractions[:, None] * (target - current) + steps[1:]
            current = move[-1]

            dwell = waypoint.dwell_s
            if self.rng.random() < profile.pause_probability:
                dwell += self.rng.exponential(profile.pause_duration_s)
            steps = self._wander(steps[-1], int(round(dwell / dt_s)))
            blocks += [move, current + steps[1:]]
            wander = steps[-1]
        return np.vstack(blocks)

    def _wander(self, wander: np.ndarray, count: int) -> np.ndarray:
        """``wander`` followed by ``count`` further steps of the smoothed joystick wander.

        The jitter of all ``count`` steps is drawn as one block, which takes
        the same values from the generator as ``count`` per-step draws.
        """
        smoothing = self.profile.jitter_smoothing
        jitter = self.rng.normal(0.0, self.profile.jitter_rad, (count, self.n_joints))
        rows = np.vstack([wander, (1.0 - smoothing) * jitter])
        for previous, row in zip(rows, rows[1:]):
            row += smoothing * previous
        return rows

    def generate_dataset(self, n_repetitions: int = 10) -> np.ndarray:
        """Concatenate ``n_repetitions`` task cycles into one command stream.

        The paper uses 100 repetitions per operator; examples and tests use a
        smaller default so they run in seconds.
        """
        n_repetitions = ensure_int("n_repetitions", n_repetitions, minimum=1)
        cycles = []
        current: np.ndarray | None = None
        for _ in range(n_repetitions):
            cycle = self.generate_cycle(start_joints=current)
            cycles.append(cycle)
            current = cycle[-1]
        return np.vstack(cycles)

    def generate_timed_dataset(self, n_repetitions: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times_s, commands)`` with times on the 50 Hz command grid."""
        commands = self.generate_dataset(n_repetitions)
        times = np.arange(commands.shape[0]) * self.command_period_ms / 1000.0
        return times, commands
