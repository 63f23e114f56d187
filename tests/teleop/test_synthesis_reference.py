"""Dataset synthesis against per-step reference implementations, bit for bit.

``RemoteController.quantise`` runs its rate limit with in-place ufuncs and
``OperatorModel.generate_cycle`` draws each move's and dwell's jitter as one
block.  The straightforward per-row ``np.clip`` limiter and the per-step
cycle generator below are the oracles: every dataset must carry exactly
their bits, and leave the generator in exactly their state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.robot.niryo import NiryoOneArm
from repro.teleop import OperatorModel, RemoteController, experienced_operator, inexperienced_operator
from repro.teleop.operator import _PROFILES, OperatorProfile
from repro.teleop.pick_place import PickPlaceTask, Waypoint

_LIMITS = NiryoOneArm().limits


def reference_quantise(controller: RemoteController, raw_motion: np.ndarray) -> np.ndarray:
    """Per-row ``np.clip`` rate limiter and joint clamp."""
    commands = np.empty_like(raw_motion)
    current = raw_motion[0].copy()
    commands[0] = controller.arm.clamp(current)
    for index in range(1, raw_motion.shape[0]):
        delta = raw_motion[index] - current
        delta = np.clip(delta, -controller.moving_offset_rad, controller.moving_offset_rad)
        current = controller.arm.clamp(current + delta)
        commands[index] = current
    return commands


def reference_cycle(model: OperatorModel, start_joints: np.ndarray | None = None) -> np.ndarray:
    """Per-step cycle generator: one jitter draw and one command per step."""
    dt_s = model.command_period_ms / 1000.0
    profile = model.profile
    waypoints = model.task.waypoints
    current = (
        np.asarray(start_joints, dtype=float).ravel().copy()
        if start_joints is not None
        else waypoints[0].joints.copy()
    )
    commands: list[np.ndarray] = []
    wander = np.zeros(model.n_joints)
    for waypoint in waypoints:
        duration = waypoint.move_duration_s * max(
            0.2, 1.0 + model.rng.normal(0.0, profile.speed_variability)
        )
        n_steps = max(1, int(round(duration / dt_s)))
        target = waypoint.joints + model.rng.normal(0.0, profile.overshoot_rad, model.n_joints)
        start = current.copy()
        for fraction in model._profile_fn(np.arange(1, n_steps + 1) / n_steps):
            wander = profile.jitter_smoothing * wander + (1.0 - profile.jitter_smoothing) * model.rng.normal(
                0.0, profile.jitter_rad, model.n_joints
            )
            commands.append(start + fraction * (target - start) + wander)
        current = commands[-1].copy()
        dwell = waypoint.dwell_s
        if model.rng.random() < profile.pause_probability:
            dwell += model.rng.exponential(profile.pause_duration_s)
        for _ in range(int(round(dwell / dt_s))):
            wander = profile.jitter_smoothing * wander + (1.0 - profile.jitter_smoothing) * model.rng.normal(
                0.0, profile.jitter_rad, model.n_joints
            )
            commands.append(current + wander)
    return np.array(commands)


def reference_dataset(model: OperatorModel, n_repetitions: int) -> np.ndarray:
    """``n_repetitions`` reference cycles, each starting where the last ended."""
    cycles, current = [], None
    for _ in range(n_repetitions):
        cycles.append(reference_cycle(model, start_joints=current))
        current = cycles[-1][-1]
    return np.vstack(cycles)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("motion_profile", sorted(_PROFILES))
@pytest.mark.parametrize("operator", [experienced_operator, inexperienced_operator])
def test_datasets_match_the_per_step_reference(operator, motion_profile):
    controller = RemoteController()
    for seed in range(8):
        model = OperatorModel(profile=operator(), motion_profile=motion_profile, seed=seed)
        oracle = OperatorModel(profile=operator(), motion_profile=motion_profile, seed=seed)
        raw = model.generate_dataset(2)
        expected = reference_dataset(oracle, 2)
        assert_same_bits(raw, expected)
        assert_same_bits(controller.quantise(raw).commands, reference_quantise(controller, expected))
        # The block draws consume exactly the per-step draws.
        assert model.rng.random() == oracle.rng.random()


def test_cycle_without_dwell_matches_the_reference():
    """Waypoints with no dwell and no pause give ``n_dwell == 0`` blocks."""
    joints = np.array([0.0, 0.3, -0.6, 0.0, -0.4, 0.0])
    task = PickPlaceTask(
        waypoints=[
            Waypoint(joints, move_duration_s=0.3),
            Waypoint(joints + 0.2, move_duration_s=0.1, dwell_s=0.0),
            Waypoint(joints - 0.1, move_duration_s=0.5, dwell_s=0.0),
        ]
    )
    profile = OperatorProfile(name="no-dwell", pause_probability=0.0)
    model = OperatorModel(task=task, profile=profile, seed=4)
    oracle = OperatorModel(task=task, profile=profile, seed=4)
    assert_same_bits(model.generate_dataset(4), reference_dataset(oracle, 4))
    assert model.rng.random() == oracle.rng.random()


_EDGE_VALUES = [
    float(value)
    for bound in (_LIMITS.position_min, _LIMITS.position_max)
    for value in bound
] + [-_LIMITS.moving_offset_rad, _LIMITS.moving_offset_rad, 0.0, -0.0]

_RAW_ROWS = arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.just(6)),
    elements=st.one_of(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(_EDGE_VALUES),
    ),
)


@settings(max_examples=60, deadline=None)
@given(raw=_RAW_ROWS)
@example(raw=np.tile(_LIMITS.position_max - 0.02, (3, 1)))
def test_quantise_matches_the_clip_reference(raw):
    """Raw motion jumping past the moving offset and outside the joint limits."""
    # Append a jump beyond both limits so every example exercises both clamps.
    raw = np.vstack([raw, _LIMITS.position_max + 0.5, _LIMITS.position_min - 0.5, raw[:1]])
    controller = RemoteController()
    assert_same_bits(controller.quantise(raw).commands, reference_quantise(controller, raw))
