"""Tests for the robot driver loop and trajectory metrics."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.driver import DriverConfig, RobotDriver

from repro.errors import ConfigurationError, DimensionError
from repro.robot.niryo import NiryoOneArm
from repro.robot.trajectory import (
    JointTrajectory,
    TrajectoryError,
    distance_from_origin_mm,
    trajectory_rmse_mm,
)


def _ramp_commands(n: int = 50, step: float = 0.01) -> np.ndarray:
    arm = NiryoOneArm()
    home = arm.home_pose()
    deltas = np.zeros((n, 6))
    deltas[:, 0] = step
    return home + np.cumsum(deltas, axis=0)


# -------------------------------------------------------------------- driver
def test_driver_config_validation():
    with pytest.raises(ConfigurationError):
        DriverConfig(command_period_ms=0.0)
    with pytest.raises(ConfigurationError):
        DriverConfig(tolerance_ms=-1.0)
    with pytest.raises(ConfigurationError):
        DriverConfig(fallback="panic")


def test_driver_executes_on_time_commands_exactly_in_kinematic_mode():
    commands = _ramp_commands()
    driver = RobotDriver(config=DriverConfig(use_pid=False))
    log = driver.run(commands, np.ones(len(commands), dtype=bool))
    assert np.allclose(log.executed_trajectory().joints, commands)
    assert log.n_missing == 0
    assert log.n_injected == 0


def test_driver_hold_fallback_repeats_previous_command():
    commands = _ramp_commands(20)
    mask = np.ones(20, dtype=bool)
    mask[10:13] = False
    driver = RobotDriver(config=DriverConfig(fallback="hold"))
    log = driver.run(commands, mask)
    executed = np.array(log.executed)
    assert np.allclose(executed[10], commands[9])
    assert np.allclose(executed[12], commands[9])
    assert log.n_missing == 3


def test_driver_injects_forecasts_when_provided():
    commands = _ramp_commands(20)
    mask = np.ones(20, dtype=bool)
    mask[5] = False
    forecasts = commands.copy()
    forecasts[5] = commands[5] + 0.002
    driver = RobotDriver()
    log = driver.run(commands, mask, forecasts=forecasts)
    assert np.allclose(np.array(log.executed)[5], forecasts[5])
    assert log.n_injected == 1


def test_driver_stop_fallback_freezes_position():
    commands = _ramp_commands(10)
    mask = np.ones(10, dtype=bool)
    mask[4:] = False
    driver = RobotDriver(config=DriverConfig(fallback="stop"))
    log = driver.run(commands, mask)
    executed = np.array(log.executed)
    assert np.allclose(executed[4:], executed[3])


def test_driver_clamps_to_joint_limits():
    arm = NiryoOneArm()
    crazy = np.tile(arm.limits.position_max * 3.0, (5, 1))
    driver = RobotDriver()
    log = driver.run(crazy, np.ones(5, dtype=bool))
    executed = np.array(log.executed)
    assert np.all(executed <= arm.limits.position_max + 1e-9)


def test_driver_pid_mode_lags_but_follows():
    commands = _ramp_commands(100, step=0.005)
    driver = RobotDriver(config=DriverConfig(use_pid=True))
    log = driver.run(commands, np.ones(100, dtype=bool))
    executed = np.array(log.executed)
    # The PID tracks the slow ramp within a small error by the end.
    assert np.linalg.norm(executed[-1] - commands[-1]) < 0.05
    assert not np.allclose(executed, commands)  # but not perfectly


def test_driver_shape_validation():
    driver = RobotDriver()
    with pytest.raises(DimensionError):
        driver.run(np.zeros((5, 6)), np.ones(4, dtype=bool))
    with pytest.raises(DimensionError):
        driver.run(np.zeros((5, 6)), np.ones(5, dtype=bool), forecasts=np.zeros((4, 6)))
    with pytest.raises(DimensionError):
        driver.execute_slot(np.zeros(3))


# ---------------------------------------------------------------- trajectory
def test_joint_trajectory_container():
    commands = _ramp_commands(30)
    times = np.arange(30) * 0.02
    trajectory = JointTrajectory(times, commands, label="defined")
    assert len(trajectory) == 30
    assert trajectory.n_joints == 6
    assert trajectory.duration_s == pytest.approx(29 * 0.02)
    sliced = trajectory.slice_time(0.1, 0.2)
    assert len(sliced) == 6
    assert trajectory.distance_from_origin_mm().shape == (30,)


def test_joint_trajectory_validation():
    with pytest.raises(DimensionError):
        JointTrajectory(np.arange(3), np.zeros((4, 6)))
    with pytest.raises(DimensionError):
        JointTrajectory(np.arange(3), np.zeros(3))


def test_trajectory_error_between_identical_is_zero():
    commands = _ramp_commands(20)
    times = np.arange(20) * 0.02
    a = JointTrajectory(times, commands)
    b = JointTrajectory(times, commands.copy())
    error = TrajectoryError.between(a, b)
    assert error.rmse_mm == pytest.approx(0.0, abs=1e-9)
    assert error.max_error_mm == pytest.approx(0.0, abs=1e-9)


def test_trajectory_rmse_positive_for_perturbation():
    commands = _ramp_commands(20)
    perturbed = commands + 0.01
    rmse = trajectory_rmse_mm(perturbed, commands)
    assert rmse > 0.5  # a 0.01 rad offset moves the end effector by millimetres
    with pytest.raises(DimensionError):
        trajectory_rmse_mm(commands[:10], commands)


def test_distance_from_origin_convenience():
    commands = _ramp_commands(5)
    series = distance_from_origin_mm(commands)
    assert series.shape == (5,)
    assert np.all(series > 0.0)
