"""Tests for the DH forward kinematics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, RobotError
from repro.robot.kinematics import DhLink, ForwardKinematics, dh_transform
from repro.robot.niryo import NiryoOneArm


def test_dh_transform_identity_for_zero_parameters():
    assert np.allclose(dh_transform(0.0, 0.0, 0.0, 0.0), np.eye(4))


def test_dh_transform_pure_translation():
    transform = dh_transform(a=1.0, alpha=0.0, d=2.0, theta=0.0)
    assert np.allclose(transform[:3, 3], [1.0, 0.0, 2.0])
    assert np.allclose(transform[:3, :3], np.eye(3))


def test_dh_transform_rotation_about_z():
    transform = dh_transform(a=0.0, alpha=0.0, d=0.0, theta=np.pi / 2.0)
    assert np.allclose(transform[:3, :3] @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_single_revolute_link_end_effector():
    fk = ForwardKinematics([DhLink(a=1.0, alpha=0.0, d=0.0, theta=0.0)])
    assert np.allclose(fk.end_effector_position([0.0]), [1.0, 0.0, 0.0])
    assert np.allclose(fk.end_effector_position([np.pi / 2.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_prismatic_link_extends_along_z():
    fk = ForwardKinematics([DhLink(a=0.0, alpha=0.0, d=0.5, theta=0.0, joint_type="prismatic")])
    assert np.allclose(fk.end_effector_position([0.2]), [0.0, 0.0, 0.7])


def test_two_link_planar_arm_matches_textbook():
    links = [
        DhLink(a=1.0, alpha=0.0, d=0.0, theta=0.0),
        DhLink(a=0.5, alpha=0.0, d=0.0, theta=0.0),
    ]
    fk = ForwardKinematics(links)
    q1, q2 = 0.3, 0.7
    expected = [
        np.cos(q1) + 0.5 * np.cos(q1 + q2),
        np.sin(q1) + 0.5 * np.sin(q1 + q2),
        0.0,
    ]
    assert np.allclose(fk.end_effector_position([q1, q2]), expected)


def test_invalid_joint_type_rejected():
    with pytest.raises(RobotError):
        DhLink(a=0.0, alpha=0.0, d=0.0, theta=0.0, joint_type="spherical")


def test_empty_chain_rejected():
    with pytest.raises(RobotError):
        ForwardKinematics([])


def test_wrong_joint_count_rejected():
    fk = ForwardKinematics([DhLink(1.0, 0.0, 0.0, 0.0)])
    with pytest.raises(DimensionError):
        fk.end_effector_position([0.0, 0.1])
    with pytest.raises(DimensionError):
        fk.positions(np.zeros((3, 2)))


def test_link_positions_count():
    links = [DhLink(0.3, 0.0, 0.1, 0.0) for _ in range(4)]
    fk = ForwardKinematics(links)
    points = fk.link_positions(np.zeros(4))
    assert points.shape == (5, 3)  # base + one frame per link


def test_positions_vectorised_matches_scalar():
    links = [DhLink(0.3, np.pi / 2, 0.1, 0.0), DhLink(0.2, 0.0, 0.0, 0.0)]
    fk = ForwardKinematics(links)
    trajectory = np.array([[0.1, 0.2], [0.5, -0.3], [1.0, 1.0]])
    stacked = fk.positions(trajectory)
    for row, joints in zip(stacked, trajectory):
        assert np.allclose(row, fk.end_effector_position(joints))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2))
def test_reach_bounds_end_effector(joints):
    """Property: the end effector never lies farther than the chain's reach."""
    links = [DhLink(0.4, np.pi / 2, 0.2, 0.0), DhLink(0.3, 0.0, 0.0, 0.1)]
    fk = ForwardKinematics(links)
    position = fk.end_effector_position(joints)
    assert np.linalg.norm(position) <= fk.reach() + 1e-9


def test_base_transform_offsets_result():
    base = np.eye(4)
    base[:3, 3] = [0.0, 0.0, 1.0]
    fk = ForwardKinematics([DhLink(1.0, 0.0, 0.0, 0.0)], base_transform=base)
    assert np.allclose(fk.end_effector_position([0.0]), [1.0, 0.0, 1.0])
    with pytest.raises(DimensionError):
        ForwardKinematics([DhLink(1.0, 0.0, 0.0, 0.0)], base_transform=np.eye(3))


@pytest.mark.parametrize("chunk", [1, 7, 4096, None])
def test_positions_is_row_pure(chunk):
    """Each row's position depends on that row's bits alone, bit for bit.

    The batched RMSE pass evaluates forward kinematics once per command row
    and only on the executed rows that differ from it, gathering the rest;
    that is exact only if ``positions`` gives a row the same bits whatever
    else is in the call.  Rows at the joint limits and rows holding ``-0.0``
    are included.
    """
    arm = NiryoOneArm()
    limits = arm.limits
    rng = np.random.default_rng(11)
    joints = rng.uniform(limits.position_min, limits.position_max, size=(5000, 6))
    joints[::5] = limits.position_min
    joints[1::5] = limits.position_max
    joints[2::5, ::2] = -0.0
    joints[3::5] = 0.0
    full = arm.kinematics.positions(joints)
    rows = joints.shape[0] if chunk is None else chunk
    pieces = [
        arm.kinematics.positions(joints[start : start + rows]) for start in range(0, joints.shape[0], rows)
    ]
    assert np.array_equal(np.concatenate(pieces).view(np.uint64), full.view(np.uint64))
    for _ in range(5):
        mask = rng.random(joints.shape[0]) < rng.uniform(0.001, 0.5)
        masked = arm.kinematics.positions(joints[mask])
        assert np.array_equal(masked.view(np.uint64), full[mask].view(np.uint64))
