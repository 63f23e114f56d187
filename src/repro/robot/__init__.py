"""Robotic manipulator substrate.

The paper's testbed is a 6-axis Niryo One arm driven by the ROS / MoveIt
stack with an inner PID joint controller.  This package provides the pieces
of that stack that the evaluation actually exercises:

* :mod:`repro.robot.kinematics` — Denavit–Hartenberg forward kinematics.
* :mod:`repro.robot.niryo` — a Niryo-One-like 6-DOF arm description (link
  lengths, joint limits, joint speed limits, 50 Hz command interface).
* :mod:`repro.robot.pid` — per-joint PID controller with the settling
  behaviour responsible for the "channel recovery" transient in Fig. 10.
* :mod:`repro.robot.trajectory` — trajectory containers plus the
  distance-from-origin metric used by every figure in the evaluation.
"""

from .kinematics import DhLink, ForwardKinematics, dh_transform
from .niryo import NIRYO_ONE_DH, NiryoOneArm, NiryoOneLimits
from .pid import JointPidController, PidGains
from .trajectory import JointTrajectory, TrajectoryError, distance_from_origin_mm, trajectory_rmse_mm

__all__ = [
    "DhLink",
    "ForwardKinematics",
    "dh_transform",
    "NIRYO_ONE_DH",
    "NiryoOneArm",
    "NiryoOneLimits",
    "JointPidController",
    "PidGains",
    "JointTrajectory",
    "TrajectoryError",
    "distance_from_origin_mm",
    "trajectory_rmse_mm",
]
