#!/usr/bin/env python3
"""Jammed teleoperation with the PID controller in the loop (paper Fig. 10).

Runs the ``jammer`` scenario preset — a 30-second pick-and-place run over a
channel attacked by a bursty 2.4 GHz jammer (Gilbert–Elliott model),
executed through the per-joint PID controller — and reports the RMSE of the
stock stack vs FoReCo plus the worst baseline transient after the channel
recovers, the effect highlighted in the paper.

Run it with::

    python examples/jammed_teleoperation.py
"""

from __future__ import annotations

import numpy as np

from repro import SessionEngine, get_scenario, run_scenario
from repro.robot import NiryoOneArm


def main() -> None:
    spec = get_scenario("jammer", seed=5)
    print(f"scenario         : {spec.describe()}")

    result = run_scenario(spec)
    # The result keeps the last repetition's delay trace; its trajectories
    # are replayed from it on demand.
    trajectories = SessionEngine().trajectories(result)
    delays = result.delays_ms
    deadline_ms = spec.foreco.to_config().deadline_ms
    late = ~np.isfinite(delays) | (delays > deadline_ms)

    lost_share = float(np.mean(~np.isfinite(delays)))
    print(f"jammer           : {lost_share:.1%} of commands lost, "
          f"late/lost share {result.mean_late_fraction:.1%}")
    print(f"no-forecast RMSE : {result.mean_rmse_no_forecast_mm:.2f} mm")
    print(f"FoReCo RMSE      : {result.mean_rmse_foreco_mm:.2f} mm")
    print(f"improvement      : x{result.improvement_factor:.2f}")

    # Report the worst transient of the stock stack after an outage ends.
    arm = NiryoOneArm()
    baseline = arm.kinematics.positions(trajectories.baseline.joints) * 1000.0
    defined = arm.kinematics.positions(trajectories.defined.joints) * 1000.0
    errors = np.linalg.norm(baseline - defined, axis=1)
    worst_slot = int(np.argmax(errors))
    print(f"worst baseline error {errors.max():.1f} mm at t = {worst_slot * 0.02:.2f} s "
          f"(command late there: {bool(late[worst_slot])})")


if __name__ == "__main__":
    main()
