"""Layer boundaries the traced run wraps, and the per-layer metrics they yield.

Each :class:`~spans.Hook` names the public function or method that marks a
layer boundary and the place its callers bind it.  Module functions are
patched in every module that imported them by name (``fleet.engine`` and
``service.engine`` call their own binding of ``sample_channel_delays_batch``);
methods are patched on the class that defines them.

Metric names are ``<layer>.<fn>.<stat>``: ``s`` is inclusive time,
``self_s`` the time not covered by child spans, ``calls`` the span count,
and the other stats are counts taken at the same boundary.
"""

from __future__ import annotations

import numpy as np

from spans import Hook


def _rows(position: int, keyword: str, ndim: int):
    """Counter: the leading dimension of one batched argument, as ``rows``.

    An argument with fewer than ``ndim`` dimensions is a single row, as the
    library treats it.
    """

    def count(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        shape = np.shape(value)
        return {"rows": shape[0] if len(shape) >= ndim else 1}

    return count


def _span(name: str, owner: str, attribute: str, counter=None) -> Hook:
    """A hook whose counter keys are prefixed with the span name."""
    if counter is None:
        return Hook(name, owner, attribute)

    def prefixed(args, kwargs, result):
        return {f"{name}.{key}": value for key, value in counter(args, kwargs, result).items()}

    return Hook(name, owner, attribute, prefixed)


_CHANNEL_BINDINGS = (
    "repro.scenarios.engine",
    "repro.fleet.engine",
    "repro.fleet.hybrid",
    "repro.service.engine",
)
_POLICIES = ("StaticCapPolicy", "UtilizationThresholdPolicy", "ForecastAwarePolicy")

HOOKS: tuple[Hook, ...] = (
    # Dataset synthesis: build_datasets calls this twice on a cache miss and
    # never on a hit, so the span times synthesis and counts its commands.
    _span(
        "teleop.build_datasets",
        "repro.teleop.controller.RemoteController",
        "stream_from_operator",
        lambda args, kwargs, result: {"commands": len(result)},
    ),
    _span("forecasting.fit", "repro.forecasting.base.Forecaster", "fit"),
    _span("forecasting.predict_next", "repro.forecasting.base.Forecaster", "predict_next"),
    _span(
        "forecasting.predict_next_batch",
        "repro.forecasting.base.Forecaster",
        "predict_next_batch",
        _rows(1, "histories", 3),
    ),
    Hook(
        "recovery.process_slot",
        "repro.core.recovery.ForecoRecovery",
        "process_slot",
        lambda args, kwargs, result: {"recovery.forecasted": bool(result.forecasted)},
    ),
    _span(
        "recovery.process_stream_batch",
        "repro.core.recovery.ForecoRecovery",
        "process_stream_batch",
        _rows(2, "delays_ms", 2),
    ),
    *(
        _span("channel.sample_batch", module, "sample_channel_delays_batch", _rows(2, "seeds", 1))
        for module in _CHANNEL_BINDINGS
    ),
    _span(
        "robot.positions",
        "repro.robot.kinematics.ForwardKinematics",
        "positions",
        _rows(1, "joint_trajectory", 2),
    ),
    _span("simulation.batched_run", "repro.core.simulation.BatchedRemoteControlSimulation", "run"),
    _span("fleet.run", "repro.fleet.engine.FleetEngine", "run"),
    Hook(
        "service.run",
        "repro.service.engine.ServiceEngine",
        "run",
        lambda args, kwargs, result: {
            "service.admitted": result.admitted,
            "service.dropped": result.dropped_sessions,
            "service.migrated": result.migrated_sessions,
        },
    ),
    *(_span("service.admit", f"repro.service.policies.{policy}", "admit") for policy in _POLICIES),
    _span("des.simulator_run", "repro.des.engine.Simulator", "run"),
    _span(
        "store.put",
        "repro.scenarios.store.ResultStore",
        "put",
        lambda args, kwargs, result: {"bytes": result.stat().st_size},
    ),
    _span(
        "store.get",
        "repro.scenarios.store.ResultStore",
        "get",
        lambda args, kwargs, result: {"hits": result is not None},
    ),
    _span("sweep.run", "repro.scenarios.sweep.SweepExecutor", "run"),
)

#: Per-layer metric name -> (unit, better).  Every traced run reports all of
#: them; a layer a workload never enters reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "teleop.build_datasets.s": ("s", "lower"),
    "teleop.build_datasets.commands": ("count", "lower"),
    "forecasting.fit.s": ("s", "lower"),
    "forecasting.fit.calls": ("count", "lower"),
    "recovery.process_stream_batch.s": ("s", "lower"),
    "recovery.process_stream_batch.calls": ("count", "lower"),
    "recovery.process_stream_batch.rows": ("count", "lower"),
    "forecasting.predict_next_batch.s": ("s", "lower"),
    "forecasting.predict_next_batch.rows": ("count", "lower"),
    "channel.sample_batch.s": ("s", "lower"),
    "channel.sample_batch.calls": ("count", "lower"),
    "channel.sample_batch.rows": ("count", "lower"),
    "robot.positions.s": ("s", "lower"),
    "robot.positions.calls": ("count", "lower"),
    "robot.positions.rows": ("count", "lower"),
    "simulation.batched_run.self_s": ("s", "lower"),
    "fleet.run.self_s": ("s", "lower"),
    "service.run.self_s": ("s", "lower"),
    "service.admit.s": ("s", "lower"),
    "service.admit.calls": ("count", "lower"),
    "service.admitted": ("count", "higher"),
    "service.dropped": ("count", "lower"),
    "service.migrated": ("count", "lower"),
    "des.simulator_run.self_s": ("s", "lower"),
    "recovery.process_slot.s": ("s", "lower"),
    "recovery.process_slot.calls": ("count", "lower"),
    "recovery.forecasted": ("count", "higher"),
    "forecasting.predict_next.s": ("s", "lower"),
    "forecasting.predict_next.calls": ("count", "lower"),
    "store.put.s": ("s", "lower"),
    "store.put.calls": ("count", "lower"),
    "store.put.bytes": ("bytes", "lower"),
    "store.get.s": ("s", "lower"),
    "store.get.hits": ("count", "higher"),
    "sweep.run.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Which end-to-end metric each layer metric should move, on which workload,
#: and where the prediction is no change.  Written down before any change
#: claims a gain, so the trace can confirm or refute where a saving lands.
MOVES: tuple[dict, ...] = (
    {
        "layer": ("teleop.build_datasets.*", "forecasting.fit.*"),
        "moves": "setup_s",
        "on": ("heatmap-sweep", "fleet-exact", "service-policies", "online-recovery"),
        "not_on": (),
    },
    {
        "layer": ("forecasting.fit.calls",),
        "moves": "session_slots_per_s",
        "on": ("service-policies",),
        "not_on": ("online-recovery",),
    },
    {
        "layer": ("recovery.process_stream_batch.*", "forecasting.predict_next_batch.*"),
        "moves": "session_slots_per_s",
        "on": ("heatmap-sweep",),
        "not_on": ("fleet-exact",),
    },
    {
        "layer": ("channel.sample_batch.*",),
        "moves": "session_slots_per_s",
        "on": ("heatmap-sweep",),
        "not_on": ("fleet-exact",),
    },
    {
        "layer": ("robot.positions.*", "simulation.batched_run.self_s"),
        "moves": "session_slots_per_s",
        "on": ("fleet-exact",),
        "not_on": ("heatmap-sweep",),
    },
    {
        "layer": ("fleet.run.self_s", "service.run.self_s"),
        "moves": "session_slots_per_s",
        "on": ("fleet-exact", "service-policies"),
        "not_on": ("heatmap-sweep",),
    },
    {
        "layer": (
            "service.admit.*",
            "service.admitted",
            "service.dropped",
            "service.migrated",
            "des.simulator_run.self_s",
        ),
        "moves": "session_slots_per_s",
        "on": ("service-policies",),
        "not_on": ("fleet-exact",),
    },
    {
        "layer": ("recovery.process_slot.*", "recovery.forecasted", "forecasting.predict_next.*"),
        "moves": "slot_p50_us, slot_p99_us",
        "on": ("online-recovery",),
        "not_on": ("heatmap-sweep", "fleet-exact"),
    },
    {
        "layer": ("store.put.*", "store.get.*"),
        "moves": "session_slots_per_s",
        "on": ("heatmap-sweep",),
        "not_on": ("fleet-exact", "online-recovery"),
    },
    {
        "layer": ("sweep.run.self_s", "trace.overhead_frac"),
        "moves": "session_slots_per_s",
        "on": ("heatmap-sweep", "service-policies"),
        "not_on": (),
    },
)
