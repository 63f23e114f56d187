"""Admission policies: state arithmetic, placement rules, typed errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.service import make_eager_policy
from repro.errors import ConfigurationError, SimulationError
from repro.forecasting import Forecaster, register_forecaster
from repro.forecasting.ma import MovingAverageForecaster
from repro.forecasting.smoothing import ExponentialSmoothingForecaster
from repro.forecasting.var import VarForecaster
from repro.service import (
    POLICY_KINDS,
    AdmissionPolicy,
    ServiceSpec,
    ServiceState,
    make_policy,
    policy_names,
)


def _state(n_commands: int = 10, **spec_changes) -> ServiceState:
    spec_changes.setdefault("fleet", ServiceSpec().fleet.with_(aps=2, ap_capacity=2))
    return ServiceState(ServiceSpec(**spec_changes), n_commands=n_commands)


class TestServiceState:
    def test_window_counting(self):
        # Queries happen in nondecreasing-offset order (the engine's online
        # contract): each session stays active for exactly n_commands slots.
        state = _state(n_commands=10)
        state.admit(0, 0)
        assert state.active(0, 0) == 1
        state.admit(0, 5)
        assert state.active(0, 5) == 2
        assert state.active(0, 9) == 2
        assert state.active(0, 10) == 1  # the offset-0 session just ended
        assert state.active(0, 15) == 0
        assert state.active(1, 5) == 0

    def test_session_load_is_service_over_period(self):
        state = _state()
        fleet = ServiceSpec().fleet
        expected = fleet.ap_service_ms / fleet.template.foreco.command_period_ms
        assert state.session_load == pytest.approx(expected)

    def test_utilization_caps_at_one(self):
        state = _state(n_commands=10)
        for _ in range(4):
            state.admit(0, 0)
        assert state.utilization(0, 0) == 1.0
        assert 0.0 < state.utilization(1, 0, extra=1) < 1.0

    def test_utilization_history_matches_pointwise(self):
        starts = (0, 1, 5)
        state = _state(n_commands=4)
        for offset in starts:
            state.admit(0, offset)
        history = state.utilization_history(0, 8)
        assert history.shape == (8,)
        for slot in range(8):
            active = sum(1 for s in starts if slot - 4 < s <= slot)
            assert history[slot] == pytest.approx(min(1.0, active * state.session_load))
        assert state.utilization_history(0, 0).shape == (0,)
        assert np.all(state.utilization_history(1, 8) == 0.0)


class TestPolicies:
    def test_registry_matches_spec_kinds(self):
        assert policy_names() == POLICY_KINDS
        for kind in POLICY_KINDS:
            policy = make_policy(ServiceSpec(policy=kind))
            assert isinstance(policy, AdmissionPolicy)
            assert policy.kind == kind

    def test_static_cap_never_migrates(self):
        policy = make_policy(ServiceSpec(policy="static-cap"))
        state = _state(n_commands=10)
        assert policy.admit(state, home_ap=0, offset=0) == 0
        state.admit(0, 0)
        assert policy.admit(state, home_ap=0, offset=0) == 0
        state.admit(0, 0)
        # Home AP full: static-cap drops even though AP 1 is empty.
        assert policy.admit(state, home_ap=0, offset=0) is None
        assert state.active(1, 0) == 0

    def test_threshold_migrates_off_a_full_home_ap(self):
        spec = ServiceSpec(
            policy="utilization-threshold",
            utilization_limit=1.0,
            fleet=ServiceSpec().fleet.with_(aps=2, ap_capacity=2),
        )
        policy = make_policy(spec)
        state = ServiceState(spec, n_commands=10)
        state.admit(0, 0)
        state.admit(0, 0)
        assert policy.admit(state, home_ap=0, offset=0) == 1  # migrated
        state.admit(1, 0)
        # Prefers the home AP while it has room and headroom.
        assert policy.admit(state, home_ap=1, offset=0) == 1

    def test_threshold_drops_when_everything_is_over_the_limit(self):
        spec = ServiceSpec(
            policy="utilization-threshold",
            utilization_limit=0.3,
            fleet=ServiceSpec().fleet.with_(aps=2, ap_capacity=2),
        )
        policy = make_policy(spec)
        state = ServiceState(spec, n_commands=10)
        # One session per AP puts every AP at the 0.3 limit already.
        state.admit(0, 0)
        state.admit(1, 0)
        assert policy.admit(state, home_ap=0, offset=0) is None

    def test_forecast_policy_falls_back_until_history_accumulates(self):
        spec = ServiceSpec(policy="forecast-aware", forecast_record=8)
        policy = make_policy(spec)
        state = ServiceState(spec, n_commands=10)
        # No history yet -> instantaneous fallback -> behaves like threshold.
        assert policy.admit(state, home_ap=0, offset=0) == 0

    def test_forecast_policy_uses_forecaster_with_history(self):
        spec = ServiceSpec(
            policy="forecast-aware",
            forecast_record=4,
            utilization_limit=0.95,
            fleet=ServiceSpec().fleet.with_(aps=2, ap_capacity=2),
        )
        policy = make_policy(spec)
        state = ServiceState(spec, n_commands=50)
        state.admit(0, 0)
        state.admit(0, 2)
        prediction = policy._predicted_utilization(state, 0, 20)
        assert 0.0 <= prediction <= 1.0
        # AP 0 carries steady load, AP 1 is idle: the forecast must notice.
        assert prediction > policy._predicted_utilization(state, 1, 20)
        assert policy.admit(state, home_ap=0, offset=20) in (0, 1)

    def test_policy_misconfiguration_is_typed(self):
        """Policy/spec misuse raises ConfigurationError, never bare ValueError."""
        with pytest.raises(ConfigurationError):
            ServiceSpec(policy="fifo")
        with pytest.raises(ConfigurationError):
            ServiceSpec(policy="forecast-aware", forecast_algorithm="crystal-ball")
        with pytest.raises(ConfigurationError):
            ServiceSpec(utilization_limit=-0.5)


class _ConstantForecaster(Forecaster):
    """Predicts ``value`` for every window (a stand-in for a broken model)."""

    value = 0.0

    def _fit(self, commands):
        pass

    def _predict_next(self, history):
        return np.full(history.shape[1], self.value)


class _NanForecaster(_ConstantForecaster):
    name = "test-nan-utilization"
    value = float("nan")


class _InfForecaster(_ConstantForecaster):
    name = "test-inf-utilization"
    value = float("inf")


@pytest.mark.parametrize("forecaster", [_NanForecaster, _InfForecaster], ids=["nan", "inf"])
def test_non_finite_forecast_raises_naming_ap_and_algorithm(forecaster):
    """A NaN forecast used to clamp to 0.0 (an idle-looking AP) and inf to 1.0."""
    register_forecaster(forecaster.name, forecaster, overwrite=True)
    spec = ServiceSpec(
        policy="forecast-aware",
        forecast_algorithm=forecaster.name,
        forecast_record=2,
        fleet=ServiceSpec().fleet.with_(aps=2, ap_capacity=2),
    )
    policy = make_policy(spec)
    state = ServiceState(spec, n_commands=50)
    state.admit(0, 0)
    with pytest.raises(SimulationError, match=rf"{forecaster.name}.*AP 0"):
        policy.admit(state, home_ap=0, offset=10)


#: Fit calls made through the counting forecasters below.
_FITS = [0]


def _counting(base: type[Forecaster]) -> type[Forecaster]:
    """Register ``base`` under ``counting-<name>``, counting every fit."""

    class Counting(base):
        name = f"counting-{base.name}"

        def _fit(self, commands):
            _FITS[0] += 1
            super()._fit(commands)

    register_forecaster(Counting.name, Counting, overwrite=True)
    return Counting


_COUNTING = {
    cls.name: _counting(cls).name
    for cls in (MovingAverageForecaster, VarForecaster, ExponentialSmoothingForecaster)
}


@st.composite
def _admission_runs(draw):
    aps = draw(st.integers(1, 6))
    spec = ServiceSpec(
        policy=draw(st.sampled_from(POLICY_KINDS)),
        # One session costs 0.3 of the air time, so 0.2 drops every arrival.
        utilization_limit=draw(st.sampled_from([0.2, 0.5, 0.75, 0.95, 1.0])),
        forecast_record=draw(st.integers(1, 8)),
        forecast_algorithm=_COUNTING[draw(st.sampled_from(sorted(_COUNTING)))],
        fleet=ServiceSpec().fleet.with_(aps=aps, ap_capacity=draw(st.integers(1, 4))),
    )
    # Zero gaps put several arrivals in one slot; offsets never decrease.
    gaps = draw(st.lists(st.integers(0, 3), min_size=4, max_size=40))
    homes = draw(st.lists(st.integers(0, aps - 1), min_size=len(gaps), max_size=len(gaps)))
    n_commands = draw(st.integers(1, 60))
    return spec, n_commands, list(zip(homes, np.cumsum(gaps).tolist(), strict=True))


_EVERY_AP_FULL = ServiceSpec(
    policy="utilization-threshold",
    utilization_limit=1.0,
    fleet=ServiceSpec().fleet.with_(aps=2, ap_capacity=1),
)


@settings(max_examples=150, deadline=None)
@given(_admission_runs())
@example((_EVERY_AP_FULL, 10, [(0, 0), (0, 0), (0, 0)]))  # a full AP passes the limit yet must be skipped
def test_home_first_placement_equals_the_eager_sort(run):
    """Every arrival gets the eager oracle's decision; a home admission fits at most once."""
    spec, n_commands, arrivals = run
    policy, oracle = make_policy(spec), make_eager_policy(spec)
    state = ServiceState(spec, n_commands=n_commands)
    for home_ap, offset in arrivals:
        fits_before = _FITS[0]
        placed = policy.admit(state, home_ap, offset)
        if placed == home_ap:
            assert _FITS[0] - fits_before <= 1
        assert placed == oracle.admit(state, home_ap, offset)
        if spec.utilization_limit < state.session_load and spec.policy != "static-cap":
            assert placed is None
        if placed is not None:
            state.admit(placed, offset)
