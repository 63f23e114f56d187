"""Tests for the finite-capacity queue simulator (G/HEXP/1/Q)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.queueing import FiniteQueueSimulator

from repro.des.distributions import Deterministic, Exponential, HyperExponential
from repro.errors import ConfigurationError
from repro.wireless import DcfParameters, Ieee80211DelayModel, expected_delay_bound


def test_underloaded_queue_has_no_waiting():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(10.0), service=Deterministic(1.0), seed=0
    )
    records = queue.run(50)
    assert all(r.delivered for r in records)
    assert all(r.waiting_time == pytest.approx(0.0) for r in records)
    assert all(r.sojourn_time == pytest.approx(1.0) for r in records)


def test_metrics_require_run_first():
    queue = FiniteQueueSimulator(arrival=Deterministic(1.0), service=Deterministic(0.5))
    with pytest.raises(ConfigurationError):
        queue.metrics()


def test_overloaded_finite_queue_drops_customers():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(1.0), service=Deterministic(5.0), capacity=2, seed=0
    )
    queue.run(200)
    metrics = queue.metrics()
    assert metrics.n_dropped > 0
    assert metrics.n_arrivals == 200
    assert metrics.loss_probability > 0.4


def test_loss_probability_marks_customers_lost():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(10.0), service=Deterministic(1.0), loss_probability=1.0, seed=0
    )
    records = queue.run(20)
    assert all(r.lost for r in records)
    assert all(np.isinf(d) for d in queue.sojourn_times())


def test_sojourn_times_inf_for_dropped():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(1.0), service=Deterministic(10.0), capacity=0, seed=0
    )
    queue.run(30)
    sojourns = np.array(list(queue.sojourn_times()))
    assert np.isinf(sojourns).any()
    assert np.isfinite(sojourns).any()


def test_mm1_mean_sojourn_close_to_theory():
    """M/M/1 sanity check: E[T] = 1 / (mu - lambda)."""
    lam, mu = 0.5, 1.0
    queue = FiniteQueueSimulator(
        arrival=Exponential(lam), service=Exponential(mu), seed=3
    )
    queue.run(20000)
    metrics = queue.metrics()
    assert metrics.mean_sojourn_time == pytest.approx(1.0 / (mu - lam), rel=0.15)


def test_hyperexponential_service_records_phase():
    service = HyperExponential(probs=[0.5, 0.5], rates=[10.0, 1.0])
    queue = FiniteQueueSimulator(arrival=Deterministic(5.0), service=service, seed=1)
    records = queue.run(200)
    phases = {r.service_phase for r in records}
    assert phases.issubset({0, 1})
    assert len(phases) == 2


def test_departures_are_fifo_ordered():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(1.0),
        service=HyperExponential(probs=[0.8, 0.2], rates=[2.0, 0.2]),
        seed=5,
    )
    records = queue.run(300)
    departures = [r.departure_time for r in records if r.delivered]
    assert departures == sorted(departures)


def test_run_rejects_non_positive_customers():
    queue = FiniteQueueSimulator(arrival=Deterministic(1.0), service=Deterministic(0.5))
    with pytest.raises(ConfigurationError):
        queue.run(0)


@settings(max_examples=15, deadline=None)
@given(
    period=st.floats(1.0, 20.0),
    service_mean=st.floats(0.1, 5.0),
    n=st.integers(20, 120),
)
def test_sojourn_never_smaller_than_service_free_lower_bound(period, service_mean, n):
    """Property: every delivered customer's sojourn time is non-negative and
    at least as large as its waiting time."""
    queue = FiniteQueueSimulator(
        arrival=Deterministic(period), service=Exponential(1.0 / service_mean), seed=7
    )
    records = queue.run(n)
    for record in records:
        if record.delivered:
            assert record.sojourn_time >= record.waiting_time >= 0.0


def test_utilisation_between_zero_and_one():
    queue = FiniteQueueSimulator(
        arrival=Deterministic(2.0), service=Exponential(1.0), capacity=5, seed=2
    )
    queue.run(500)
    assert 0.0 <= queue.metrics().utilisation <= 1.0


@pytest.mark.parametrize("n_stations", [1, 2, 5])
def test_light_load_sojourn_matches_lemma1_bound(n_stations):
    """At light load (ρ ≤ 3 %) a delivered command almost never waits, so
    the mean sojourn of a delivered command through the 802.11 AP queue is
    Lemma 1's bound at ``D = 0``."""
    model = Ieee80211DelayModel(DcfParameters(n_stations=n_stations))
    queue = FiniteQueueSimulator(
        arrival=Deterministic(20.0),
        service=model.service_distribution(),
        loss_probability=model.loss_probability,
        seed=0,
    )
    queue.run(20000)
    sojourns = np.array(list(queue.sojourn_times()))
    delivered = sojourns[np.isfinite(sojourns)]
    assert delivered.mean() == pytest.approx(expected_delay_bound(model, 0.0), rel=0.05)
