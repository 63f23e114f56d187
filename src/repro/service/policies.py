"""Pluggable admission policies for the live service loop.

An :class:`AdmissionPolicy` answers one question, once per arrival: *given
the service state at this command slot, which AP (if any) takes the new
session?*  Returning the home AP admits in place, returning another AP
**migrates** the arrival there, and returning ``None`` drops it.

All three built-in policies share the fleet layer's hard constraint — an AP
never holds more than ``ap_capacity`` concurrent sessions — and differ only
in how (and whether) they place an arrival below that ceiling:

``static-cap``
    The fleet layer's rule verbatim: home AP only, admit while it has a free
    slot.  This is the anchor policy — a ``static-cap`` service reproduces
    :class:`~repro.fleet.FleetEngine` admissions exactly, which the test
    suite pins.
``utilization-threshold``
    Greedy load balancing on *instantaneous* air-time utilisation: place the
    arrival on the least-loaded AP (home first on ties) whose utilisation
    after admission stays within ``ServiceSpec.utilization_limit``.
``forecast-aware``
    The FoReCo move applied to admission: feed each AP's recent utilisation
    samples to a :class:`~repro.forecasting.Forecaster` and place the
    arrival by *predicted* next-slot utilisation instead of the current one,
    so a briefly-idle AP that is about to congest is avoided.

Policies are deterministic pure functions of the service state — they hold
no RNG and never look at wall time, so live replays stay bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right, insort

import numpy as np

from ..errors import ConfigurationError
from .spec import POLICY_KINDS, ServiceSpec


class ServiceState:
    """Mutable per-repetition admission bookkeeping the policies read.

    Tracks, per AP, the (nondecreasing) arrival offsets of admitted
    sessions.  Because every session occupies exactly ``n_commands``
    consecutive command slots, the number of sessions active on an AP at
    slot ``offset`` is a pure window count over those offsets — the same
    arithmetic the fleet planning helper :func:`repro.fleet.engine._plan`
    applies per repetition, which keeps the ``static-cap`` policy
    bit-for-bit aligned with the fleet engine.
    """

    def __init__(self, spec: ServiceSpec, n_commands: int) -> None:
        fleet = spec.fleet
        self.n_commands = int(n_commands)
        self.capacity = fleet.ap_capacity
        self.aps = fleet.aps
        #: Per-slot air-time cost of one active session, as a fraction of the
        #: command period (the fleet coupling constant).
        self.session_load = float(fleet.ap_service_ms) / float(
            fleet.template.foreco.command_period_ms
        )
        self._admitted: list[list[int]] = [[] for _ in range(fleet.aps)]

    def active(self, ap: int, offset: int) -> int:
        """Sessions active on ``ap`` at command slot ``offset``."""
        offsets = self._admitted[ap]
        return len(offsets) - bisect_right(offsets, offset - self.n_commands)

    def utilization(self, ap: int, offset: int, extra: int = 0) -> float:
        """Air-time utilisation of ``ap`` at ``offset``, with ``extra`` more sessions."""
        return min(1.0, (self.active(ap, offset) + extra) * self.session_load)

    def admit(self, ap: int, offset: int) -> None:
        """Record an admitted session on ``ap`` starting at ``offset``."""
        # Arrivals are processed in nondecreasing-offset order, but insort
        # keeps the window arithmetic valid even for same-slot ties.
        insort(self._admitted[ap], offset)

    def utilization_history(self, ap: int, offset: int) -> np.ndarray:
        """Per-slot utilisation samples of ``ap`` over slots ``[0, offset)``.

        This is the series the forecast-aware policy conditions on: one
        sample per elapsed command slot, each the capped air-time load the
        AP carried during that slot.
        """
        if offset <= 0:
            return np.zeros((0,), dtype=np.float64)
        offsets = np.asarray(self._admitted[ap], dtype=np.int64)
        slots = np.arange(offset, dtype=np.int64)
        if offsets.size == 0:
            return np.zeros((offset,), dtype=np.float64)
        # active(slot) = #{o : slot - n_commands < o <= slot}
        upper = np.searchsorted(offsets, slots, side="right")
        lower = np.searchsorted(offsets, slots - self.n_commands, side="right")
        return np.minimum(1.0, (upper - lower) * self.session_load)


class AdmissionPolicy(ABC):
    """Decide AP placement for each arriving session.

    Subclasses implement :meth:`admit`; the service engine calls it once per
    arrival, in virtual-time order, and records the admitted offset into the
    shared :class:`ServiceState` on the policy's behalf.
    """

    #: Registry name; subclasses override.
    kind = ""

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec

    @abstractmethod
    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        """Return the AP index that takes the arrival, or ``None`` to drop it."""


class StaticCapPolicy(AdmissionPolicy):
    """Home-AP admission under the hard capacity cap (the fleet rule)."""

    kind = "static-cap"

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        if state.active(home_ap, offset) < state.capacity:
            return home_ap
        return None


class UtilizationThresholdPolicy(AdmissionPolicy):
    """Least-utilised-AP placement under an instantaneous load threshold."""

    kind = "utilization-threshold"

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        # Home AP first, then the rest by (current active count, index):
        # deterministic, and ties always resolve to the lowest AP index.
        order = sorted(range(state.aps), key=lambda ap: (ap != home_ap, state.active(ap, offset), ap))
        for ap in order:
            if state.active(ap, offset) >= state.capacity:
                continue
            if state.utilization(ap, offset, extra=1) <= limit:
                return ap
        return None


class ForecastAwarePolicy(AdmissionPolicy):
    """Placement by forecast next-slot utilisation (FoReCo-style admission).

    Each AP's utilisation history (one sample per elapsed command slot) is
    fed to a freshly-fit :class:`~repro.forecasting.Forecaster`; the arrival
    goes to the AP whose *predicted* utilisation leaves room under the
    limit.  Until an AP has accumulated enough history to fit on
    (``forecast_record + 1`` samples), its instantaneous utilisation is the
    fallback predictor — so early in a run this policy behaves like
    ``utilization-threshold`` and smoothly switches to forecasts.
    """

    kind = "forecast-aware"

    def _predicted_utilization(self, state: ServiceState, ap: int, offset: int) -> float:
        from ..forecasting import make_forecaster

        record = self.spec.forecast_record
        history = state.utilization_history(ap, offset)
        if history.size <= record:
            return state.utilization(ap, offset)
        series = history.reshape(-1, 1)
        forecaster = make_forecaster(self.spec.forecast_algorithm, record=record)
        forecaster.fit(series)
        predicted = float(forecaster.predict_next(series[-record:])[0])
        return min(1.0, max(0.0, predicted))

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        predictions = {
            ap: self._predicted_utilization(state, ap, offset) for ap in range(state.aps)
        }
        order = sorted(range(state.aps), key=lambda ap: (ap != home_ap, predictions[ap], ap))
        for ap in order:
            if state.active(ap, offset) >= state.capacity:
                continue
            if predictions[ap] + state.session_load <= limit:
                return ap
        return None


_POLICIES: dict[str, type[AdmissionPolicy]] = {
    StaticCapPolicy.kind: StaticCapPolicy,
    UtilizationThresholdPolicy.kind: UtilizationThresholdPolicy,
    ForecastAwarePolicy.kind: ForecastAwarePolicy,
}
assert set(_POLICIES) == set(POLICY_KINDS)


def policy_names() -> tuple[str, ...]:
    """Registered admission-policy names, in canonical comparison order."""
    return POLICY_KINDS


def make_policy(spec: ServiceSpec) -> AdmissionPolicy:
    """Instantiate the admission policy a :class:`ServiceSpec` names."""
    try:
        factory = _POLICIES[spec.policy]
    except KeyError:  # pragma: no cover - ServiceSpec validates first
        raise ConfigurationError(
            f"unknown admission policy {spec.policy!r}; available: {sorted(_POLICIES)}"
        ) from None
    return factory(spec)
