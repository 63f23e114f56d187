"""Pluggable admission policies for the live service loop.

An :class:`AdmissionPolicy` answers one question, once per arrival: *given
the service state at this command slot, which AP (if any) takes the new
session?*  Returning the home AP admits in place, returning another AP
**migrates** the arrival there, and returning ``None`` drops it.

All three built-in policies share the fleet layer's hard constraint — an AP
never holds more than ``ap_capacity`` concurrent sessions — and differ only
in how (and whether) they place an arrival below that ceiling:

``static-cap``
    The fleet layer's rule itself (:func:`repro.fleet.engine.static_cap`):
    home AP only, admit while it has a free slot.  This is the anchor
    policy — a ``static-cap`` service reproduces
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
from collections.abc import Callable

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..fleet.engine import AdmissionState, static_cap
from .spec import POLICY_KINDS, ServiceSpec


class ServiceState(AdmissionState):
    """The fleet admission state, plus the air-time load the balancing policies read.

    :class:`~repro.fleet.engine.AdmissionState` counts each AP's active
    sessions from its admitted offsets; this adds each session's per-slot
    load and the utilisation (current and per elapsed slot) built on it.
    """

    def __init__(self, spec: ServiceSpec, n_commands: int) -> None:
        fleet = spec.fleet
        super().__init__(fleet, n_commands)
        #: Per-slot air-time cost of one active session, as a fraction of the
        #: command period (the fleet coupling constant).
        self.session_load = float(fleet.ap_service_ms) / float(
            fleet.template.foreco.command_period_ms
        )

    def utilization(self, ap: int, offset: int, extra: int = 0) -> float:
        """Air-time utilisation of ``ap`` at ``offset``, with ``extra`` more sessions."""
        return min(1.0, (self.active(ap, offset) + extra) * self.session_load)

    def utilization_history(self, ap: int, offset: int) -> np.ndarray:
        """Per-slot utilisation samples of ``ap`` over slots ``[0, offset)``.

        This is the series the forecast-aware policy conditions on: one
        sample per elapsed command slot, each the capped air-time load the
        AP carried during that slot.
        """
        offsets = np.asarray(self._admitted[ap], dtype=np.int64)
        slots = np.arange(offset, dtype=np.int64)
        # active(slot) = #{o : slot - n_commands < o <= slot}
        upper = np.searchsorted(offsets, slots, side="right")
        lower = np.searchsorted(offsets, slots - self.n_commands, side="right")
        return np.minimum(1.0, (upper - lower) * self.session_load)


class AdmissionPolicy(ABC):
    """Decide AP placement for each arriving session.

    Subclasses implement :meth:`admit`; the admission pass
    (:func:`repro.fleet.engine.admit_arrivals`) calls it once per arrival,
    in virtual-time order, and records the admitted offset into the shared
    :class:`ServiceState` on the policy's behalf.
    """

    #: Registry name; subclasses override.
    kind = ""

    def __init__(self, spec: ServiceSpec) -> None:
        self.spec = spec

    @abstractmethod
    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        """Return the AP index that takes the arrival, or ``None`` to drop it."""


def _place_home_first(
    state: ServiceState,
    home_ap: int,
    offset: int,
    score: Callable[[int], float],
    passes: Callable[[int, float], bool],
) -> int | None:
    """First AP in ``(not home, score, index)`` order that has a free slot and passes.

    That is the home AP when it has a free slot and passes, else the least
    ``(score, index)`` among the passing non-home APs with a free slot.
    Only APs with a free slot are scored, and none past the home AP when it takes the arrival.
    """
    if state.active(home_ap, offset) < state.capacity and passes(home_ap, score(home_ap)):
        return home_ap
    free = [ap for ap in range(state.aps) if ap != home_ap and state.active(ap, offset) < state.capacity]
    scored = ((score(ap), ap) for ap in free)
    return min(((value, ap) for value, ap in scored if passes(ap, value)), default=(None, None))[1]


class StaticCapPolicy(AdmissionPolicy):
    """Home-AP admission under the hard capacity cap (the fleet rule)."""

    kind = "static-cap"

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        return static_cap(state, home_ap, offset)


class UtilizationThresholdPolicy(AdmissionPolicy):
    """Least-utilised-AP placement under an instantaneous load threshold."""

    kind = "utilization-threshold"

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        # Home AP first, then the rest by (current active count, index).
        return _place_home_first(
            state,
            home_ap,
            offset,
            score=lambda ap: state.active(ap, offset),
            passes=lambda ap, _active: state.utilization(ap, offset, extra=1) <= limit,
        )


class ForecastAwarePolicy(AdmissionPolicy):
    """Placement by forecast next-slot utilisation (FoReCo-style admission).

    Each AP's utilisation history (one sample per elapsed command slot) is
    fed to a freshly-fit :class:`~repro.forecasting.Forecaster`; the arrival
    goes to the AP whose *predicted* utilisation leaves room under the
    limit.  Until an AP has accumulated enough history to fit on
    (``forecast_record + 1`` samples), its instantaneous utilisation is the
    fallback predictor — so early in a run this policy behaves like
    ``utilization-threshold`` and smoothly switches to forecasts.  Only APs
    that could take the arrival are fitted; a non-finite forecast raises.
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
        if not np.isfinite(predicted):
            raise SimulationError(
                f"forecaster {self.spec.forecast_algorithm!r} predicted a non-finite "
                f"utilization ({predicted}) for AP {ap} at slot {offset}"
            )
        return min(1.0, max(0.0, predicted))

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        # Home AP first, then the rest by (predicted utilisation, index); an
        # AP that is never scored is never fitted.
        return _place_home_first(
            state,
            home_ap,
            offset,
            score=lambda ap: self._predicted_utilization(state, ap, offset),
            passes=lambda _ap, predicted: predicted + state.session_load <= limit,
        )


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
