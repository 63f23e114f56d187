"""Analytic oracles cross-checking the simulators against closed-form theory.

Three standing oracles, each returning an :class:`~repro.validation.gates.
OracleReport` whose tolerance gates are calibrated to the documented
sampling error at the default draw counts:

:func:`bianchi_oracle`
    The 802.11 contention core at the ``congested-ap`` preset's station
    count.  The simulated i.i.d. contention path
    (:meth:`~repro.wireless.channel.WirelessChannel.sample_trace` with
    ``use_queue=False``) must reproduce the moments, the 99th delay
    percentile and the air-loss rate of the Bianchi-derived
    hyper-exponential service model
    (:class:`~repro.wireless.delay_model.Ieee80211DelayModel`) — the same
    fixed point the hybrid fleet tier classifies APs with.  A loose
    consistency gate additionally checks the full AP-queue simulation at
    the ``congested-ap`` interference parameters against the analytic
    late-probability estimate, which by construction (it ignores queueing)
    is a lower bound on the simulated late rate.

:func:`superposition_oracle`
    The cold-AP delay draws.  :meth:`~repro.wireless.superposition.
    SuperpositionModel.sample_extra_delays` must reproduce the Gaussian
    limit's mean and spread and, for the heavy tail, the Lomax mean and the
    closed-form 99th percentile
    ``(alpha - 1) * mean * ((1 - p)^(-1/alpha) - 1)``.

:func:`cold_fleet_oracle`
    End to end: a hybrid fleet whose every AP classifies cold must (a)
    actually take the analytic path for every admitted session and (b)
    produce mean completion times and recovery fractions matching the
    superposition prediction re-derived independently from the spec.

Every oracle exposes a perturbation knob (``delay_scale``,
``extra_delay_scale``, ``completion_bias_ms``) that rescales or biases the
*simulated* side only.  The mutation-style tests in
``tests/validation/test_mutation.py`` drive those knobs to prove the gates
actually bite — a tolerance wide enough to absorb a 1.5x delay error would
be a fudge factor, not a bound.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import rng_from
from ..errors import ConfigurationError
from ..fleet.engine import FleetEngine
from ..fleet.hybrid import cold_draw_seed
from ..fleet.spec import FleetSpec
from ..scenarios.engine import (
    SessionEngine,
    repetition_seed,
    sample_channel_delays_batch,
)
from ..scenarios.registry import get_scenario
from ..wireless.bianchi import InterferenceSource
from ..wireless.channel import WirelessChannel
from ..wireless.superposition import SuperpositionModel
from .gates import OracleReport, ToleranceGate


def _mixture_quantile(probs: np.ndarray, rates: np.ndarray, p: float) -> float:
    """Quantile of a hyper-exponential mixture by bisection on its CDF.

    Solves ``1 - sum_j probs[j] * exp(-rates[j] * t) = p`` — the mixture has
    no closed-form inverse, but its survival function is strictly decreasing
    so bisection converges to machine precision.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError("quantile level must be in (0, 1)")

    def survival(t: float) -> float:
        return float(np.sum(probs * np.exp(-rates * t)))

    target = 1.0 - p
    low, high = 0.0, 1.0
    while survival(high) > target:
        high *= 2.0
        if high > 1e12:  # pragma: no cover - defensive, rates are positive
            raise ConfigurationError("mixture quantile did not bracket")
    for _ in range(200):
        mid = 0.5 * (low + high)
        if survival(mid) > target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def bianchi_oracle(
    n_robots: int = 25,
    n_commands: int = 30000,
    queue_commands: int = 2000,
    tolerance_ms: float = 50.0,
    seed: int = 2026,
    delay_scale: float = 1.0,
) -> OracleReport:
    """Cross-check the 802.11 contention simulation against the Bianchi model.

    Parameters
    ----------
    n_robots:
        Contending stations; the default matches the ``congested-ap``
        preset (worst Fig. 8 cell).
    n_commands:
        I.i.d. contention draws for the moment/quantile gates.
    queue_commands:
        Commands pushed through the full AP-queue simulation (with the
        ``congested-ap`` interference source) for the consistency gate.
    tolerance_ms:
        Lateness threshold of the consistency gate.
    seed:
        RNG seed for both simulated paths.
    delay_scale:
        Perturbation knob: multiplies the *simulated* delivered delays
        before comparison.  ``1.0`` is the honest simulator; the mutation
        test sets ``1.5`` and asserts the oracle fails.

    Tolerance bounds (documented; the calibration below was measured over
    12 seeds at the default draw count):

    * mean delay, 6% relative — the hyper-exponential's squared
      coefficient of variation is ~9 at 25 stations, so the standard error
      of the mean over 30000 draws is ``sqrt(SCV / n)`` ~1.7% (measured
      max deviation 2.1%); a 1.5x perturbation (50%) fails decisively.
    * delay standard deviation, 12% relative — fourth-moment noise makes
      the empirical std markedly noisier than the mean (measured max 5.7%).
    * 99th delay percentile, 12% relative vs the numeric mixture-CDF
      inverse — order-statistic noise in the fat tail (measured max 4.7%).
    * air-loss rate, absolute ``4 * sqrt(p (1 - p) / n)`` binomial margin
      around ``a_{m+2}``.
    * queue late rate, absolute 0.10 around the analytic estimate — the
      estimate ignores queueing (which pushes the simulation up) but
      counts every burst-overlapping command as late (which pushes the
      estimate up); at these parameters the two stay within ~0.08 of each
      other across seeds.
    """
    if not float(delay_scale) > 0.0:
        raise ConfigurationError("delay_scale must be > 0")
    contention = WirelessChannel(n_robots=n_robots, seed=seed)
    model = contention.contention_model
    trace = contention.sample_trace(int(n_commands), use_queue=False)
    delays = trace.delays()
    delivered = delays[np.isfinite(delays)] * float(delay_scale)
    if delivered.size == 0:  # pragma: no cover - loss prob is far below 1
        raise ConfigurationError("contention trace delivered no commands")

    service = model.service_distribution()
    expected_std = math.sqrt(service.variance())
    expected_p99 = _mixture_quantile(service.probs, service.rates, 0.99)
    loss_p = model.loss_probability
    loss_margin = 4.0 * math.sqrt(loss_p * (1.0 - loss_p) / int(n_commands))

    gates = [
        ToleranceGate(
            name="mean delivered delay (ms)",
            observed=float(np.mean(delivered)),
            expected=model.mean_delay_ms(),
            rel_tol=0.06,
        ),
        ToleranceGate(
            name="delay std (ms)",
            observed=float(np.std(delivered)),
            expected=expected_std,
            rel_tol=0.12,
        ),
        ToleranceGate(
            name="delay p99 (ms)",
            observed=float(np.percentile(delivered, 99.0)),
            expected=expected_p99,
            rel_tol=0.12,
        ),
        ToleranceGate(
            name="air-loss rate",
            observed=trace.loss_rate(),
            expected=loss_p,
            abs_tol=loss_margin,
        ),
    ]

    # Full-channel consistency: the congested-ap interference parameters
    # through the AP-queue simulation vs the queue-free analytic estimate.
    # (The perturbation knob deliberately does not touch this gate — it
    # scales delays, and this gate compares rates.)
    congested = WirelessChannel(
        n_robots=n_robots,
        interference=InterferenceSource(probability=0.05, duration_slots=100),
        seed=seed + 1,
    )
    queue_trace = congested.sample_trace(int(queue_commands), use_queue=True)
    gates.append(
        ToleranceGate(
            name="queue late rate vs analytic",
            observed=queue_trace.late_rate(float(tolerance_ms)),
            expected=congested.expected_late_probability(float(tolerance_ms)),
            abs_tol=0.10,
        )
    )

    return OracleReport(
        oracle="bianchi",
        params={
            "n_robots": int(n_robots),
            "n_commands": int(n_commands),
            "queue_commands": int(queue_commands),
            "tolerance_ms": float(tolerance_ms),
            "seed": int(seed),
            "delay_scale": float(delay_scale),
        },
        gates=gates,
    )


def superposition_oracle(
    sessions: int = 8,
    delivery_probability: float = 0.5,
    service_ms: float = 2.0,
    period_ms: float = 20.0,
    tail_index: float = 3.0,
    draws: int = 4000,
    seed: int = 2026,
    extra_delay_scale: float = 1.0,
) -> OracleReport:
    """Cross-check the cold-AP delay draws against the superposition limits.

    Parameters
    ----------
    sessions, delivery_probability, service_ms, period_ms, tail_index:
        Superposition parameters (see :class:`~repro.wireless.
        superposition.SuperpositionModel`).  The defaults put the Gaussian
        spread at exactly ``work_std / sqrt(m) = 1.0`` ms around a
        ``~3.83`` ms mean, so the zero-clip is negligible (``P < 1e-4``)
        and the closed-form moments apply unclipped.
    draws:
        Sample size per tail family.
    seed:
        RNG seed for the draws.
    extra_delay_scale:
        Perturbation knob: multiplies the *drawn* delays before comparison
        (``1.0`` = honest; the mutation test uses ``1.5``).

    Tolerance bounds (documented, verified by the calibration tests):

    * Gaussian mean, 3% relative — standard error ``spread / sqrt(draws)``
      is ~0.4% of the mean at the defaults.
    * Gaussian spread, 8% relative — chi-distribution noise on the
      empirical std is ~1.1% at 4000 draws.
    * heavy-tail mean, 10% relative — the Lomax(alpha=3) draw has
      ``std = mean * sqrt(3)``, so the standard error of the mean is ~2.7%.
    * heavy-tail p99, 25% relative vs the closed-form Lomax quantile
      ``(alpha - 1) * mean * ((1 - p)^(-1/alpha) - 1)`` — order-statistic
      noise at the 99th percentile of a fat tail dominates every other
      gate, hence the widest bound (still decisively violated at 1.5x).
    """
    if not float(extra_delay_scale) > 0.0:
        raise ConfigurationError("extra_delay_scale must be > 0")
    draws = int(draws)
    if draws < 100:
        raise ConfigurationError("superposition oracle needs at least 100 draws")
    common = dict(
        sessions=int(sessions),
        delivery_probability=float(delivery_probability),
        service_ms=float(service_ms),
        period_ms=float(period_ms),
    )
    gaussian = SuperpositionModel(tail="gaussian", **common)
    heavy = SuperpositionModel(tail="heavy", tail_index=float(tail_index), **common)
    mean = gaussian.mean_extra_delay_ms()
    spread = gaussian.work_std_ms / math.sqrt(gaussian.sessions)

    rng = rng_from(int(seed))
    gaussian_draws = gaussian.sample_extra_delays(rng, draws) * float(extra_delay_scale)
    heavy_draws = heavy.sample_extra_delays(rng, draws) * float(extra_delay_scale)

    alpha = float(tail_index)
    lomax_p99 = (alpha - 1.0) * mean * ((1.0 - 0.99) ** (-1.0 / alpha) - 1.0)

    gates = [
        ToleranceGate(
            name="gaussian mean extra delay (ms)",
            observed=float(np.mean(gaussian_draws)),
            expected=mean,
            rel_tol=0.03,
        ),
        ToleranceGate(
            name="gaussian spread (ms)",
            observed=float(np.std(gaussian_draws)),
            expected=spread,
            rel_tol=0.08,
        ),
        ToleranceGate(
            name="heavy mean extra delay (ms)",
            observed=float(np.mean(heavy_draws)),
            expected=mean,
            rel_tol=0.10,
        ),
        ToleranceGate(
            name="heavy p99 extra delay (ms)",
            observed=float(np.percentile(heavy_draws, 99.0)),
            expected=lomax_p99,
            rel_tol=0.25,
        ),
    ]
    return OracleReport(
        oracle="superposition",
        params={**common, "tail_index": alpha, "draws": draws, "seed": int(seed),
                "extra_delay_scale": float(extra_delay_scale)},
        gates=gates,
    )


def _cold_fleet_spec(repetitions: int, run_seconds: float) -> FleetSpec:
    """The all-cold validation fleet: 24 operators, 2 per AP, light air-time.

    Two admitted sessions per AP at ``2 ms`` service over a ``20 ms`` period
    put every AP's saturation score around ``0.25`` — well below the default
    ``hot_threshold`` of 0.5, so the hybrid tier must service *every*
    session analytically.
    """
    template = get_scenario(
        "bursty-loss", repetitions=int(repetitions), run_seconds=float(run_seconds)
    )
    return FleetSpec(
        name="validation-cold",
        template=template,
        operators=24,
        aps=12,
        ap_capacity=4,
        ap_service_ms=2.0,
        arrival="simultaneous",
        tier="hybrid",
    )


def cold_fleet_oracle(
    repetitions: int = 4,
    run_seconds: float = 10.0,
    engine: FleetEngine | None = None,
    completion_bias_ms: float = 0.0,
) -> OracleReport:
    """Cross-check the hybrid tier's cold path against the superposition model.

    Runs the all-cold validation fleet (see :func:`_cold_fleet_spec`)
    through :class:`~repro.fleet.engine.FleetEngine` and re-derives
    the analytic expectation independently from the spec: the solo
    template's channel realisations (same per-repetition seeds the engine
    uses) give the last-delivery times ``base_last_ms[r]``, and each
    repetition's superposition model (``m = 2`` sessions at the
    repetition's empirical delivery probability) gives the mean extra
    queueing delay.  A cold session's expected completion is then
    ``(mean_r base_last_ms[r] + mean_r extra(r)) / 1000`` seconds — the
    bootstrap index and the extra-delay draw are both unbiased around those
    means.

    Parameters
    ----------
    repetitions, run_seconds:
        Template sizing (kept small: the fleet runs in a few seconds).
    engine:
        Optional pre-built engine (lets tests share session caches).
    completion_bias_ms:
        Perturbation knob: milliseconds added to the *observed* mean
        completion before comparison (``0.0`` = honest simulator).

    Tolerance bounds (documented, verified by the calibration tests):

    * ``hot_aps`` and exact-session count must be exactly zero and the
      analytic-session count must exactly equal the admitted count — the
      classification is deterministic, so these gates have zero width.
    * mean completion, 2% relative — the bootstrap over ``repetitions``
      solo realisations and the Gaussian extra draws move the 96-session
      mean by well under 0.2% of the ~10 s completion.
    * mean recovery fraction vs the solo mean, absolute 0.05 — the cold
      path bootstraps per-repetition solo recovery values, so the session
      mean is a resample of the solo distribution.
    """
    fleet = _cold_fleet_spec(repetitions, run_seconds)
    if engine is None:
        engine = FleetEngine()
    result = engine.run(fleet)

    template = fleet.template
    sessions = engine.sessions if isinstance(engine.sessions, SessionEngine) else SessionEngine()
    solo = sessions.run(template)
    commands = sessions.test_commands(template)
    n_commands = int(commands.shape[0])
    period = float(template.foreco.command_period_ms)

    reps = int(template.repetitions)
    solo_base = sample_channel_delays_batch(
        template.channel,
        n_commands,
        [repetition_seed(template, r) for r in range(reps)],
        command_period_ms=period,
    )
    slot_ms = np.arange(n_commands) * period
    delivered = np.isfinite(solo_base)
    base_last_ms = np.empty(reps)
    mean_extras = np.empty(reps)
    for r in range(reps):
        mask = delivered[r]
        base_last_ms[r] = (
            float(np.max(slot_ms[mask] + solo_base[r][mask]))
            if mask.any()
            else n_commands * period
        )
        model = SuperpositionModel(
            sessions=2,  # two simultaneous sessions per AP in the validation fleet
            delivery_probability=float(mask.mean()),
            service_ms=float(fleet.ap_service_ms),
            period_ms=period,
            tail=fleet.cold_tail,
            tail_index=float(fleet.cold_tail_index),
        )
        mean_extras[r] = model.mean_extra_delay_ms()
    expected_completion_s = float(np.mean(base_last_ms) + np.mean(mean_extras)) / 1000.0

    observed_completion_s = (
        float(np.mean(result.completion_time_s)) + float(completion_bias_ms) / 1000.0
    )
    gates = [
        ToleranceGate(
            name="hot APs",
            observed=float(result.hot_aps),
            expected=0.0,
            abs_tol=0.0,
        ),
        ToleranceGate(
            name="analytic sessions == admitted",
            observed=float(result.analytic_sessions),
            expected=float(result.admitted),
            abs_tol=0.0,
        ),
        ToleranceGate(
            name="mean completion (s)",
            observed=observed_completion_s,
            expected=expected_completion_s,
            rel_tol=0.02,
        ),
        ToleranceGate(
            name="mean recovery fraction",
            observed=float(np.mean(result.recovery_fraction)),
            expected=float(np.mean(solo.recovery_fraction)),
            abs_tol=0.05,
        ),
    ]
    return OracleReport(
        oracle="cold-fleet",
        params={
            "operators": fleet.operators,
            "aps": fleet.aps,
            "ap_service_ms": fleet.ap_service_ms,
            "repetitions": reps,
            "run_seconds": float(run_seconds),
            "cold_draw_seed0": cold_draw_seed(fleet, 0),
            "completion_bias_ms": float(completion_bias_ms),
        },
        gates=gates,
    )


def run_validation(engine: FleetEngine | None = None) -> list[OracleReport]:
    """Run every standing oracle at its default parameters.

    Returns the three reports (Bianchi, superposition, cold fleet) without
    raising; callers gate on ``report.passed`` or call
    :meth:`~repro.validation.gates.OracleReport.check`.
    """
    return [
        bianchi_oracle(),
        superposition_oracle(),
        cold_fleet_oracle(engine=engine),
    ]
