"""Hybrid exact/analytic fleet tier for city-scale operator populations.

At city scale the overwhelming majority of access points are lightly
loaded: simulating every one through the exact per-command Lindley backlog
is wasted work.  A ``tier="hybrid"`` fleet spec makes
:class:`~repro.fleet.engine.FleetEngine`

1. **classify** every AP as *hot* or *cold* (:func:`classify_aps`) with the
   Bianchi-derived saturation score
   (:func:`repro.wireless.bianchi.saturation_score`) computed from the AP's
   peak admitted concurrency and its air-time load
   ``m * ap_service_ms / command_period_ms`` — admission capacity bounds
   the concurrency, so the classifier sees the *admitted* load, not the
   offered one;
2. run hot APs through :meth:`~repro.fleet.engine.FleetEngine.execute`,
   the exact fleet pipeline, on the hot sessions only — because the exact
   coupling is per-AP, the hot sessions' results are bit-identical to what
   a pure-exact run would produce for them;
3. serve cold APs with the **analytic Gaussian/heavy-tail superposition
   delay model** (:func:`serve_cold`, on
   :class:`repro.wireless.superposition.SuperpositionModel`): per-session
   metrics bootstrap the template's own repetition statistics and shift
   them by an analytic extra-queueing-delay draw, sampled with a
   spec-derived block-ordered RNG so runs stay deterministic and
   store-cacheable.

This module holds the classifier and the cold tier; the engine holds the
one pipeline both tiers run through.  The tier turns fleet cost from
``O(operators x commands)`` into ``O(hot-operators x commands + APs)`` —
the single biggest lever for the "fleets of millions" north star.  The
error-vs-exact gate and the crossover guidance live in ``docs/fleet.md``
("City scale"); the ``>=100x`` operators-per-second claim is asserted by
``benchmarks/test_bench_hybrid.py``.

Determinism
-----------

Everything the tier does is a pure function of the spec: the admission
plan and classification derive from spec content, hot sessions reuse the
exact engine's per-``(operator, repetition)`` seeds, and the cold-AP draws
consume one generator per repetition (seeded from
:meth:`~repro.fleet.spec.FleetSpec.workload_identity`) in a fixed
repetition-major, AP-ascending, operator-ascending block order.  Hybrid
runs are therefore bit-identical across worker counts, and a fleet whose
every AP classifies hot degenerates to the plain exact computation bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..scenarios.engine import SessionEngine, repetition_seed, sample_channel_delays_batch
from ..scenarios.spec import _hash_seed
from ..wireless.bianchi import saturation_score
from ..wireless.superposition import SuperpositionModel
from .spec import FleetSpec

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from .engine import _Session


# ------------------------------------------------------------- classification
@dataclass(frozen=True)
class ApClassification:
    """Hot/cold verdict for one access point.

    Attributes
    ----------
    ap:
        Access-point index.
    peak_sessions:
        Peak concurrent admitted sessions across all repetitions.
    score:
        Bianchi saturation score in ``[0, 1]`` (0.0 for an empty AP).
    hot:
        True when ``score >= fleet.hot_threshold`` — the AP is simulated
        exactly.
    """

    ap: int
    peak_sessions: int
    score: float
    hot: bool


def _peak_overlap(offsets: list[int], n_commands: int) -> int:
    """Peak number of concurrently active equal-length session windows."""
    if not offsets:
        return 0
    ordered = sorted(offsets)
    peak = 0
    start = 0
    for index, offset in enumerate(ordered):
        # windows [o, o + n) — the one starting at ordered[start] has ended
        # by `offset` iff ordered[start] + n <= offset
        while ordered[start] + n_commands <= offset:
            start += 1
        peak = max(peak, index - start + 1)
    return peak


def classify_aps(
    fleet: FleetSpec, plans: list[list[_Session]], n_commands: int
) -> tuple[ApClassification, ...]:
    """Classify every AP hot or cold from the admission plans.

    The score for an AP with peak admitted concurrency ``m`` is
    ``saturation_score(m, offered_load=m * ap_service_ms / period_ms)`` —
    the Bianchi fixed point's failure probability for an ``m``-station DCF
    cell composed with the cell's air-time load.  Empty APs score 0.0 and
    are always cold (they carry no sessions either way).
    """
    period = float(fleet.template.foreco.command_period_ms)
    service = float(fleet.ap_service_ms)
    per_ap_offsets: dict[int, list[list[int]]] = {}
    for plan in plans:
        for session in plan:
            per_ap_offsets.setdefault(session.ap, [[] for _ in plans])
    for repetition, plan in enumerate(plans):
        for session in plan:
            per_ap_offsets[session.ap][repetition].append(session.offset_slots)

    score_cache: dict[int, float] = {}
    classifications = []
    for ap in range(fleet.aps):
        reps = per_ap_offsets.get(ap)
        peak = 0
        if reps is not None:
            peak = max(_peak_overlap(offsets, n_commands) for offsets in reps)
        if peak == 0:
            score = 0.0
        else:
            score = score_cache.get(peak)
            if score is None:
                score = saturation_score(peak, offered_load=peak * service / period)
                score_cache[peak] = score
        classifications.append(
            ApClassification(
                ap=ap,
                peak_sessions=peak,
                score=score,
                hot=score >= float(fleet.hot_threshold),
            )
        )
    return tuple(classifications)


def cold_draw_seed(fleet: FleetSpec, repetition: int) -> int:
    """Deterministic RNG seed for one repetition's cold-AP delay draws.

    Derived from the fleet's :meth:`~repro.fleet.spec.FleetSpec.
    workload_identity` (like :func:`~repro.fleet.spec.arrival_seed`, with a
    distinct domain tag) — independent of worker scheduling and of the tier
    knobs themselves, so sweeping ``hot_threshold`` keeps the cold draws of
    still-cold APs aligned.
    """
    return _hash_seed(fleet.workload_identity_json, "cold", int(repetition))


# ------------------------------------------------------------------ cold tier
def serve_cold(
    sessions: SessionEngine, fleet: FleetSpec, cold_plans: list[list[_Session]], n_commands: int
) -> tuple[dict[tuple[int, int], tuple[float, float, float, float, float]], np.ndarray]:
    """Analytic superposition around the template's solo statistics.

    Returns the five metric entries of every cold session keyed by
    ``(operator, repetition)`` and the per-AP utilisation (mean over
    repetitions) of the cold APs.  ``sessions`` runs the template solo.
    """
    template = fleet.template
    period = float(template.foreco.command_period_ms)
    solo = sessions.run(template)
    repetitions = template.repetitions
    solo_base = sample_channel_delays_batch(
        template.channel,
        n_commands,
        [repetition_seed(template, r) for r in range(repetitions)],
        command_period_ms=period,
    )
    deadline = float(template.foreco.to_config().deadline_ms)
    slot_ms = np.arange(n_commands) * period
    delivered = np.isfinite(solo_base)
    on_time = delivered & (solo_base <= deadline)
    q_per_rep = delivered.mean(axis=1)
    base_last_ms = np.empty(repetitions)
    base_late = np.empty(repetitions)
    for r in range(repetitions):
        mask = delivered[r]
        base_last_ms[r] = (
            float(np.max(slot_ms[mask] + solo_base[r][mask]))
            if mask.any()
            else n_commands * period
        )
        base_late[r] = float(1.0 - on_time[r].mean())

    cold_values: dict[tuple[int, int], tuple[float, float, float, float, float]] = {}
    cold_util = np.zeros((repetitions, fleet.aps))
    for repetition, plan in enumerate(cold_plans):
        rng = np.random.default_rng(cold_draw_seed(fleet, repetition))
        members_by_ap: dict[int, list[_Session]] = {}
        for session in plan:
            members_by_ap.setdefault(session.ap, []).append(session)
        for ap in sorted(members_by_ap):
            members = members_by_ap[ap]
            peak = _peak_overlap([s.offset_slots for s in members], n_commands)
            q = float(q_per_rep[repetition])
            model = SuperpositionModel(
                sessions=max(peak, 1),
                delivery_probability=q,
                service_ms=float(fleet.ap_service_ms),
                period_ms=period,
                tail=fleet.cold_tail,
                tail_index=float(fleet.cold_tail_index),
            )
            extras = model.sample_extra_delays(rng, len(members))
            boot = rng.integers(0, repetitions, size=len(members))
            total_slots = max(s.offset_slots for s in members) + n_commands
            concurrency = len(members) * n_commands / total_slots
            cold_util[repetition, ap] = min(
                1.0, concurrency * q * float(fleet.ap_service_ms) / period
            )
            # Share of each session's slots its extra delay makes late:
            # on time in the solo trace, past the deadline once shifted.
            shifts = np.count_nonzero(
                on_time[boot] & (solo_base[boot] + extras[:, None] > deadline), axis=1
            ) / n_commands
            for session, extra, j, shift in zip(members, extras.tolist(), boot.tolist(), shifts.tolist()):
                late = min(1.0, max(0.0, base_late[j] + shift))
                completion_s = (
                    session.offset_slots * period + base_last_ms[j] + extra
                ) / 1000.0
                cold_values[(session.operator, session.repetition)] = (
                    float(solo.rmse_no_forecast_mm[j]),
                    float(solo.rmse_foreco_mm[j]),
                    late,
                    float(solo.recovery_fraction[j]),
                    completion_s,
                )

    return cold_values, cold_util.mean(axis=0)
