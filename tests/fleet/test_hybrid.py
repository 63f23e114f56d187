"""Hybrid tier contracts: classification, degeneracy, accuracy, determinism.

Three guarantees anchor the tier (see docs/fleet.md, "City scale"):

* **degeneracy** — a hybrid fleet whose every occupied AP classifies hot is
  bit-identical to the plain exact :class:`FleetEngine` on the same
  workload;
* **accuracy** — at the hot/cold crossover, the hybrid service-level
  metrics stay within the documented tolerance of the pure-exact twin
  (recovery percentiles within ``RECOVERY_TOL`` absolute, completion
  percentiles within ``COMPLETION_REL`` relative, late fraction within
  ``LATE_TOL`` absolute);
* **determinism** — results are bit-identical across worker counts, and
  round-trip through the persistent store.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.runner import run_experiments
from repro.fleet import (
    FleetEngine,
    FleetSpec,
    cold_draw_seed,
    get_fleet,
)
from repro.fleet.engine import _plan
from repro.fleet.hybrid import _peak_overlap
from repro.scenarios import ResultStore, SessionEngine, SweepExecutor

RUN_SECONDS = 8.0

#: Documented hybrid-vs-exact tolerance at the crossover scale.
RECOVERY_TOL = 0.05  # p50/p99 recovery, absolute
COMPLETION_REL = 0.10  # p50/p99 completion time, relative
LATE_TOL = 0.05  # mean late fraction, absolute


@pytest.fixture(scope="module")
def engines():
    """One shared SessionEngine + FleetEngine pair for the module."""
    sessions = SessionEngine()
    return sessions, FleetEngine(sessions=sessions)


def _crossover_fleet() -> FleetSpec:
    """A genuinely mixed fleet: 5 hot / 7 cold APs at threshold 0.75."""
    return (
        get_fleet("shared-ap", operators=48)
        .with_(
            aps=12,
            ap_capacity=6,
            ap_service_ms=5.0,
            arrival="poisson",
            arrival_rate_hz=3.0,
            tier="hybrid",
            hot_threshold=0.75,
        )
        .with_template(run_seconds=RUN_SECONDS)
    )


class TestClassification:
    def test_peak_overlap_counts_concurrent_windows(self):
        assert _peak_overlap([], 10) == 0
        assert _peak_overlap([0, 0, 0], 10) == 3
        assert _peak_overlap([0, 10, 20], 10) == 1  # back-to-back, no overlap
        assert _peak_overlap([0, 5, 25], 10) == 2

    def test_saturated_ap_is_hot_idle_ap_is_cold(self, engines):
        _, fleets = engines
        fleet = get_fleet("shared-ap").with_(
            aps=2, tier="hybrid", hot_threshold=0.5
        ).with_template(run_seconds=RUN_SECONDS)
        # 4 simultaneous operators over 2 APs -> 2 per AP at 6 ms service
        verdicts = fleets.classify(fleet)
        assert len(verdicts) == 2
        assert all(v.peak_sessions == 2 for v in verdicts)
        sparse = fleets.classify(fleet.with_(operators=1, hot_threshold=1.0))
        assert sparse[0].peak_sessions == 1 and not sparse[0].hot
        assert sparse[1].peak_sessions == 0 and sparse[1].score == 0.0

    def test_scores_monotone_in_threshold_only_flip_hot(self, engines):
        _, fleets = engines
        fleet = _crossover_fleet()
        low = fleets.classify(fleet.with_(hot_threshold=0.1))
        high = fleets.classify(fleet.with_(hot_threshold=0.9))
        assert [v.score for v in low] == [v.score for v in high]
        assert sum(v.hot for v in low) >= sum(v.hot for v in high)

    def test_crossover_fleet_is_genuinely_mixed(self, engines):
        _, fleets = engines
        verdicts = fleets.classify(_crossover_fleet())
        hot = sum(v.hot for v in verdicts)
        assert 0 < hot < len(verdicts)

    def test_cold_draw_seed_ignores_tier_knobs(self):
        fleet = _crossover_fleet()
        assert cold_draw_seed(fleet, 0) == cold_draw_seed(fleet.with_(tier="exact"), 0)
        assert cold_draw_seed(fleet, 0) == cold_draw_seed(fleet.with_(hot_threshold=0.2), 0)
        assert cold_draw_seed(fleet, 0) != cold_draw_seed(fleet, 1)
        assert cold_draw_seed(fleet, 0) != cold_draw_seed(fleet.with_(operators=47), 0)


class TestDegeneracy:
    def test_all_hot_fleet_is_bit_identical_to_exact(self, engines):
        """Every AP hot => the hybrid tier IS the exact computation."""
        sessions, _ = engines
        base = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
        hybrid = FleetEngine(sessions=sessions).run(base.with_(tier="hybrid", hot_threshold=1e-9))
        exact = FleetEngine(sessions=sessions).run(base)
        assert hybrid.tier == "hybrid"
        assert (hybrid.hot_aps, hybrid.cold_aps) == (1, 0)
        assert hybrid.exact_sessions == exact.admitted
        assert hybrid.analytic_sessions == 0
        assert hybrid.rmse_no_forecast_mm == exact.rmse_no_forecast_mm
        assert hybrid.rmse_foreco_mm == exact.rmse_foreco_mm
        assert hybrid.late_fraction == exact.late_fraction
        assert hybrid.recovery_fraction == exact.recovery_fraction
        assert hybrid.completion_time_s == exact.completion_time_s
        assert hybrid.ap_utilization == exact.ap_utilization
        assert np.array_equal(hybrid.delays_ms, exact.delays_ms)

    def test_exact_tier_spec_takes_the_plain_path(self, engines):
        """An exact-tier spec runs every AP hot and classifies nothing."""
        sessions, _ = engines
        base = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
        first = FleetEngine(sessions=sessions).run(base)
        again = FleetEngine(sessions=sessions).run(base)
        assert first.to_dict() == again.to_dict()
        assert first.tier == "exact"
        assert (first.hot_aps, first.cold_aps) == (base.aps, 0)
        assert (first.exact_sessions, first.analytic_sessions) == (first.admitted, 0)


class TestAccuracy:
    """The error-vs-exact gate at the crossover scale (ISSUE acceptance)."""

    @pytest.fixture(scope="class")
    def pair(self, engines):
        sessions, _ = engines
        fleet = _crossover_fleet()
        hybrid = FleetEngine(sessions=sessions).run(fleet)
        exact = FleetEngine(sessions=sessions).run(fleet.with_(tier="exact"))
        return hybrid, exact

    def test_same_admission_plan(self, pair):
        hybrid, exact = pair
        assert hybrid.admitted == exact.admitted
        assert hybrid.dropped_sessions == exact.dropped_sessions
        assert hybrid.exact_sessions + hybrid.analytic_sessions == hybrid.admitted
        assert hybrid.hot_aps > 0 and hybrid.cold_aps > 0

    def test_hot_rows_equal_the_exact_twin(self, pair, engines):
        """Hot APs run the exact pipeline: their rows match the twin bit for bit."""
        hybrid, exact = pair
        _, fleets = engines
        fleet = hybrid.spec
        hot = {v.ap for v in fleets.classify(fleet) if v.hot}
        n_commands = int(fleets.sessions.test_commands(fleet.template).shape[0])
        sessions = sorted(
            (session for plan in _plan(fleet, n_commands)[0] for session in plan),
            key=lambda session: (session.operator, session.repetition),
        )
        hot_rows = [row for row, session in enumerate(sessions) if session.ap in hot]
        assert 0 < len(hot_rows) < len(sessions)
        for name in (
            "rmse_no_forecast_mm",
            "rmse_foreco_mm",
            "late_fraction",
            "recovery_fraction",
            "completion_time_s",
        ):
            ours, theirs = getattr(hybrid, name), getattr(exact, name)
            assert [ours[row] for row in hot_rows] == [theirs[row] for row in hot_rows], name
        assert all(hybrid.ap_utilization[ap] == exact.ap_utilization[ap] for ap in hot)

    def test_recovery_percentiles_within_tolerance(self, pair):
        hybrid, exact = pair
        assert hybrid.p50_recovery == pytest.approx(exact.p50_recovery, abs=RECOVERY_TOL)
        assert hybrid.p99_recovery == pytest.approx(exact.p99_recovery, abs=RECOVERY_TOL)

    def test_completion_percentiles_within_tolerance(self, pair):
        hybrid, exact = pair
        assert hybrid.p50_completion_s == pytest.approx(
            exact.p50_completion_s, rel=COMPLETION_REL
        )
        assert hybrid.p99_completion_s == pytest.approx(
            exact.p99_completion_s, rel=COMPLETION_REL
        )

    def test_late_fraction_within_tolerance(self, pair):
        hybrid, exact = pair
        assert hybrid.mean_late_fraction == pytest.approx(
            exact.mean_late_fraction, abs=LATE_TOL
        )

    def test_rmse_distributions_share_support(self, pair):
        """Cold rows bootstrap the solo statistics, so the RMS error stays
        in the exact run's range (cold APs barely change tracking error)."""
        hybrid, exact = pair
        lo, hi = min(exact.rmse_foreco_mm), max(exact.rmse_foreco_mm)
        margin = 0.1 * (hi - lo)
        assert all(lo - margin <= v <= hi + margin for v in hybrid.rmse_foreco_mm)


class TestDeterminism:
    def test_fresh_engine_reproduces_bit_for_bit(self, engines):
        sessions, _ = engines
        fleet = _crossover_fleet()
        a = FleetEngine(sessions=sessions).run(fleet)
        b = FleetEngine(sessions=SessionEngine()).run(fleet)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sweep_jobs_do_not_change_hybrid_results(self, jobs):
        specs = [
            _crossover_fleet(),
            get_fleet("shared-ap").with_(tier="hybrid", hot_threshold=1e-9).with_template(
                run_seconds=RUN_SECONDS
            ),
        ]
        serial = SweepExecutor(jobs=1).run(specs)
        fanned = SweepExecutor(jobs=jobs).run(specs)
        assert [row.to_dict() for row in serial] == [row.to_dict() for row in fanned]


class TestStore:
    def test_hybrid_result_round_trips_with_tier_metadata(self, tmp_path, engines):
        sessions, _ = engines
        fleet = _crossover_fleet()
        store = ResultStore(tmp_path / "store")
        computed = FleetEngine(sessions=sessions, store=store).run(fleet)
        loaded = ResultStore(tmp_path / "store").get(fleet)
        assert loaded is not None
        assert loaded.tier == "hybrid"
        assert (loaded.hot_aps, loaded.cold_aps) == (computed.hot_aps, computed.cold_aps)
        assert loaded.exact_sessions == computed.exact_sessions
        assert loaded.analytic_sessions == computed.analytic_sessions
        assert loaded.to_dict() == computed.to_dict()

    def test_tier_twins_occupy_distinct_addresses(self, tmp_path, engines):
        sessions, _ = engines
        fleet = _crossover_fleet()
        store = ResultStore(tmp_path / "store")
        FleetEngine(sessions=sessions, store=store).run(fleet)
        assert ResultStore(tmp_path / "store").get(fleet.with_(tier="exact")) is None

    def test_tier_mismatched_shard_is_a_miss(self, tmp_path, engines):
        """A shard whose stored tier contradicts the spec is quarantined."""
        sessions, _ = engines
        fleet = _crossover_fleet()
        store = ResultStore(tmp_path / "store")
        FleetEngine(sessions=sessions, store=store).run(fleet)
        path = store.shard_path(fleet.spec_hash())
        record = json.loads(path.read_text(encoding="utf-8"))
        record["tier"] = "exact"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert ResultStore(tmp_path / "store").get(fleet) is None

    def test_warm_hybrid_sweep_is_all_hits(self, tmp_path):
        specs = [_crossover_fleet()]
        first = SweepExecutor(store=ResultStore(tmp_path / "store")).run(specs)
        assert (first.store_hits, first.store_misses) == (0, 1)
        second = SweepExecutor(store=ResultStore(tmp_path / "store")).run(specs)
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert [row.to_dict() for row in second] == [row.to_dict() for row in first]


class TestRunner:
    def test_fleet_tier_override_lands_in_the_json_report(self, tmp_path):
        document = json.loads(
            run_experiments(
                [], scale="ci", seed=42, jobs=2, fmt="json", fleet=2,
                store=str(tmp_path / "store"), fleet_tier="hybrid",
            )
        )
        block = document["fleet_tier"]
        assert block["override"] == "hybrid"
        assert set(block["tiers"].values()) == {"hybrid"}
        for row in document["fleets"]:
            assert row["tier"] == "hybrid"
            assert row["exact_sessions"] + row["analytic_sessions"] == row["admitted"]

    def test_fleet_tier_exact_override_forces_the_exact_path(self):
        document = json.loads(
            run_experiments(
                ["fleet"], scale="ci", seed=42, jobs=1, fmt="json", fleet=2,
                fleet_tier="exact",
            )
        )
        assert set(document["fleet_tier"]["tiers"].values()) == {"exact"}

    def test_text_report_carries_the_tier_line(self):
        report = run_experiments(
            ["fleet"], scale="ci", seed=42, jobs=1, fmt="text", fleet=2,
            fleet_tier="hybrid",
        )
        assert "tier:" in report
        assert "--fleet-tier hybrid override" in report
