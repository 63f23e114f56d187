"""Search-harness contracts: determinism, memoization, promotion, pins.

The acceptance bar for the coverage-guided search (see docs/validation.md):

* fixed ``(seed, budget)`` is bit-deterministic across ``jobs`` counts;
* a rerun against the same store recomputes nothing (100 % hits);
* discovered worst cases promote to ``adversarial-*`` presets, and the two
  presets baked into the registry stay pinned to their discovered
  worst-case recovery metrics.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ResultStore,
    ScenarioSearch,
    SearchConfig,
    SessionEngine,
    get_scenario,
    run_search,
)
from repro.scenarios.registry import SCENARIOS
from repro.scenarios.search import adversarial_score, p99_recovery

BUDGET = 8
SEED = 3


def _signature(result):
    """Order-sensitive fingerprint of a search run."""
    return [(p.spec.spec_hash(), p.score, p.round) for p in result.probes]


@pytest.fixture(scope="module")
def reference():
    """The serial reference run every determinism test compares to."""
    return run_search(budget=BUDGET, seed=SEED, jobs=1)


def test_search_spends_exactly_its_budget(reference):
    assert len(reference) == BUDGET
    assert reference.rounds >= 1  # refinement actually happened
    hashes = [p.spec.spec_hash() for p in reference.probes]
    assert len(set(hashes)) == BUDGET  # deduplicated probes


@pytest.mark.parametrize("jobs", [2, 4])
def test_search_deterministic_across_jobs(reference, jobs):
    parallel = run_search(budget=BUDGET, seed=SEED, jobs=jobs)
    assert _signature(parallel) == _signature(reference)


def test_warm_rerun_recomputes_nothing(tmp_path, reference):
    store = ResultStore(tmp_path / "store")
    cold = run_search(budget=BUDGET, seed=SEED, store=store)
    assert cold.store_misses == BUDGET
    assert cold.store_hits == 0
    warm = run_search(budget=BUDGET, seed=SEED, store=store)
    assert warm.store_hits == BUDGET
    assert warm.store_misses == 0
    assert _signature(warm) == _signature(cold) == _signature(reference)


def test_promotion_registers_adversarial_presets(reference):
    unregistered = reference.promote(k=2, register=False)
    assert len(unregistered) == 2
    assert all(spec.name.startswith("adversarial-") for spec in unregistered)
    assert reference.promoted == []  # register=False leaves no trace

    promoted = reference.promote(k=2)
    try:
        assert reference.promoted == [spec.name for spec in promoted]
        for spec in promoted:
            assert spec.name.endswith(spec.spec_hash()[:6])
            assert get_scenario(spec.name) == spec
    finally:
        for spec in promoted:
            SCENARIOS._presets.pop(spec.name, None)


def test_search_config_validation():
    with pytest.raises(ConfigurationError):
        SearchConfig(budget=0)
    with pytest.raises(ConfigurationError):
        SearchConfig(top_k=0)
    with pytest.raises(ConfigurationError):
        SearchConfig(explore_fraction=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioSearch(grammar="not a grammar")  # type: ignore[arg-type]


def test_search_report_renderings(reference):
    payload = reference.to_dict()
    assert payload["budget"] == BUDGET
    assert payload["evaluated"] == BUDGET
    assert len(payload["top"]) == reference.config.top_k
    text = reference.to_text()
    assert f"budget {BUDGET}" in text
    assert "score" in text


# ------------------------------------------------- pinned discovered presets
#: Worst-case recovery metrics of the two search-discovered presets baked
#: into the registry (found by ``run_search(budget=48, seed=7)``).  The
#: engine is deterministic, so drift here means the simulation changed.
PINNED = {
    "adversarial-compound-3a9fdc": {
        "spec_hash": "3a9fdc2c0ee0ce0d",
        "p99_recovery": 0.9620830557406174,
        "mean_late_fraction": 0.7466666666666667,
        "score": 0.7845836109260493,
    },
    "adversarial-jammer-391374": {
        "spec_hash": "39137420bb137c5f",
        "p99_recovery": 0.9723830088495575,
        "mean_late_fraction": 0.6466666666666667,
        "score": 0.6742836578171092,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_adversarial_preset_regression(name):
    pinned = PINNED[name]
    spec = get_scenario(name)
    assert spec.spec_hash() == pinned["spec_hash"]
    result = SessionEngine().run(spec)
    assert p99_recovery(result) == pytest.approx(pinned["p99_recovery"], abs=1e-9)
    assert float(result.mean_late_fraction) == pytest.approx(
        pinned["mean_late_fraction"], abs=1e-9
    )
    assert adversarial_score(result) == pytest.approx(pinned["score"], abs=1e-9)
    # These presets exist because they are adversarial: a meaningful share
    # of commands arrives late/lost even after recovery.
    assert float(result.mean_late_fraction) > 0.5
