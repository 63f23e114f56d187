"""Runner error paths: typed ConfigurationError from the library, clean CLI exits.

:func:`repro.experiments.runner.run_experiments` is the library entry point:
configuration misuse raises :class:`repro.errors.ConfigurationError` so
programmatic callers can handle it.  :func:`repro.experiments.runner.main`
wraps that into a one-line ``SystemExit`` — never a traceback.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import build_parser, main, run_experiments


def _message(excinfo) -> str:
    return str(excinfo.value)


def test_unknown_experiment_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["bogus"], scale="ci", seed=1)
    assert "unknown experiment" in _message(excinfo)
    assert "bogus" in _message(excinfo)


def test_unknown_scenario_name():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["not-a-preset"])
    assert "unknown scenario" in _message(excinfo)


def test_fleet_tier_requires_a_fleet_run():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], fleet_tier="hybrid")
    assert "--fleet-tier" in _message(excinfo)
    assert "fleet" in _message(excinfo)


def test_budget_requires_search_or_plan_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], budget=8)
    assert "--budget" in _message(excinfo)
    assert "search" in _message(excinfo)
    assert "plan" in _message(excinfo)


def test_slo_flags_require_plan_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], slo_p99=0.9)
    assert "--slo-p99" in _message(excinfo)
    assert "plan" in _message(excinfo)
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["fleet"], scale="ci", seed=1, fleet=2, slo_drop=0.1)
    assert "--slo-drop" in _message(excinfo)
    assert "plan" in _message(excinfo)


def test_malformed_plan_gate_and_budget():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["plan"], scale="ci", seed=1, slo_p99=1.5)
    assert "slo_p99" in _message(excinfo)
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["plan"], scale="ci", seed=1, budget=0)
    assert "budget" in _message(excinfo)


def test_policy_requires_serve_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], policy="static-cap")
    assert "--policy" in _message(excinfo)
    assert "serve" in _message(excinfo)


def test_until_requires_serve_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["fleet"], scale="ci", seed=1, fleet=2, until=30.0)
    assert "--until" in _message(excinfo)
    assert "serve" in _message(excinfo)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_refuses_fewer_than_one_worker(jobs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--scenario", "clean", "--jobs", jobs])
    assert "jobs must be >= 1" in str(excinfo.value)
    assert capsys.readouterr().out == ""  # refused before anything ran


def test_resume_requires_store():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], resume=True)
    assert "--resume requires --store" in _message(excinfo)


def test_resume_refuses_empty_store(tmp_path):
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(
            [], scale="ci", seed=1, scenarios=["clean"],
            store=str(tmp_path / "empty"), resume=True,
        )
    assert "no entries" in _message(excinfo)


def test_promote_requires_search_keyword():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], promote=True)
    assert "--promote" in _message(excinfo)


def test_malformed_search_budget():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["search"], scale="ci", seed=1, budget=0)
    assert "budget" in _message(excinfo)


def test_unknown_service_policy():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments(["serve"], scale="ci", seed=1, policy="round-robin")
    assert "policy" in _message(excinfo)


def test_nothing_to_run():
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1)
    assert "nothing to run" in _message(excinfo)
    assert "serve" in _message(excinfo)


def test_main_exits_cleanly_on_misuse(capsys):
    # main() renders ConfigurationError as a clean SystemExit, not a traceback.
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert not isinstance(excinfo.value, ConfigurationError)
    assert "unknown experiment" in str(excinfo.value)
    with pytest.raises(SystemExit) as excinfo:
        main(["--policy", "static-cap"])
    assert "--policy" in str(excinfo.value)
    # argparse-level misuse (bad choice values) also exits, not raises.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--fleet-tier", "warp"])
    capsys.readouterr()
