"""Runner dispatch: scoped flags, end-of-run store lines, JSON section order.

Every preset keyword (``--scenario``, ``fleet``, ``serve``, ``plan``) and
``search`` goes through one dispatch in
:func:`repro.experiments.runner.run_experiments`.  These tests pin what the
dispatch must keep: each keyword-scoped option is refused without its
keyword, every text ``store:`` line states the store as it stands at the end
of the run, and the JSON report keeps its top-level key order.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiments
from repro.scenarios import ResultStore

#: option -> (value, CLI flag, keywords the option needs).
SCOPED_OPTIONS = {
    "fleet_tier": ("hybrid", "--fleet-tier", ("fleet",)),
    "budget": (4, "--budget", ("search", "plan")),
    "promote": (True, "--promote", ("search",)),
    "policy": ("static-cap", "--policy", ("serve",)),
    "until": (30.0, "--until", ("serve",)),
    "slo_p99": (0.9, "--slo-p99", ("plan",)),
    "slo_drop": (0.1, "--slo-drop", ("plan",)),
}

#: Top-level keys of a report that runs every section, in emission order.
JSON_KEY_ORDER = [
    "report_version",
    "scale",
    "seed",
    "experiments",
    "search",
    "scenarios",
    "fleets",
    "fleet_tier",
    "services",
    "plans",
    "store",
]


@pytest.mark.parametrize("option", sorted(SCOPED_OPTIONS))
def test_scoped_option_requires_its_keyword(option):
    value, flag, keywords = SCOPED_OPTIONS[option]
    with pytest.raises(ConfigurationError) as excinfo:
        run_experiments([], scale="ci", seed=1, scenarios=["clean"], **{option: value})
    message = str(excinfo.value)
    assert flag in message
    for keyword in keywords:
        assert keyword in message


def test_every_store_line_reports_the_end_of_run_entries(tmp_path):
    root = tmp_path / "store"
    report = run_experiments(
        ["fleet", "serve"], scale="ci", seed=42, scenarios=["clean"], store=str(root)
    )
    counts = re.findall(r"^store: .* (\d+) entries at ", report, flags=re.MULTILINE)
    assert len(counts) == 3  # scenario, fleet and service sections
    assert set(counts) == {str(len(ResultStore(root)))}


def test_json_top_level_key_order(tmp_path):
    report = run_experiments(
        ["fleet", "serve", "search", "plan"],
        scale="ci",
        seed=42,
        fmt="json",
        scenarios=["bursty-loss"],
        fleet=2,
        budget=2,
        until=120.0,
        store=str(tmp_path / "store"),
    )
    assert list(json.loads(report)) == JSON_KEY_ORDER
