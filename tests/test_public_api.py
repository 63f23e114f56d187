"""Tests for the top-level public API and the validation helpers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro._validation import (
    as_command_array,
    ensure_int,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
)
from repro.errors import ConfigurationError, DimensionError, ReproError


def test_version_and_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export {name}"


#: Most ``repro`` modules a bare ``import repro`` may load; lower it when
#: the import footprint shrinks, never raise it.
MAX_REPRO_MODULES_ON_IMPORT = 65


def test_import_loads_no_scipy():
    """The library needs only numpy: importing it and the runner loads no scipy.

    Runs in a fresh interpreter, since this test process may already hold
    scipy for the test-only oracles.  The same interpreter also ratchets how
    many ``repro`` modules ``import repro`` alone loads.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = (
        "import json, sys, repro; on_import = sorted(sys.modules); "
        "import repro.experiments.runner; print(json.dumps([on_import, sorted(sys.modules)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    on_import, modules = json.loads(result.stdout)
    assert "repro.experiments.runner" in modules
    assert [name for name in modules if name == "scipy" or name.startswith("scipy.")] == []
    loaded = [name for name in on_import if name == "repro" or name.startswith("repro.")]
    assert len(loaded) <= MAX_REPRO_MODULES_ON_IMPORT, loaded


def test_error_hierarchy():
    assert issubclass(ConfigurationError, ReproError)
    assert issubclass(DimensionError, ReproError)


def test_quick_demo_end_to_end():
    outcome = repro.quick_demo(seed=3, n_repetitions=3)
    assert outcome.rmse_foreco_mm >= 0.0
    assert outcome.rmse_no_forecast_mm >= 0.0
    assert 0.0 <= outcome.late_fraction <= 1.0
    assert outcome.improvement_factor > 0.0


def test_validation_helpers():
    assert ensure_positive("x", 1.5) == 1.5
    with pytest.raises(ConfigurationError):
        ensure_positive("x", 0.0)
    assert ensure_non_negative("x", 0.0) == 0.0
    with pytest.raises(ConfigurationError):
        ensure_non_negative("x", -1.0)
    assert ensure_probability("p", 0.5) == 0.5
    with pytest.raises(ConfigurationError):
        ensure_probability("p", 1.5)
    assert ensure_int("n", 3, minimum=1) == 3
    with pytest.raises(ConfigurationError):
        ensure_int("n", 2.5)
    with pytest.raises(ConfigurationError):
        ensure_int("n", 0, minimum=1)


def test_as_command_array_promotion_and_validation():
    single = as_command_array("c", [1.0, 2.0, 3.0])
    assert single.shape == (1, 3)
    with pytest.raises(DimensionError):
        as_command_array("c", np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        as_command_array("c", [[np.nan, 1.0]])
    with pytest.raises(DimensionError):
        as_command_array("c", np.empty((0, 3)))
