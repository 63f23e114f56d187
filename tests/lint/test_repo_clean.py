"""Integration: the committed tree, baseline and manifest satisfy replint end to end."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.lint import Baseline, run_lint
from repro.lint.baseline import TODO_JUSTIFICATION
from repro.lint.engine import DEFAULT_BASELINE_NAME, DEFAULT_MANIFEST_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_replint_script():
    """``scripts/replint.py`` as a module, so its ``main`` runs in-process."""
    spec = importlib.util.spec_from_file_location("replint_script", REPO_ROOT / "scripts" / "replint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REPLINT = _load_replint_script()


def replint_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """The CLI's exit code, stdout and stderr for ``replint <argv>``."""
    code = _REPLINT.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_src_tree_is_clean_under_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    report = run_lint(REPO_ROOT, ["src"], baseline=baseline)
    assert report.ok, "\n" + report.render_text()
    assert report.suppressed, "the committed baseline should be doing real work"
    assert report.files_checked > 50


def test_committed_baseline_entries_are_all_justified():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    assert baseline.entries, "committed baseline should document the intentional exceptions"
    for entry in baseline.entries:
        assert entry.justification.strip(), f"unjustified baseline entry: {entry.describe()}"
        assert entry.justification != TODO_JUSTIFICATION, f"TODO left in baseline: {entry.describe()}"


def test_cli_json_output_is_clean_and_machine_readable(capsys):
    code, out, err = replint_cli(capsys, "src", "--format", "json")
    assert code == 0, out + err
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["suppressed"], "suppressed findings should surface with their justifications"
    assert all(item["justification"].strip() for item in payload["suppressed"])


def test_cli_fails_without_the_baseline(tmp_path, capsys):
    """Dropping the baseline re-activates the suppressed findings and exits 1."""
    empty = tmp_path / "empty-baseline.json"
    code, out, _ = replint_cli(capsys, "src", "--baseline", str(empty))
    assert code == 1
    assert "TIME001" in out


def test_cli_fails_when_manifest_entry_is_deleted(tmp_path, capsys):
    """The CI-facing half of the acceptance criterion, via the real CLI."""
    manifest = json.loads((REPO_ROOT / DEFAULT_MANIFEST_NAME).read_text(encoding="utf-8"))
    del manifest["files"]["src/repro/scenarios/engine.py"]
    doctored = tmp_path / "doctored-epoch.json"
    doctored.write_text(json.dumps(manifest), encoding="utf-8")

    code, out, _ = replint_cli(capsys, "src", "--epoch-manifest", str(doctored))
    assert code == 1
    assert "EPOCH001" in out and "not covered" in out


def test_cli_update_epoch_manifest_is_a_noop_on_clean_tree(tmp_path, capsys):
    regenerated = tmp_path / "regenerated.json"
    code, out, err = replint_cli(capsys, "--update-epoch-manifest", "--epoch-manifest", str(regenerated))
    assert code == 0, out + err
    fresh = json.loads(regenerated.read_text(encoding="utf-8"))
    committed = json.loads((REPO_ROOT / DEFAULT_MANIFEST_NAME).read_text(encoding="utf-8"))
    assert fresh == committed
