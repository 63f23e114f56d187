"""The ENGINE_EPOCH manifest guard: semantic hashing and EPOCH001 in every direction."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.lint import (
    EngineEpochRule,
    ProjectContext,
    build_manifest,
    load_manifest,
    read_engine_epoch,
    semantic_hash,
    tracked_files,
    write_manifest,
)
from repro.lint.epoch import EPOCH_SOURCE

REPO_ROOT = Path(__file__).resolve().parents[2]
ENGINE_REL = "src/repro/scenarios/engine.py"


def copy_engine_tree(tmp_path: Path) -> Path:
    """Copy the tracked engine modules plus the committed manifest into a tmp tree."""
    for rel in tracked_files(REPO_ROOT):
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, dest)
    shutil.copyfile(REPO_ROOT / "engine-epoch.json", tmp_path / "engine-epoch.json")
    return tmp_path / "engine-epoch.json"


def epoch_findings(root: Path, manifest_path: Path) -> list:
    project = ProjectContext(root=root, files=(), manifest_path=manifest_path)
    return list(EngineEpochRule().check_project(project))


def test_semantic_hash_ignores_docstrings_and_comments():
    base = 'def f(x):\n    """Doc."""\n    return x + 1\n'
    reworded = 'def f(x):\n    """Completely different doc.\n\n    More prose.\n    """\n    # comment\n    return x + 1\n'
    assert semantic_hash(base) == semantic_hash(reworded)


def test_semantic_hash_changes_on_executable_edit():
    base = "def f(x):\n    return x + 1\n"
    edited = "def f(x):\n    return x + 2\n"
    assert semantic_hash(base) != semantic_hash(edited)


def test_committed_manifest_matches_the_tree():
    """The acceptance invariant: regeneration is a no-op on the committed tree."""
    committed = load_manifest(REPO_ROOT / "engine-epoch.json")
    assert committed is not None
    rebuilt = build_manifest(REPO_ROOT)
    assert rebuilt["epoch"] == committed["epoch"] == read_engine_epoch(REPO_ROOT)
    assert rebuilt["files"] == committed["files"]
    assert ENGINE_REL in committed["files"]
    assert EPOCH_SOURCE == ENGINE_REL


def test_clean_copied_tree_yields_no_findings(tmp_path):
    manifest_path = copy_engine_tree(tmp_path)
    assert epoch_findings(tmp_path, manifest_path) == []


def test_missing_manifest_is_a_finding(tmp_path):
    manifest_path = copy_engine_tree(tmp_path)
    manifest_path.unlink()
    findings = epoch_findings(tmp_path, manifest_path)
    assert len(findings) == 1 and "missing or unparseable" in findings[0].message


def test_deleting_the_engine_entry_is_a_finding(tmp_path):
    """Acceptance criterion: dropping engine.py from the manifest fails the guard."""
    manifest_path = copy_engine_tree(tmp_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["files"][ENGINE_REL]
    write_manifest(manifest_path, manifest)

    findings = epoch_findings(tmp_path, manifest_path)
    assert [f for f in findings if f.path == ENGINE_REL and "not covered" in f.message]


def test_editing_the_engine_without_a_bump_is_a_finding(tmp_path):
    """Acceptance criterion: an executable edit without regeneration fails the guard."""
    manifest_path = copy_engine_tree(tmp_path)
    engine = tmp_path / ENGINE_REL
    engine.write_text(engine.read_text(encoding="utf-8") + "\nX_MUTATION = 1\n", encoding="utf-8")

    findings = epoch_findings(tmp_path, manifest_path)
    assert [
        f
        for f in findings
        if f.path == ENGINE_REL and "without an ENGINE_EPOCH bump" in f.message
    ]
    assert all("ENGINE_EPOCH" in f.fix_hint for f in findings)


def test_docstring_only_edit_passes(tmp_path):
    manifest_path = copy_engine_tree(tmp_path)
    engine = tmp_path / ENGINE_REL
    source = engine.read_text(encoding="utf-8")
    assert source.startswith('"""')
    engine.write_text(source.replace('"""', '"""Reworded.\n\n', 1), encoding="utf-8")
    assert epoch_findings(tmp_path, manifest_path) == []


def test_epoch_bump_without_regeneration_is_a_mismatch(tmp_path):
    manifest_path = copy_engine_tree(tmp_path)
    engine = tmp_path / ENGINE_REL
    epoch = read_engine_epoch(tmp_path)
    source = engine.read_text(encoding="utf-8")
    engine.write_text(
        source.replace(f"ENGINE_EPOCH = {epoch}", f"ENGINE_EPOCH = {epoch + 1}"), encoding="utf-8"
    )

    messages = [f.message for f in epoch_findings(tmp_path, manifest_path)]
    assert any("!= ENGINE_EPOCH" in m for m in messages)
    # The edit also changed the engine's semantic hash, so both failures surface.
    assert any("without an ENGINE_EPOCH bump" in m for m in messages)


def test_manifest_tracking_a_deleted_file_is_a_finding(tmp_path):
    manifest_path = copy_engine_tree(tmp_path)
    (tmp_path / "src/repro/fleet/hybrid.py").unlink()
    findings = epoch_findings(tmp_path, manifest_path)
    assert any("no longer exists" in f.message for f in findings)


def test_new_wireless_module_must_enter_the_manifest(tmp_path):
    """A brand-new sampler is engine-semantic by construction: glob picks it up."""
    manifest_path = copy_engine_tree(tmp_path)
    new = tmp_path / "src/repro/wireless/new_sampler.py"
    new.write_text('"""New sampler."""\n\nRATE = 2.0\n', encoding="utf-8")
    findings = epoch_findings(tmp_path, manifest_path)
    assert any(f.path.endswith("new_sampler.py") and "not covered" in f.message for f in findings)


def test_editing_dataset_synthesis_without_a_bump_is_a_finding(tmp_path):
    """Every run trains and replays on synthesised datasets: teleop/* is hashed."""
    manifest_path = copy_engine_tree(tmp_path)
    assert "src/repro/teleop/operator.py" in load_manifest(manifest_path)["files"]
    operator = tmp_path / "src/repro/teleop/operator.py"
    operator.write_text(operator.read_text(encoding="utf-8") + "\nEXTRA = 1\n", encoding="utf-8")
    findings = epoch_findings(tmp_path, manifest_path)
    assert [f.path for f in findings] == ["src/repro/teleop/operator.py"]
