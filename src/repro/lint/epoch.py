"""The ``ENGINE_EPOCH`` manifest guard.

The content-addressed result store trusts :data:`~repro.scenarios.engine.
ENGINE_EPOCH` completely: two runs share a shard whenever spec hash *and*
epoch match.  The convention — "bump the epoch whenever a code change alters
results for an unchanged spec hash" — is the most load-bearing and least
testable rule in the repository, because forgetting it does not fail any
test; it silently serves stale physics out of warm stores.

This module turns the convention into a mechanical check.  A committed
manifest maps the current epoch to a **semantic hash** of every
engine-semantic module (the scenario engine, the fleet couplers, every
wireless sampler, the dataset synthesis).  The semantic hash is the SHA-256 of the
docstring-stripped AST dump, so comment/docstring/formatting edits do not
churn the manifest while any executable change does.  ``EPOCH001`` fails
when a tracked file changed without the manifest being regenerated (and the
regeneration diff — with or without an epoch bump — is what the reviewer
sees), when the manifest's epoch disagrees with the code, or when a tracked
file is missing from the manifest.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Iterator

from ..errors import ConfigurationError
from .findings import Finding
from .registry import ProjectContext, Rule, register

#: Engine-semantic modules tracked explicitly (wireless/*.py and teleop/*.py
#: are added by glob).
_TRACKED_FIXED = (
    "src/repro/core/recovery.py",
    "src/repro/des/distributions.py",
    "src/repro/forecasting/base.py",
    "src/repro/forecasting/var.py",
    "src/repro/core/simulation.py",
    "src/repro/robot/kinematics.py",
    "src/repro/scenarios/engine.py",
    "src/repro/scenarios/spec.py",
    "src/repro/fleet/__init__.py",
    "src/repro/fleet/engine.py",
    "src/repro/fleet/hybrid.py",
    "src/repro/fleet/objective.py",
    "src/repro/fleet/plan.py",
    "src/repro/fleet/spec.py",
    "src/repro/service/__init__.py",
    "src/repro/service/engine.py",
    "src/repro/service/policies.py",
    "src/repro/service/spec.py",
)

#: Module whose ``ENGINE_EPOCH = <int>`` assignment defines the current epoch.
EPOCH_SOURCE = "src/repro/scenarios/engine.py"

#: Schema version of the manifest file.
MANIFEST_VERSION = 1


def tracked_files(root: Path) -> list[str]:
    """The engine-semantic modules the manifest must cover (sorted, relative).

    The fixed set (scenario engine and spec, recovery kernel, forecaster
    base and VAR forecaster, fleet couplers and spec, service admission
    engine and policies, the random-variate distributions behind every
    AP-queue service time) plus every module of
    :mod:`repro.wireless` — all delay samplers and channel models live
    there, and a new sampler is engine-semantic by construction — and every
    module of :mod:`repro.teleop`, which synthesises the operator datasets
    every run trains and replays on.
    """
    tracked = set(_TRACKED_FIXED)
    for package in ("wireless", "teleop"):
        directory = Path(root) / "src" / "repro" / package
        if directory.is_dir():
            for path in directory.glob("*.py"):
                tracked.add(path.relative_to(root).as_posix())
    return sorted(tracked)


def _strip_docstrings(tree: ast.Module) -> ast.Module:
    """Remove module/class/function docstrings in place (keep bodies valid)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                node.body = body[1:] or [ast.Pass()]
    return tree


def semantic_hash(source: str) -> str:
    """SHA-256 of the docstring-stripped AST dump of ``source``.

    Stable under comment, docstring and formatting edits; changed by any
    executable difference.  Raises :class:`SyntaxError` for unparseable
    source (the caller reports it as a finding).
    """
    tree = _strip_docstrings(ast.parse(source))
    dump = ast.dump(tree, annotate_fields=True, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def read_engine_epoch(root: Path) -> int | None:
    """The ``ENGINE_EPOCH`` integer parsed statically from the engine module."""
    path = Path(root) / EPOCH_SOURCE
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "ENGINE_EPOCH" in targets and isinstance(node.value, ast.Constant):
                value = node.value.value
                if isinstance(value, int):
                    return value
    return None


def build_manifest(root: Path) -> dict:
    """Compute the manifest for the current tree and epoch."""
    root = Path(root)
    epoch = read_engine_epoch(root)
    if epoch is None:
        raise ConfigurationError(f"could not parse ENGINE_EPOCH from {EPOCH_SOURCE}")
    files = {}
    for rel_path in tracked_files(root):
        path = root / rel_path
        if not path.is_file():
            raise ConfigurationError(f"tracked engine module {rel_path} does not exist")
        files[rel_path] = semantic_hash(path.read_text(encoding="utf-8"))
    return {
        "version": MANIFEST_VERSION,
        "epoch": epoch,
        "note": (
            "Semantic hashes (docstring-stripped AST SHA-256) of every engine-semantic "
            "module at this ENGINE_EPOCH. Regenerate with "
            "'python scripts/replint.py --update-epoch-manifest' after deciding whether "
            "the change needs an epoch bump (see docs/linting.md)."
        ),
        "files": files,
    }


def load_manifest(path: Path) -> dict | None:
    """Read a manifest file; ``None`` when missing or unparseable."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("files"), dict):
        return None
    return payload


def write_manifest(path: Path, manifest: dict) -> None:
    """Write a manifest with stable formatting (sorted file entries)."""
    payload = dict(manifest)
    payload["files"] = {k: payload["files"][k] for k in sorted(payload["files"])}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class EngineEpochRule(Rule):
    """``EPOCH001``: engine-semantic edits require epoch bump + manifest regen.

    Project-scope and **never baselinable**: an exception to the epoch guard
    is precisely the silent store poisoning the guard exists to prevent.
    """

    rule_id = "EPOCH001"
    title = "engine-semantic modules must match the committed ENGINE_EPOCH manifest"
    fix_hint = (
        "decide whether the change alters results for unchanged spec hashes; bump ENGINE_EPOCH "
        "if so, then run 'python scripts/replint.py --update-epoch-manifest' and commit the diff"
    )
    scope = "project"

    def _finding(self, path: str, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=0,
            message=message,
            fix_hint=self.fix_hint,
            line_content="",
        )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Verify manifest presence, epoch agreement and per-file hashes."""
        manifest_name = project.manifest_path.name
        manifest = load_manifest(project.manifest_path)
        if manifest is None:
            yield self._finding(manifest_name, "engine-epoch manifest is missing or unparseable")
            return
        code_epoch = read_engine_epoch(project.root)
        if code_epoch is None:
            yield self._finding(EPOCH_SOURCE, "could not parse ENGINE_EPOCH from the engine module")
            return
        if manifest.get("epoch") != code_epoch:
            yield self._finding(
                manifest_name,
                f"manifest epoch {manifest.get('epoch')!r} != ENGINE_EPOCH {code_epoch} in the code",
            )
        recorded: dict = manifest["files"]
        for rel_path in tracked_files(project.root):
            if rel_path not in recorded:
                yield self._finding(rel_path, "engine-semantic module is not covered by the manifest")
        for rel_path in sorted(recorded):
            path = project.root / rel_path
            if not path.is_file():
                yield self._finding(rel_path, "manifest tracks a file that no longer exists")
                continue
            try:
                current = semantic_hash(path.read_text(encoding="utf-8"))
            except SyntaxError:
                yield self._finding(rel_path, "tracked engine module does not parse")
                continue
            if current != recorded[rel_path]:
                yield self._finding(
                    rel_path,
                    "engine-semantic module changed without an ENGINE_EPOCH bump + manifest regeneration",
                )


register(EngineEpochRule())
