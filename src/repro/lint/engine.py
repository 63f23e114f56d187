"""File collection, per-file rule dispatch and baseline application.

:func:`run_lint` is the one entry point everything else (the ``replint``
CLI, the CI job, the tests) goes through: it walks the requested paths,
parses every Python file once, dispatches the registered rules
(:func:`repro.lint.registry.all_rules`), applies the committed baseline and
returns a :class:`LintReport` whose findings are deterministic — sorted by
path, line and rule — so two runs over the same tree always render the same
output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import Baseline, BaselineEntry
from .findings import Finding
from .registry import FileContext, ProjectContext, Rule, all_rules

#: Directory names never scanned (test/fixture trees carry intentional
#: violations; generated/vendored trees are not library code).
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "build", "dist", "tests", "benchmarks", "examples", "fixtures"}
)

#: Rules whose findings the baseline may never suppress: the epoch guard
#: (an exception would be exactly the silent store poisoning it prevents)
#: and the baseline-integrity rules themselves.
NON_BASELINABLE = frozenset({"EPOCH001", "BASE001", "BASE002", "SYNTAX001"})

#: Default committed-file names, resolved against the project root.
DEFAULT_BASELINE_NAME = "replint-baseline.json"
DEFAULT_MANIFEST_NAME = "engine-epoch.json"


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` run.

    ``findings`` are the *active* (unsuppressed) violations; ``suppressed``
    pairs each baselined finding with the entry that allowlisted it, so JSON
    output can show the justification next to what it waives.
    """

    findings: list[Finding]
    suppressed: list[tuple[Finding, BaselineEntry]]
    files_checked: int

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no active findings)."""
        return not self.findings

    def to_dict(self) -> dict:
        """JSON-ready rendering of the whole report."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [
                {"finding": finding.to_dict(), "justification": entry.justification}
                for finding, entry in self.suppressed
            ],
        }

    def render_text(self) -> str:
        """Human rendering: one line per finding plus a summary line."""
        lines = [finding.render() for finding in self.findings]
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"replint: {status}, {len(self.suppressed)} suppressed by baseline, "
            f"{self.files_checked} file(s) checked"
        )
        return "\n".join(lines)


def iter_python_files(root: Path, paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (resolved against ``root``), sorted.

    Directories named in :data:`EXCLUDED_DIRS` are pruned at any depth.
    """
    collected = set()
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            collected.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                relative = candidate.relative_to(path)
                if any(part in EXCLUDED_DIRS for part in relative.parts[:-1]):
                    continue
                collected.add(candidate)
    return sorted(collected, key=lambda p: p.as_posix())


def _parse_file(root: Path, path: Path) -> FileContext | Finding:
    """Parse one file into a :class:`FileContext`, or a syntax finding."""
    rel_path = path.relative_to(root).as_posix() if path.is_relative_to(root) else path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Finding(
            rule_id="SYNTAX001",
            path=rel_path,
            line=int(exc.lineno or 0),
            message=f"file does not parse: {exc.msg}",
            fix_hint="fix the syntax error",
            line_content="",
        )
    return _file_context(rel_path, source, tree)


def _file_context(rel_path: str, source: str, tree: ast.Module) -> FileContext:
    """The context every file-scope rule reads, with the tree walked once."""
    lines = tuple(source.splitlines())
    return FileContext(rel_path, source, tree, lines, tuple(ast.walk(tree)))


def lint_source(source: str, rel_path: str, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run the file-scope rules over one in-memory source (test/fixture hook)."""
    ctx = _file_context(rel_path, source, ast.parse(source))
    selected = tuple(rules) if rules is not None else all_rules()
    findings = []
    for rule in selected:
        if rule.scope == "file":
            findings.extend(rule.check_file(ctx))
    return sorted(findings, key=Finding.sort_key)


def run_lint(
    root: str | Path,
    paths: Sequence[str | Path] = ("src",),
    baseline: Baseline | None = None,
    manifest_path: str | Path | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintReport:
    """Lint ``paths`` under ``root`` and apply the baseline.

    Parameters
    ----------
    root:
        Project root all relative paths and finding paths are anchored to.
    paths:
        Files or directories to scan (default: ``src``).
    baseline:
        Allowlist of intentional exceptions (default: empty).  Entries that
        match nothing, or carry no justification, are themselves findings.
    manifest_path:
        The engine-epoch manifest location (default:
        ``<root>/engine-epoch.json``).
    rules:
        Rule subset to run (default: every registered rule).
    """
    root = Path(root).resolve()
    baseline = baseline if baseline is not None else Baseline()
    manifest = Path(manifest_path) if manifest_path is not None else root / DEFAULT_MANIFEST_NAME
    selected = tuple(rules) if rules is not None else all_rules()

    raw_findings: list[Finding] = []
    contexts: list[FileContext] = []
    for path in iter_python_files(root, paths):
        parsed = _parse_file(root, path)
        if isinstance(parsed, Finding):
            raw_findings.append(parsed)
        else:
            contexts.append(parsed)

    for rule in selected:
        if rule.scope == "file":
            for ctx in contexts:
                raw_findings.extend(rule.check_file(ctx))
    project = ProjectContext(root=root, files=tuple(contexts), manifest_path=manifest)
    for rule in selected:
        if rule.scope == "project":
            raw_findings.extend(rule.check_project(project))

    active: list[Finding] = []
    suppressed: list[tuple[Finding, BaselineEntry]] = []
    used: set[int] = set()
    for finding in raw_findings:
        entry = None if finding.rule_id in NON_BASELINABLE else baseline.match(finding)
        if entry is None:
            active.append(finding)
        else:
            used.add(id(entry))
            suppressed.append((finding, entry))

    baseline_name = DEFAULT_BASELINE_NAME
    active.extend(baseline.integrity_findings(baseline_name))
    active.extend(baseline.stale_findings(used, baseline_name))

    active.sort(key=Finding.sort_key)
    suppressed.sort(key=lambda pair: pair[0].sort_key())
    return LintReport(findings=active, suppressed=suppressed, files_checked=len(contexts))
