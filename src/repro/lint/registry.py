"""Rule interface, parsed-file contexts and the process-wide rule registry.

Every check ships as a :class:`Rule` subclass registered through
:func:`register`; the engine (:mod:`repro.lint.engine`) discovers rules via
:func:`all_rules` and never hard-codes the catalogue.  Rules come in two
scopes:

* ``"file"`` rules receive one parsed :class:`FileContext` at a time and
  inspect its AST (the common case: RNG discipline, wall-clock bans, error
  taxonomy, frozen specs, ``__all__`` parity);
* ``"project"`` rules receive the whole :class:`ProjectContext` once per run
  (the engine-epoch manifest guard, which must see the file *set*).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..errors import ConfigurationError
from .findings import Finding


@dataclass(frozen=True, eq=False)
class FileContext:
    """A source file parsed once and shared by every file-scope rule.

    Attributes
    ----------
    rel_path:
        POSIX-style path relative to the project root.
    source:
        Raw file text.
    tree:
        The parsed :class:`ast.Module`.
    lines:
        The source split into lines (1-based access via :meth:`line`).
    nodes:
        Every node of ``tree`` in ``ast.walk`` order, walked once for all
        rules.
    """

    rel_path: str
    source: str
    tree: ast.Module
    lines: tuple[str, ...]
    nodes: tuple[ast.AST, ...]

    def line(self, lineno: int) -> str:
        """The stripped source text of a 1-based line (``""`` out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


@dataclass(frozen=True, eq=False)
class ProjectContext:
    """The whole scanned tree, presented once per run to project-scope rules.

    Attributes
    ----------
    root:
        Absolute project root every relative path is anchored to.
    files:
        Every successfully parsed :class:`FileContext` in the scan.
    manifest_path:
        Location of the committed engine-epoch manifest file.
    """

    root: Path
    files: tuple[FileContext, ...]
    manifest_path: Path


class Rule:
    """Base class for all replint rules.

    Subclasses set the class attributes and override :meth:`check_file`
    (scope ``"file"``) or :meth:`check_project` (scope ``"project"``).
    """

    #: Stable identifier rendered in findings and matched by the baseline.
    rule_id: str = ""
    #: One-line description used by the docs/rule catalogue.
    title: str = ""
    #: Default remediation recipe attached to this rule's findings.
    fix_hint: str = ""
    #: ``"file"`` (per-file AST visitor) or ``"project"`` (whole-tree check).
    scope: str = "file"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file (file-scope rules override)."""
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Yield findings for the whole tree (project-scope rules override)."""
        return iter(())

    def finding(self, ctx: FileContext, node: ast.AST, message: str, fix_hint: str | None = None) -> Finding:
        """Build a :class:`Finding` anchored to an AST node of ``ctx``."""
        lineno = int(getattr(node, "lineno", 0) or 0)
        return Finding(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=lineno,
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            line_content=ctx.line(lineno),
        )


#: rule_id -> registered instance (import :mod:`repro.lint` to populate).
_RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add a rule instance to the registry (idempotent per rule id)."""
    if not rule.rule_id:
        raise ConfigurationError("a Rule must define a non-empty rule_id")
    _RULES[rule.rule_id] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by rule id for deterministic runs."""
    return tuple(rule for _, rule in sorted(_RULES.items()))


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule by id (KeyError if unknown)."""
    return _RULES[rule_id]


def dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    """The dotted chain of a Name/Attribute expression, root first.

    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``; returns
    ``None`` for expressions that are not plain dotted names (subscripts,
    calls, literals), which no chain-matching rule should fire on.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
