"""``replint`` — the repository's reproducibility contract checker.

The properties this codebase stakes its results on — bit-identical runs
across ``--jobs`` counts, spec-derived block-ordered RNG,
content-addressed store shards invalidated by ``ENGINE_EPOCH``, the typed
:mod:`repro.errors` taxonomy — are *conventions*: nothing in the type system
stops a stray ``np.random.default_rng(42)``, a wall-clock read in a sampler,
or an engine edit that forgets the epoch bump.  This package enforces them
statically, as an AST-based checker with:

* a rule registry (:mod:`repro.lint.registry`) and per-file visitor engine
  (:mod:`repro.lint.engine`);
* a machine-readable finding format (:mod:`repro.lint.findings`);
* a committed **baseline** of justified exceptions
  (:mod:`repro.lint.baseline`) — intentional deviations are documented
  allowlist entries, not suppressed noise;
* the **engine-epoch manifest guard** (:mod:`repro.lint.epoch`), which turns
  the "bump ``ENGINE_EPOCH`` when results change" convention into a
  mechanical CI failure.

Run it as ``python scripts/replint.py src`` (text or ``--format json``); the
rule catalogue and workflows are documented in ``docs/linting.md``.  The
package is stdlib-only, so the CI job needs no dependencies.
"""

from __future__ import annotations

from . import rules_api, rules_errors, rules_rng, rules_spec, rules_time  # noqa: F401
from .baseline import Baseline, BaselineEntry, update_baseline
from .engine import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_MANIFEST_NAME,
    LintReport,
    iter_python_files,
    lint_source,
    run_lint,
)
from .epoch import (
    EngineEpochRule,
    build_manifest,
    load_manifest,
    read_engine_epoch,
    semantic_hash,
    tracked_files,
    write_manifest,
)
from .findings import Finding
from .registry import FileContext, ProjectContext, Rule, all_rules, get_rule, register

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_MANIFEST_NAME",
    "EngineEpochRule",
    "FileContext",
    "Finding",
    "LintReport",
    "ProjectContext",
    "Rule",
    "all_rules",
    "build_manifest",
    "get_rule",
    "iter_python_files",
    "lint_source",
    "load_manifest",
    "read_engine_epoch",
    "register",
    "run_lint",
    "semantic_hash",
    "tracked_files",
    "update_baseline",
    "write_manifest",
]
