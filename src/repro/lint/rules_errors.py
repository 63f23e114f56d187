"""Error-taxonomy rules: anticipated failures raise ``repro.errors`` types.

The library's contract (:mod:`repro.errors`) is that every *anticipated*
failure mode — bad configuration, malformed records, invalid parameters —
raises a :class:`~repro.errors.ReproError` subclass, so callers can catch
the taxonomy without accidentally swallowing programming errors.  Two rules
police it:

* ``ERR001`` — ``raise ValueError/Exception/RuntimeError`` is banned in
  library code; anticipated failures get a typed subclass (quarantine paths
  that must stay builtin for corruption tolerance go in the baseline with a
  justification);
* ``ERR002`` — an ``except`` clause naming :class:`ReproError`, one of its
  subclasses, or blanket ``Exception`` may not swallow it with a bare
  ``pass`` body (silent loss of a typed failure).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .registry import FileContext, Rule, dotted_name, register

#: Builtin exception types anticipated failures must not raise directly.
_BANNED_RAISES = frozenset({"ValueError", "Exception", "RuntimeError"})

#: The repro.errors taxonomy (plus blanket catches) ERR002 protects.
_TAXONOMY = frozenset(
    {
        "ReproError",
        "ConfigurationError",
        "NotFittedError",
        "DimensionError",
        "SimulationError",
        "DatasetError",
        "ChannelError",
        "RobotError",
        "ValidationError",
        "StoreError",
        "Exception",
        "BaseException",
    }
)


def _exception_names(node: ast.AST | None) -> list[str]:
    """The exception type names an ``except`` clause catches (may be empty)."""
    if node is None:
        return ["<bare>"]
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for candidate in candidates:
        chain = dotted_name(candidate)
        if chain is not None:
            names.append(chain[-1])
    return names


class BareBuiltinRaiseRule(Rule):
    """``ERR001``: anticipated failures raise the typed taxonomy."""

    rule_id = "ERR001"
    title = "raise ValueError/Exception/RuntimeError is banned in library code"
    fix_hint = "raise the matching repro.errors subclass (ConfigurationError, StoreError, ...)"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``raise <BannedBuiltin>(...)`` and bare ``raise <BannedBuiltin>``."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            chain = dotted_name(target)
            if chain is not None and len(chain) == 1 and chain[0] in _BANNED_RAISES:
                yield self.finding(ctx, node, f"raises bare {chain[0]} for an anticipated failure")


class SwallowedReproErrorRule(Rule):
    """``ERR002``: no ``except ReproError: pass``."""

    rule_id = "ERR002"
    title = "except clauses may not swallow ReproError (or blanket Exception) with a bare pass"
    fix_hint = "handle the error, log-and-continue explicitly, or narrow the except clause"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag except handlers over the taxonomy whose body is just ``pass``."""
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if len(node.body) != 1 or not isinstance(node.body[0], ast.Pass):
                continue
            caught = _exception_names(node.type)
            swallowed = [name for name in caught if name in _TAXONOMY or name == "<bare>"]
            if swallowed:
                label = ", ".join(swallowed).replace("<bare>", "a bare except")
                yield self.finding(ctx, node, f"silently swallows {label} with a bare pass")


register(BareBuiltinRaiseRule())
register(SwallowedReproErrorRule())
