"""RNG discipline rules: every random draw must flow from a spec-derived seed.

The repository's determinism contract (bit-identical results across
``--jobs`` counts) holds only because all randomness is drawn from
``np.random.Generator`` instances seeded from spec hashes and repetition
indices.  Three rules police that:

* ``RNG001`` — the stdlib :mod:`random` module is banned in library code
  (process-global state, not seedable per spec);
* ``RNG002`` — legacy ``np.random.<dist>()`` module-level calls are banned
  (they share the hidden global ``RandomState``);
* ``RNG003`` — ``np.random.default_rng()`` must receive a seed that flows
  from a parameter, attribute or derivation call — never a literal and never
  nothing (an unseeded generator is fresh entropy on every run).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .registry import FileContext, Rule, dotted_name, register

#: ``np.random`` attributes that are constructors, not global-state draws.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


class StdlibRandomRule(Rule):
    """``RNG001``: no stdlib :mod:`random` in library code."""

    rule_id = "RNG001"
    title = "stdlib random module is banned (process-global, not spec-seeded)"
    fix_hint = "draw from an np.random.Generator seeded from the spec hash / repetition index"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``import random`` and ``from random import ...``."""
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(ctx, node, "imports the stdlib random module")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(ctx, node, "imports names from the stdlib random module")


class NumpyGlobalRandomRule(Rule):
    """``RNG002``: no legacy ``np.random.<dist>()`` module-level calls."""

    rule_id = "RNG002"
    title = "legacy np.random module-level draws are banned (hidden global RandomState)"
    fix_hint = "call the distribution on an np.random.Generator instance instead"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag calls through the ``np.random`` / ``numpy.random`` module."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None or len(chain) != 3:
                continue
            if chain[0] in ("np", "numpy") and chain[1] == "random":
                if chain[2] not in _NP_RANDOM_CONSTRUCTORS:
                    yield self.finding(ctx, node, f"calls the legacy global RNG via {'.'.join(chain)}()")


class LiteralSeedRule(Rule):
    """``RNG003``: ``default_rng()`` seeds must flow from data, not literals."""

    rule_id = "RNG003"
    title = "default_rng() with a literal or absent seed is banned outside tests"
    fix_hint = "derive the seed from a parameter or spec hash (e.g. arrival_seed(spec, repetition))"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``default_rng()`` calls whose seed is missing or a constant."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None or chain[-1] != "default_rng":
                continue
            seed: ast.AST | None = None
            if node.args:
                seed = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
            if seed is None:
                yield self.finding(ctx, node, "calls default_rng() without a seed (fresh entropy)")
            elif isinstance(seed, ast.Constant):
                yield self.finding(ctx, node, f"calls default_rng({seed.value!r}) with a literal seed")


register(StdlibRandomRule())
register(NumpyGlobalRandomRule())
register(LiteralSeedRule())
