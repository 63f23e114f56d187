"""Frozen-spec rule: spec dataclasses must stay hashable value objects.

Everything the content-addressed store and the sweep memoisation rely on —
``spec_hash()`` stability, dict-key safety, cross-process equality — assumes
spec objects are immutable and hashable.  ``SPEC001`` enforces the shape
mechanically: any dataclass whose name ends in ``Spec`` must be declared
``frozen=True``, and no field may be annotated with a mutable container
type (``list``, ``dict``, ``set``, ``np.ndarray``, ...) whose identity-based
hash would break content addressing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .registry import FileContext, Rule, dotted_name, register

#: Type names that make a field unhashable (or hash by identity).
_MUTABLE_TYPES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "List",
        "Dict",
        "Set",
        "DefaultDict",
        "defaultdict",
        "Counter",
        "deque",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
        "ndarray",
    }
)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` decorator expression of a class, if present."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain = dotted_name(target)
        if chain is not None and chain[-1] == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    """Whether a ``@dataclass`` decorator passes ``frozen=True``."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def _mutable_annotation_names(annotation: ast.AST) -> list[str]:
    """Mutable-container type names appearing anywhere in an annotation."""
    names = []
    for node in ast.walk(annotation):
        chain = dotted_name(node)
        if chain is not None and chain[-1] in _MUTABLE_TYPES:
            names.append(chain[-1])
    return names


def _skipped_wrapper(annotation: ast.AST) -> bool:
    """Whether the annotation is ClassVar/InitVar (not a stored field)."""
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    chain = dotted_name(target)
    return chain is not None and chain[-1] in ("ClassVar", "InitVar")


class FrozenSpecRule(Rule):
    """``SPEC001``: ``*Spec`` dataclasses are frozen with hashable fields."""

    rule_id = "SPEC001"
    title = "*Spec dataclasses must be frozen=True with hashable (immutable) fields"
    fix_hint = "declare @dataclass(frozen=True) and store tuples/scalars, not mutable containers"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unfrozen ``*Spec`` dataclasses and mutable field annotations."""
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Spec"):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _is_frozen(decorator):
                yield self.finding(ctx, node, f"dataclass {node.name} is not declared frozen=True")
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign) or statement.annotation is None:
                    continue
                if _skipped_wrapper(statement.annotation):
                    continue
                mutable = _mutable_annotation_names(statement.annotation)
                if mutable and isinstance(statement.target, ast.Name):
                    yield self.finding(
                        ctx,
                        statement,
                        f"field {node.name}.{statement.target.id} is annotated with "
                        f"unhashable type {mutable[0]}",
                    )


register(FrozenSpecRule())
