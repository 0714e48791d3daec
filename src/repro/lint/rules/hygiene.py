"""Python hygiene rules: H001 mutable defaults, H002 float ==, H003 unused imports.

Small, classic footguns that have each bitten simulation codebases:

* **H001** — a mutable default argument (``def f(x=[])``) is shared across
  every call; in a simulator that aliases per-node state across nodes.
* **H002** — ``x == 0.3``-style comparison against a non-trivial float
  literal; binary floats make these silently false.  Comparisons against
  exact sentinels (``0.0``, ``1.0``, ``-1.0``) are idiomatic for values
  *assigned* from those literals and stay allowed.
* **H003** — an import nothing uses: dead coupling that widens the import
  graph the layering rule polices.  ``__init__.py`` re-export surfaces and
  names listed in ``__all__`` are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.core import Finding, ModuleInfo, Rule

MUTABLE_CALLS = {"list", "dict", "set"}

#: Floats that compare exactly when assigned from the same literal.
EXACT_FLOAT_SENTINELS = {0.0, 1.0, -1.0}


class MutableDefaultRule(Rule):
    id = "H001"
    name = "mutable-default"
    description = "no list/dict/set (display or constructor) as a default argument"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in `{node.name}()` — one "
                        "instance is shared across every call; default to "
                        "None and construct inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in MUTABLE_CALLS
        return False


class FloatEqualityRule(Rule):
    id = "H002"
    name = "float-equality"
    description = "no ==/!= against non-trivial float literals (use a tolerance)"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in (left, right):
                    value = self._float_literal(operand)
                    if value is not None and value not in EXACT_FLOAT_SENTINELS:
                        yield self.finding(
                            module,
                            node,
                            f"exact ==/!= against float literal {value!r} — "
                            "binary floats make this silently false; compare "
                            "with a tolerance (math.isclose)",
                        )
                        break

    @staticmethod
    def _float_literal(node: ast.expr):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
            if isinstance(node, ast.Constant) and type(node.value) is float:
                return -node.value
            return None
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return node.value
        return None


class UnusedImportRule(Rule):
    id = "H003"
    name = "unused-import"
    description = "every imported name is referenced (or re-exported via __all__/__init__)"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.path.endswith("__init__.py") or module.module.endswith("__init__"):
            return  # re-export surface by convention
        used = self._used_names(module.tree)
        exported = self._dunder_all(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and bound not in exported:
                        yield self.finding(module, node, f"`import {alias.name}` is never used")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                source = node.module or "." * node.level
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    if bound not in used and bound not in exported:
                        yield self.finding(
                            module, node, f"`from {source} import {alias.name}` is never used"
                        )

    @classmethod
    def _used_names(cls, tree: ast.Module) -> Set[str]:
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.AnnAssign):
                cls._collect_string_annotation(node.annotation, used)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                cls._collect_string_annotation(node.annotation, used)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    cls._collect_string_annotation(node.returns, used)
        return used

    @staticmethod
    def _collect_string_annotation(annotation: ast.expr, used: Set[str]) -> None:
        """Names referenced inside quoted annotations (``x: "Foo[Bar]"``).

        Quoted annotations stay plain strings in the AST, so TYPE_CHECKING
        imports used only there would otherwise read as unused.
        """
        for node in ast.walk(annotation):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for sub in ast.walk(parsed):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)

    @staticmethod
    def _dunder_all(tree: ast.Module) -> Set[str]:
        exported: Set[str] = set()
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    exported.add(sub.value)
        return exported
