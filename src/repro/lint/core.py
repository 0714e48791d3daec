"""Lint engine: module loading, rule protocol, findings, suppressions.

A :class:`Rule` is a small object with an ``id`` (``D001``), a ``name``
(``determinism``), and a ``check(module)`` method yielding
:class:`Finding` objects.  The engine parses each file once into a
:class:`ModuleInfo` (AST + dotted module name + source lines) and hands it
to every rule, then drops findings suppressed by an inline
``# lint: disable=<rule-name>`` comment on the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Inline suppression: ``# lint: disable`` (all rules) or
#: ``# lint: disable=determinism,unused-import`` on the flagged line.
_DISABLE_RE = re.compile(r"#\s*lint:\s*disable(?:=(?P<rules>[\w\-, ]+))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str  #: rule id, e.g. ``D001``
    name: str  #: rule name, e.g. ``determinism``
    path: str  #: repo-relative posix path
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.name}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file plus everything rules need to judge it."""

    path: str  #: repo-relative posix path (stable across machines)
    module: str  #: dotted module name, e.g. ``repro.net.ctp.routing``
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The top two dotted components (``repro.net``), or the module."""
        parts = self.module.split(".")
        return ".".join(parts[:2]) if len(parts) > 1 else self.module

    def in_packages(self, packages: Iterable[str]) -> bool:
        """Is this module inside any of the given dotted packages?"""
        for pkg in packages:
            if self.module == pkg or self.module.startswith(pkg + "."):
                return True
        return False


class Rule:
    """Base class: subclasses set ``id``/``name``/``description`` and
    implement :meth:`check`."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            name=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def module_name_for(path: Path, root: Optional[Path] = None) -> str:
    """Derive the dotted module name for ``path``.

    Uses the last ``repro`` component in the path so both installed sources
    (``src/repro/...``) and test fixtures staged under a ``repro/`` directory
    resolve to package-qualified names; anything else falls back to the bare
    file stem (rules then apply their least package-specific policy).
    """
    parts = list(path.with_suffix("").parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            dotted = parts[i:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return path.stem


def load_module(path: Path, repo_root: Optional[Path] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises ``SyntaxError`` for unparsable sources — the CLI reports those
    as hard errors rather than findings.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    if repo_root is not None:
        try:
            rel = path.resolve().relative_to(repo_root.resolve())
        except ValueError:
            rel = path
    else:
        rel = path
    return ModuleInfo(
        path=rel.as_posix(),
        module=module_name_for(path),
        tree=tree,
        source_lines=source.splitlines(),
    )


def is_suppressed(module: ModuleInfo, finding: Finding) -> bool:
    """Does an inline ``# lint: disable`` on the finding's line cover it?

    A bare ``disable`` covers every rule; ``disable=a,b`` covers the rules
    named by id or name.
    """
    if not 1 <= finding.line <= len(module.source_lines):
        return False
    m = _DISABLE_RE.search(module.source_lines[finding.line - 1])
    if m is None:
        return False
    disabled = {part.strip() for part in (m.group("rules") or "").split(",")} - {""}
    return not disabled or finding.rule in disabled or finding.name in disabled


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen = set()
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if "__pycache__" in c.parts:
                continue
            key = c.resolve()
            if key not in seen:
                seen.add(key)
                out.append(c)
    return iter(out)


@dataclass
class LintContext:
    """The result of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    inline_suppressed: int = 0
    checked_files: int = 0
    errors: List[str] = field(default_factory=list)  #: unparsable files

    def report(self, module: Optional[ModuleInfo], finding: Finding) -> None:
        """Keep ``finding`` unless ``module`` suppresses it inline."""
        if module is not None and is_suppressed(module, finding):
            self.inline_suppressed += 1
        else:
            self.findings.append(finding)


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    repo_root: Optional[Path] = None,
) -> LintContext:
    """Run ``rules`` over every Python file under ``paths``.

    File rules run per module; project rules (subclasses of
    :class:`repro.lint.project.ProjectRule`) run once afterwards against a
    whole-program index built from the same parsed modules.  Both tiers
    honour the same inline suppressions.
    """
    # Local import: project.py imports this module for the rule protocol.
    from repro.lint.project import ProjectRule, build_index

    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    ctx = LintContext()
    by_path: Dict[str, ModuleInfo] = {}
    for path in iter_python_files(paths):
        try:
            module = load_module(path, repo_root)
        except (SyntaxError, UnicodeDecodeError) as exc:
            ctx.errors.append(f"{path}: {exc}")
            continue
        ctx.checked_files += 1
        by_path[module.path] = module
        for rule in file_rules:
            for finding in rule.check(module):
                ctx.report(module, finding)

    if project_rules and not ctx.errors:
        index = build_index(list(by_path.values()), repo_root)
        for rule in project_rules:
            for finding in rule.check_project(index):
                ctx.report(by_path.get(finding.path), finding)

    ctx.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ctx


def find_repo_root(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest directory with pyproject.toml."""
    cur = start.resolve()
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def qualified_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imported_names(tree: ast.Module) -> List[Tuple[str, str, ast.AST]]:
    """Every import binding in the module as ``(bound_name, target, node)``.

    ``target`` is the fully-qualified imported thing: ``repro.phy.radio``
    for ``import repro.phy.radio``; ``repro.phy.radio.Radio`` for
    ``from repro.phy.radio import Radio``.
    """
    out: List[Tuple[str, str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, alias.name, node))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import — not used in this repo
                base = "." * node.level + (node.module or "")
            else:
                base = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                out.append((bound, target, node))
    return out
