"""Whole-program analysis pass: per-file fact extraction + project index.

The per-file rules in :mod:`repro.lint.rules` judge one module at a time.
The contracts this module serves cannot be seen that way: RNG-stream
provenance (R001) needs every ``derive_seed``/``stream`` call site in the
tree, backend parity (P001) needs the method and collaborator-read
surfaces of two classes in two files, and worker-state safety (W001) needs
the import graph plus every mutation site of every module-level container.

The pass runs in three stages:

1. **Extraction** — each parsed module is lowered into a :class:`FileFacts`
   record: imports, top-level assignments, class method/surface tables,
   module-level mutable containers, mutation sites, and RNG call sites.
2. **Indexing** — :meth:`ProjectIndex.build` aggregates the facts: a module
   table, a resolved import graph, and a cross-module resolution of every
   mutation site to the ``(module, name)`` global it targets.
3. **Rules** — :class:`ProjectRule` subclasses (registered alongside the
   file rules) implement ``check_project(index)`` and yield ordinary
   :class:`~repro.lint.core.Finding` objects, so inline suppressions apply
   unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding, ModuleInfo, Rule, imported_names

#: ``RngManager`` methods whose positional arguments are a stream key:
#: ``once`` draws from the same keyspace as ``stream`` without interning.
STREAM_METHODS = ("stream", "once", "fork")

#: Container constructors whose module-level instances are mutable state.
MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
}

#: ``numpy.random`` bit-generator constructors (explicit seeding required).
BITGEN_NAMES = {"PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}

#: Cap stored source snippets so facts stay small.
_SNIPPET_LEN = 120
_ASSIGN_LEN = 400


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain (self included), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _unparse(node: ast.AST, limit: int = _SNIPPET_LEN) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        text = "<unprintable>"
    return text[:limit]


def _is_string_built(node: ast.expr) -> bool:
    """Definitely-dynamic string construction (f-string, +, %, .format)."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return isinstance(node.left, (ast.Constant, ast.JoinedStr, ast.BinOp)) and (
            _looks_stringy(node.left) or _looks_stringy(node.right)
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "format"
    return False


def _looks_stringy(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    return isinstance(node, ast.JoinedStr)


def _component(node: ast.expr) -> List[object]:
    """Classify one stream-name component: [kind, value-or-snippet].

    ``lit`` — a string/int literal (the reproducible, greppable case);
    ``str-built`` — an f-string / concatenation / ``.format()`` (flagged by
    R001: pass structured parts instead); ``dyn`` — anything else (a
    variable such as a node id; allowed past the first position).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)) \
            and not isinstance(node.value, bool):
        return ["lit", node.value]
    if isinstance(node, ast.Starred):
        return ["dyn", "*" + _unparse(node.value, 60)]
    if _is_string_built(node):
        return ["str-built", _unparse(node, 60)]
    return ["dyn", _unparse(node, 60)]


@dataclass
class FileFacts:
    """Everything the project rules need from one module."""

    path: str
    module: str
    #: ``[bound_name, target, lineno]`` for every import binding.
    imports: List[List[object]] = field(default_factory=list)
    #: Top-level ``Name = <expr>`` assignments (value unparsed, truncated) —
    #: module globals that mutation sites resolve against.
    assignments: Dict[str, str] = field(default_factory=dict)
    #: ``{name, line, kind}`` for each module-level mutable container.
    mutable_globals: List[Dict[str, object]] = field(default_factory=list)
    #: ``{recv: [parts...], op, line, func}`` — ``func`` is the enclosing
    #: function qualname ("" at module level: import-time initialization).
    mutations: List[Dict[str, object]] = field(default_factory=list)
    #: ``name -> {line, bases, methods: {name: line}, surfaces: {m: [..]}}``.
    classes: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: RNG call sites; see :func:`_extract_rng_sites` for the schema.
    rng_sites: List[Dict[str, object]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
#: Attribute-chain roots whose reads form a backend's "config surface".
_SURFACE_ROOTS = ("channel", "config", "cfg", "white_bit_policy")


def _surface_chains(fn: ast.AST) -> List[str]:
    """Collaborator attribute chains read inside one method body."""
    chains: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Attribute):
            continue
        dotted = _dotted(node)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if parts and parts[0] == "self":
            parts = parts[1:]
        if len(parts) < 2:
            continue
        if any(p.startswith("_") for p in parts):
            continue  # private internals are not contract surface
        if parts[0] in _SURFACE_ROOTS:
            chains.add(".".join(parts))
        elif "radio" in parts[:-1]:
            # receiver.radio.noise_floor_dbm -> radio.noise_floor_dbm
            chains.add(".".join(parts[parts.index("radio"):]))
    # Keep only maximal chains: self.channel.cfg and self.channel.cfg.x
    # both walk past the same read; the longer one carries the information.
    out = [c for c in chains if not any(o != c and o.startswith(c + ".") for o in chains)]
    return sorted(out)


def _class_facts(node: ast.ClassDef) -> Dict[str, object]:
    methods: Dict[str, int] = {}
    surfaces: Dict[str, List[str]] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt.lineno
            chains = _surface_chains(stmt)
            if chains:
                surfaces[stmt.name] = chains
    return {
        "line": node.lineno,
        "bases": [_unparse(b, 80) for b in node.bases],
        "methods": methods,
        "surfaces": surfaces,
    }


class _ScopedVisitor(ast.NodeVisitor):
    """One walk collecting scope-sensitive facts: mutations + RNG sites."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        #: Per-function aliases: ``stream = self._rng.stream`` makes later
        #: bare ``stream(...)`` calls count as stream calls (the hot-path
        #: idiom in medium.finalize).
        self.aliases: List[Dict[str, Tuple[str, str]]] = [{}]
        self.mutations: List[Dict[str, object]] = []
        self.rng_sites: List[Dict[str, object]] = []

    # -- scope bookkeeping ------------------------------------------------
    def _qualname(self) -> str:
        return ".".join(self.scope) if self.scope else "<module>"

    def _enter(self, name: str) -> None:
        self.scope.append(name)
        self.aliases.append(dict(self.aliases[-1]))

    def _leave(self) -> None:
        self.scope.pop()
        self.aliases.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node.name)
        self.generic_visit(node)
        self._leave()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node.name)
        self.generic_visit(node)
        self._leave()

    # -- alias tracking ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in STREAM_METHODS
        ):
            recv = _dotted(node.value.value) or _unparse(node.value.value, 60)
            self.aliases[-1][node.targets[0].id] = (node.value.attr, recv)
        self._record_subscript_mutation(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_subscript_mutation([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_subscript_mutation(node.targets)
        self.generic_visit(node)

    def _record_subscript_mutation(self, targets: Sequence[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript):
                recv = _dotted(target.value)
                if recv is not None:
                    self.mutations.append(
                        {
                            "recv": recv.split("."),
                            "op": "[]=",
                            "line": target.lineno,
                            "func": "" if not self.scope else self._qualname(),
                        }
                    )

    # -- calls: mutator methods + RNG sites -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS:
                recv = _dotted(func.value)
                if recv is not None:
                    self.mutations.append(
                        {
                            "recv": recv.split("."),
                            "op": func.attr,
                            "line": node.lineno,
                            "func": "" if not self.scope else self._qualname(),
                        }
                    )
            if func.attr in STREAM_METHODS:
                recv = _dotted(func.value) or _unparse(func.value, 60)
                self._rng_site(node, func.attr, recv, node.args)
        qual = _dotted(func)
        if qual is not None:
            self._check_rng_call(node, qual)
        self.generic_visit(node)

    def _rng_site(
        self, node: ast.Call, kind: str, recv: str, components: Sequence[ast.expr]
    ) -> None:
        self.rng_sites.append(
            {
                "kind": kind,
                "line": node.lineno,
                "col": node.col_offset + 1,
                "scope": self._qualname(),
                "recv": recv,
                "components": [_component(c) for c in components],
            }
        )

    def _check_rng_call(self, node: ast.Call, qual: str) -> None:
        tail = qual.rsplit(".", 1)[-1]
        if qual in ("derive_seed",) or qual.endswith(".derive_seed"):
            # derive_seed(master, *key): key components start at arg 1.
            self._rng_site(node, "derive_seed", "", node.args[1:])
        elif qual in ("Random", "random.Random"):
            self._construction_site(node, "random")
        elif tail == "Generator" and qual in (
            "Generator", "numpy.random.Generator", "np.random.Generator",
        ):
            self._generator_site(node)
        elif tail in BITGEN_NAMES and (
            qual == tail or qual.endswith(".%s" % tail)
        ):
            self._construction_site(node, "bitgen")
        elif tail == "default_rng":
            self._construction_site(node, "default_rng")
        elif isinstance(node.func, ast.Name) and node.func.id in self.aliases[-1]:
            kind, recv = self.aliases[-1][node.func.id]
            self._rng_site(node, kind, recv, node.args)

    @staticmethod
    def _provenance(arg: Optional[ast.expr]) -> str:
        """How a seed argument traces back to ``derive_seed``."""
        if arg is None:
            return "none"
        if isinstance(arg, ast.Call):
            qual = _dotted(arg.func)
            if qual is not None and (qual == "derive_seed" or qual.endswith(".derive_seed")):
                return "derive_seed"
        return "other"

    def _construction_site(self, node: ast.Call, kind: str) -> None:
        arg = node.args[0] if node.args else None
        self.rng_sites.append(
            {
                "kind": kind,
                "line": node.lineno,
                "col": node.col_offset + 1,
                "scope": self._qualname(),
                "recv": "",
                "seeded": arg is not None,
                "provenance": self._provenance(arg),
                "snippet": _unparse(node, 80),
            }
        )

    def _generator_site(self, node: ast.Call) -> None:
        arg = node.args[0] if node.args else None
        inline_bitgen = (
            isinstance(arg, ast.Call)
            and (_dotted(arg.func) or "").rsplit(".", 1)[-1] in BITGEN_NAMES
        )
        self.rng_sites.append(
            {
                "kind": "generator",
                "line": node.lineno,
                "col": node.col_offset + 1,
                "scope": self._qualname(),
                "recv": "",
                "seeded": arg is not None,
                # The nested PCG64(...) call is judged at its own bitgen
                # site; the generator site only records whether provenance
                # is traceable at all.
                "provenance": "bitgen" if inline_bitgen else self._provenance(arg),
                "snippet": _unparse(node, 80),
            }
        )


def extract_facts(module: ModuleInfo) -> FileFacts:
    """Lower one parsed module into its :class:`FileFacts` record."""
    facts = FileFacts(path=module.path, module=module.module)
    facts.imports = [[b, t, getattr(n, "lineno", 1)] for b, t, n in imported_names(module.tree)]

    for stmt in module.tree.body:
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            name, value = stmt.target.id, stmt.value
        else:
            continue
        facts.assignments[name] = _unparse(value, _ASSIGN_LEN)
        kind = _mutable_kind(value)
        if kind is not None:
            facts.mutable_globals.append({"name": name, "line": stmt.lineno, "kind": kind})

    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            facts.classes[stmt.name] = _class_facts(stmt)

    visitor = _ScopedVisitor()
    visitor.visit(module.tree)
    facts.mutations = visitor.mutations
    facts.rng_sites = visitor.rng_sites
    return facts


def _mutable_kind(value: ast.expr) -> Optional[str]:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id in MUTABLE_CONSTRUCTORS:
        return value.func.id
    return None


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------
@dataclass
class ProjectIndex:
    """Aggregated whole-program view the project rules run against."""

    repo_root: Optional[Path]
    files: Dict[str, FileFacts]  #: dotted module name -> facts
    #: module -> modules it imports (resolved against the index).
    import_graph: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``(module, global_name) -> [mutation site dicts]`` for every mutation
    #: that happens *inside a function body* anywhere in the project
    #: (module-level mutation is import-time initialization, not state).
    runtime_mutations: Dict[Tuple[str, str], List[Dict[str, object]]] = field(
        default_factory=dict
    )

    @classmethod
    def build(
        cls, facts: Sequence[FileFacts], repo_root: Optional[Path] = None
    ) -> "ProjectIndex":
        files = {f.module: f for f in facts}
        index = cls(repo_root=repo_root, files=files)
        for f in facts:
            edges: Set[str] = set()
            for bound, target, _line in f.imports:
                resolved = index.resolve_module(str(target))
                if resolved is not None and resolved != f.module:
                    edges.add(resolved)
            index.import_graph[f.module] = edges
        index._resolve_mutations()
        return index

    # -- resolution helpers ----------------------------------------------
    def resolve_module(self, target: str) -> Optional[str]:
        """Longest prefix of a dotted import target that is an indexed module."""
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.files:
                return candidate
        return None

    def import_bindings(self, module: str) -> Dict[str, str]:
        """``bound name -> fully-qualified target`` for one module."""
        f = self.files.get(module)
        if f is None:
            return {}
        return {str(b): str(t) for b, t, _line in f.imports}

    def resolve_global(self, module: str, dotted: Sequence[str]) -> Optional[Tuple[str, str]]:
        """Resolve a reference ``a.b`` seen in ``module`` to a module-level
        global ``(owner_module, name)``, following import bindings."""
        if not dotted:
            return None
        f = self.files.get(module)
        if f is None:
            return None
        head = dotted[0]
        own_globals = {g["name"] for g in f.mutable_globals} | set(f.assignments)
        if len(dotted) == 1:
            if head in own_globals:
                return (module, head)
            target = self.import_bindings(module).get(head)
            if target is not None and "." in target:
                owner = self.resolve_module(target.rsplit(".", 1)[0])
                if owner is not None:
                    return (owner, target.rsplit(".", 1)[1])
            return None
        # a.b...: head must be a module binding (import x / from p import m)
        target = self.import_bindings(module).get(head)
        if target is None:
            return None
        owner = self.resolve_module(target)
        if owner is not None:
            return (owner, dotted[1])
        return None

    def _resolve_mutations(self) -> None:
        for f in self.files.values():
            for site in f.mutations:
                if not site.get("func"):
                    continue  # module-level = import-time initialization
                resolved = self.resolve_global(f.module, [str(p) for p in site["recv"]])
                if resolved is None:
                    continue
                owner, name = resolved
                owned = self.files.get(owner)
                if owned is None or name not in {g["name"] for g in owned.mutable_globals}:
                    continue
                entry = dict(site)
                entry["in_module"] = f.module
                self.runtime_mutations.setdefault((owner, name), []).append(entry)

    # -- graph queries ----------------------------------------------------
    def reachable_from(self, entry_modules: Sequence[str]) -> Set[str]:
        """Transitive import closure over the indexed modules."""
        seen: Set[str] = set()
        stack = [m for m in entry_modules if m in self.files]
        while stack:
            mod = stack.pop()
            if mod in seen:
                continue
            seen.add(mod)
            stack.extend(self.import_graph.get(mod, ()))
        return seen

    def find_class(self, qualname: str) -> Optional[Tuple[FileFacts, Dict[str, object]]]:
        """Look up ``package.module.Class`` in the index."""
        module, _, cls = qualname.rpartition(".")
        f = self.files.get(module)
        if f is None or cls not in f.classes:
            return None
        return f, f.classes[cls]


class ProjectRule(Rule):
    """A rule that judges the whole program instead of one module.

    Subclasses implement :meth:`check_project`; the inherited per-file
    :meth:`check` is a no-op so a mixed rule list runs cleanly through
    both tiers of the engine.
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, message: str, col: int = 1
    ) -> Finding:
        return Finding(
            rule=self.id, name=self.name, path=path, line=line, col=col, message=message
        )


def build_index(
    modules: Sequence[ModuleInfo], repo_root: Optional[Path] = None
) -> ProjectIndex:
    """Extract facts for every module and build the index."""
    return ProjectIndex.build([extract_facts(m) for m in modules], repo_root)
