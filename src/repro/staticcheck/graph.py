"""Whole-program view: the project symbol table.

The per-file rules (EX001..EX006) deliberately see one module at a time;
an uncanonicalized float seed label crossing a module boundary (the
``loadgen`` arrival-rate bug) is invisible at that granularity.
:class:`ProjectGraph` is the substrate the interprocedural rule (EX007,
registered in :mod:`repro.staticcheck.rules`) runs over — a **symbol
table** mapping dotted qualnames to definitions:

* functions and methods, with their
  :class:`~repro.staticcheck.rules.ModuleContext` for alias resolution;
  :meth:`ProjectGraph.resolve_callable` maps a call expression to one of
  them through each module's import aliases (plain calls,
  ``from``-imported calls, same-class ``self.`` method calls, calls
  through imported modules); anything rooted in a dynamic receiver
  stays unresolved (heuristic analyzer, conservative by construction);
* per-class attribute annotations (the float-field signal EX007 keys on).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.staticcheck.rules import ModuleContext, Violation


class FunctionInfo:
    """Symbol-table row for one function or method."""

    __slots__ = ("ctx", "node", "class_name")

    def __init__(self, ctx: ModuleContext, node: ast.AST, class_name: Optional[str]):
        self.ctx = ctx
        self.node = node
        self.class_name = class_name  # enclosing "mod.Class" for methods


class ProjectGraph:
    """Symbol table over a set of module contexts."""

    def __init__(
        self,
        contexts: Dict[str, ModuleContext],
        facts: Optional[Dict[str, Set[str]]] = None,
    ):
        self.contexts = contexts
        self.facts = facts or {}
        #: "mod.fn" / "mod.Class.meth" -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: "mod.Class" -> {attr: annotation token ("float", "int", ...)}
        self.class_annotations: Dict[str, Dict[str, str]] = {}
        for ctx in contexts.values():
            self._index_module(ctx)

    # -- symbol table -------------------------------------------------------

    def _index_module(self, ctx: ModuleContext) -> None:
        module = ctx.module
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # scope_of(def) is the def's own dotted scope ("Class.meth")
                qual = ctx.scope_of(node)
                class_name = None
                for ancestor in ctx.ancestors(node):
                    if isinstance(ancestor, ast.ClassDef):
                        class_name = f"{module}.{ctx.scope_of(ancestor)}"
                        break
                    if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        break
                self.functions[f"{module}.{qual}"] = FunctionInfo(ctx, node, class_name)
            elif isinstance(node, ast.ClassDef):
                scope = ctx.scope_of(node)
                if "." in scope:
                    continue  # nested class: out of the annotation model
                annotations: Dict[str, str] = {}
                for statement in node.body:
                    if (
                        isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                    ):
                        annotations[statement.target.id] = _annotation_token(
                            statement.annotation
                        )
                self.class_annotations[f"{module}.{node.name}"] = annotations

    # -- call resolution ----------------------------------------------------

    def resolve_callable(
        self, ctx: ModuleContext, node: ast.AST, enclosing: Optional[FunctionInfo] = None
    ) -> Optional[str]:
        """Project qualname a callable expression refers to, if resolvable.

        Handles plain names (local defs and ``from``-imports), dotted
        access through imported modules, and ``self.method`` within the
        enclosing class.  Dynamic receivers return ``None``.
        """
        if isinstance(node, ast.Lambda):
            return None
        if (
            enclosing is not None
            and enclosing.class_name
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            candidate = f"{enclosing.class_name}.{node.attr}"
            if candidate in self.functions:
                return candidate
            return None
        resolved = ctx.resolve(node)
        if resolved is None:
            return None
        if resolved in self.functions:
            return resolved
        # a bare local name resolves against the defining module
        if "." not in resolved:
            candidate = f"{ctx.module}.{resolved}"
            if candidate in self.functions:
                return candidate
        # ClassName(...) does not resolve to __init__ (conservative)
        return None


def _annotation_token(annotation: ast.AST) -> str:
    """Terminal token of a type annotation ("float", "Dict", ...)."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: take the head identifier
        return node.value.split("[")[0].strip()
    return ""


def build_graph_from_sources(
    sources: Dict[str, str],
    facts: Optional[Dict[str, Set[str]]] = None,
    profiles: Optional[Dict[str, str]] = None,
) -> ProjectGraph:
    """Test/fixture surface: build a graph from ``{rel_path: source}``.

    Module names derive from paths exactly as the engine derives them
    (``src/`` stripped, ``__init__`` collapsed), so fixtures exercise the
    same resolution rules the real tree does.
    """
    from repro.staticcheck.engine import module_name_for
    from pathlib import Path

    contexts: Dict[str, ModuleContext] = {}
    for rel_path, source in sources.items():
        module = module_name_for(Path(rel_path), Path("."))
        ctx = ModuleContext.build(source, path=rel_path, module=module, facts=facts)
        if profiles:
            ctx.profile = profiles.get(rel_path, "full")
        contexts[module] = ctx
    return ProjectGraph(contexts, facts=facts)


def run_project_rules(
    graph: ProjectGraph,
    roots: Optional[Sequence[str]] = None,
    rules: Optional[Iterable[str]] = None,
) -> Dict[str, List[Violation]]:
    """Run the interprocedural registry, one root module at a time.

    Returns ``{root module: [violations]}``.  ``roots`` defaults to
    every full-profile module in the graph; relaxed-profile modules
    (tests/benchmarks) never root an interprocedural analysis.
    """
    from repro.staticcheck.rules import PROJECT_RULES

    if roots is None:
        roots = sorted(
            module for module, ctx in graph.contexts.items()
            if getattr(ctx, "profile", "full") == "full"
        )
    selected = set(rules) if rules is not None else set(PROJECT_RULES)
    out: Dict[str, List[Violation]] = {}
    for root in roots:
        found: List[Violation] = []
        for rule_id, (_summary, checker) in PROJECT_RULES.items():
            if rule_id in selected:
                found.extend(checker(graph, root))
        found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        out[root] = found
    return out
