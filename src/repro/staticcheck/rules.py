"""The EX rule registry: one rule per observed determinism failure mode.

Every rule is a function from a :class:`ModuleContext` (parsed AST plus
import-resolution tables) to a list of :class:`Violation`.  Rules are
registered with the :func:`rule` decorator and run by the engine in
registry order; each is grounded in a bug class this repo actually hit
or guards against by contract (the docstring of each rule names the
contract).

The analysis is deliberately syntactic-plus-aliases, not a type system:
import aliases (``import numpy as np``, ``from time import
perf_counter``) are resolved so rules match the *meaning* of a call, but
no cross-module data flow is attempted.  Where a rule needs flow, it
uses a scope heuristic (e.g. "inside a function that also serializes")
— tight enough that the repo runs clean, loose enough to catch the
regression that motivated it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

# ---------------------------------------------------------------------------
# violation + context plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One rule finding, with a line-number-independent baseline key."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    #: dotted enclosing scope ("ClusterMaster.reconcile" or "<module>")
    scope: str = "<module>"
    #: short symbol the finding anchors on ("datetime.now", "_PATH_CACHE")
    token: str = ""

    @property
    def key(self) -> str:
        """Stable suppression key: survives line-number churn.

        Keys deliberately omit line/col so a baseline entry keeps
        matching while unrelated edits move code around; two identical
        findings in one scope share a key (and one suppression).
        """
        return f"{self.rule}:{self.path}:{self.scope}:{self.token}"

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly form (reports)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "scope": self.scope,
            "token": self.token,
            "key": self.key,
        }


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: str  # repo-relative posix path
    module: str  # dotted module name ("repro.kernel.task")
    source: str
    tree: ast.Module
    #: ``import X [as Y]`` → local name -> dotted module
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: ``from M import X [as Y]`` → local name -> "M.X"
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: child AST node -> parent (for ancestor walks)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: node -> dotted scope qualname for functions/classes
    scopes: Dict[ast.AST, str] = field(default_factory=dict)
    #: repo-wide facts from the engine's first pass (identity registry)
    facts: Dict[str, Set[str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    #: rule profile: "full" (src) or "relaxed" (tests/benchmarks, where
    #: duration clocks are the measurement instrument, not a bug)
    profile: str = "full"

    @classmethod
    def build(
        cls,
        source: str,
        path: str,
        module: str,
        facts: Optional[Dict[str, Set[str]]] = None,
        profile: str = "full",
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            facts=facts or {},
            lines=source.splitlines(),
            profile=profile,
        )
        ctx._index_imports()
        ctx._index_structure()
        return ctx

    # -- construction passes ----------------------------------------------

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c=a.b
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.import_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import: resolve against our package
                    package = self.module.split(".")
                    package = package[: len(package) - node.level]
                    base = ".".join(package + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_structure(self) -> None:
        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                child_scope = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    child_scope = child.name if scope == "<module>" else f"{scope}.{child.name}"
                self.scopes[child] = child_scope
                visit(child, child_scope)

        self.scopes[self.tree] = "<module>"
        visit(self.tree, "<module>")

    # -- queries -----------------------------------------------------------

    def scope_of(self, node: ast.AST) -> str:
        """Dotted class/function scope enclosing ``node``."""
        return self.scopes.get(node, "<module>")

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s AST ancestors, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an attribute/name chain, aliases substituted.

        ``np.random.seed`` → ``numpy.random.seed``; with ``from datetime
        import datetime``, ``datetime.now`` → ``datetime.datetime.now``.
        Returns ``None`` for anything rooted in a non-name expression
        (method calls on locals resolve to ``None``, which is what keeps
        ``rng.random()`` from matching the global-RNG rule).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        if base in self.import_aliases:
            head = self.import_aliases[base]
        elif base in self.from_imports:
            head = self.from_imports[base]
        else:
            head = base
        parts.append(head)
        return ".".join(reversed(parts))

    def line_suppressed(self, line: int, rule_id: str) -> bool:
        """Inline ``# existcheck: ignore[...]`` marker on this line."""
        if not 1 <= line <= len(self.lines):
            return False
        text = self.lines[line - 1]
        marker = text.find("existcheck:")
        if marker == -1:
            return False
        directive = text[marker + len("existcheck:"):].strip()
        if not directive.startswith("ignore"):
            return False
        rest = directive[len("ignore"):].strip()
        if not rest.startswith("["):
            return True  # bare ignore: all rules
        listed = rest[1 : rest.find("]")] if "]" in rest else rest[1:]
        return rule_id in {item.strip() for item in listed.split(",")}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RuleFn = Callable[[ModuleContext], List[Violation]]

#: rule id -> (summary, checker); populated by the @rule decorator
RULES: Dict[str, Tuple[str, RuleFn]] = {}


def rule(rule_id: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register a checker under ``rule_id`` in the global registry."""

    def register(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = (summary, fn)
        return fn

    return register


def make_violation(
    ctx: ModuleContext,
    rule_id: str,
    node: ast.AST,
    message: str,
    token: str,
) -> Optional[Violation]:
    """Build a violation for ``node`` unless inline-suppressed."""
    line = getattr(node, "lineno", 1)
    if ctx.line_suppressed(line, rule_id):
        return None
    return Violation(
        rule=rule_id,
        path=ctx.path,
        line=line,
        col=getattr(node, "col_offset", 0),
        message=message,
        scope=ctx.scope_of(node),
        token=token,
    )


def _in_repro(ctx: ModuleContext) -> bool:
    if ctx.module == "repro" or ctx.module.startswith("repro."):
        return True
    # relaxed-profile modules (tests/, benchmarks/) opt in to the subset
    # of rules the engine selects for them; the namespace gate must not
    # silently turn that subset off
    return ctx.profile == "relaxed"


def _self_scoped(ctx: ModuleContext) -> bool:
    """The analyzer never simulates; its own sources are out of scope."""
    return ctx.module.startswith("repro.staticcheck")


# ---------------------------------------------------------------------------
# EX001 — wall clock in virtual-time code
# ---------------------------------------------------------------------------

WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: duration clocks — meaningless as timestamps, legitimate as stopwatch
#: reads; the relaxed profile (tests/benchmarks, whose job is timing the
#: host process) exempts exactly these and nothing else
_DURATION_CLOCKS = frozenset({
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
})


@rule("EX001", "wall-clock read in virtual-time code")
def check_wall_clock(ctx: ModuleContext) -> List[Violation]:
    """The simulation runs on integer virtual nanoseconds (ARCHITECTURE
    §1); a single wall-clock read in simulation, kernel, or cluster code
    couples results to host timing and breaks seeded replay.  Benchmark
    *reporting* legitimately timestamps its output — such sites carry a
    baseline entry, not an exception in the rule.
    """
    if not _in_repro(ctx) or _self_scoped(ctx):
        return []
    out: List[Violation] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved in WALL_CLOCK_CALLS:
            if ctx.profile == "relaxed" and resolved in _DURATION_CLOCKS:
                continue
            token = ".".join(resolved.split(".")[-2:])
            violation = make_violation(
                ctx, "EX001", node,
                f"wall-clock call {resolved}() in virtual-time module "
                f"{ctx.module}; derive time from the simulation clock",
                token,
            )
            if violation:
                out.append(violation)
    return out


# ---------------------------------------------------------------------------
# EX002 — global RNG instead of named streams
# ---------------------------------------------------------------------------

#: numpy.random attributes that construct independent generators (pure,
#: no hidden global state) — everything else on the module is the legacy
#: process-global stream
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


@rule("EX002", "process-global RNG instead of util.rng streams")
def check_global_rng(ctx: ModuleContext) -> List[Violation]:
    """Experiments compare schemes on *identical* executions, so every
    random draw must come from a named :class:`repro.util.rng.RngFactory`
    stream (or a generator seeded via :func:`derive_seed`).  The
    process-global ``random`` / ``numpy.random`` streams are ambient
    state: one extra draw anywhere reorders every later draw, which is
    exactly the cross-run divergence PR 2/3 engineered out.
    """
    if not _in_repro(ctx) or _self_scoped(ctx):
        return []
    out: List[Violation] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        flagged = False
        if resolved.startswith("random.") and resolved.count(".") == 1:
            flagged = True
        elif resolved.startswith("numpy.random."):
            flagged = resolved.split(".")[2] not in _NP_RANDOM_CONSTRUCTORS
        if flagged:
            violation = make_violation(
                ctx, "EX002", node,
                f"process-global RNG call {resolved}(); use a named "
                f"repro.util.rng stream (derive_seed + default_rng)",
                resolved,
            )
            if violation:
                out.append(violation)
    return out


# ---------------------------------------------------------------------------
# shared helper — serialization / hashing scope detection (EX004)
# ---------------------------------------------------------------------------

_SINK_CALLS = frozenset({
    "json.dump", "json.dumps", "pickle.dump", "pickle.dumps", "struct.pack",
})
_SINK_NAME_HINTS = (
    "to_json", "to_dict", "fingerprint", "cache_key", "serialize",
    "canonical", "digest",
)


def _serialization_reason(ctx: ModuleContext, fn: ast.AST) -> Optional[str]:
    """Why ``fn`` counts as producing serialized/hashed output, if it does."""
    name = getattr(fn, "name", "")
    for hint in _SINK_NAME_HINTS:
        if hint in name:
            return f"function name '{name}'"
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved and (resolved in _SINK_CALLS or resolved.startswith("hashlib.")):
            return resolved
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("digest", "hexdigest"):
            return f".{node.func.attr}()"
    return None


# ---------------------------------------------------------------------------
# EX004 — id()/hash() in persisted keys or fingerprints
# ---------------------------------------------------------------------------

_KEYISH = ("key", "fingerprint", "cache")


@rule("EX004", "id()/object-hash() used in a persisted key or fingerprint")
def check_identity_keys(ctx: ModuleContext) -> List[Violation]:
    """``id()`` is an address (recycled, per-process) and default object
    ``hash()`` derives from it: neither survives a fork, a rerun, or a
    pickle round-trip.  Content keys (the decode cache's blake2b binary
    fingerprint) are the contract; identity keys are only tolerable for
    in-process memoization whose hits are output-invisible — those carry
    baseline entries with that justification.
    """
    if not _in_repro(ctx) or _self_scoped(ctx):
        return []
    out: List[Violation] = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("id", "hash")
            and node.func.id not in ctx.from_imports
        ):
            continue
        context = None
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Assign):
                names = [
                    target.id
                    for target in ancestor.targets
                    if isinstance(target, ast.Name)
                ]
                if any(k in name.lower() for name in names for k in _KEYISH):
                    context = f"assigned to '{names[0]}'"
                break
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reason = _serialization_reason(ctx, ancestor)
                if reason is not None:
                    context = f"inside serializing function ({reason})"
                break
        if context is None:
            continue
        violation = make_violation(
            ctx, "EX004", node,
            f"{node.func.id}() {context}: identity is process-local and "
            f"recycled — key on content (see hwtrace.cache.binary_fingerprint)",
            node.func.id,
        )
        if violation:
            out.append(violation)
    return out


# ---------------------------------------------------------------------------
# EX005 — unregistered mutable module-global state
# ---------------------------------------------------------------------------

_CONTAINER_CTORS = frozenset({
    "dict", "list", "set", "collections.OrderedDict", "collections.defaultdict",
    "collections.deque", "collections.Counter", "OrderedDict", "defaultdict",
    "deque", "Counter",
})
_MUTATOR_METHODS = frozenset({
    "append", "add", "extend", "insert", "setdefault", "update", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "move_to_end",
})


def _module_level_bindings(ctx: ModuleContext) -> Dict[str, Tuple[int, str]]:
    """name -> (line, kind) for module-level simple assignments."""
    bindings: Dict[str, Tuple[int, str]] = {}
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            kind = "scalar"
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                  ast.ListComp, ast.SetComp)):
                kind = "container"
            elif isinstance(value, ast.Call):
                resolved = ctx.resolve(value.func) or ""
                if resolved in ("itertools.count", "count"):
                    kind = "count"
                elif resolved in _CONTAINER_CTORS:
                    kind = "container"
            bindings[target.id] = (node.lineno, kind)
    return bindings


def _mutated_names(ctx: ModuleContext, names: Set[str]) -> Set[str]:
    """Subset of module globals mutated or rebound anywhere in the module."""
    mutated: Set[str] = set()
    declared_global: Dict[ast.AST, Set[str]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Global):
            fn = next(
                (a for a in ctx.ancestors(node)
                 if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))),
                None,
            )
            if fn is not None:
                declared_global.setdefault(fn, set()).update(
                    n for n in node.names if n in names
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and base.id in names
                and node.func.attr in _MUTATOR_METHODS
            ):
                mutated.add(base.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    mutated.add(target.value.id)
    # a ``global X`` function that rebinds X mutates module state
    for fn, globals_here in declared_global.items():
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in globals_here:
                        mutated.add(target.id)
    return mutated


@rule("EX005", "mutable module-global state outside the reset registry")
def check_module_state(ctx: ModuleContext) -> List[Violation]:
    """Replay harnesses reset process-global identity streams through
    :func:`repro.util.identity.reset_identity_counters` — the machinery
    PR 3 retrofitted after the second cluster in one interpreter minted
    different pids (hence different CR3s, hence different trace bytes)
    than the first.  Any module-global ``itertools.count`` stream, any
    mutated module-global container, and any ``global``-rebound module
    flag must therefore be *registered*: either reset by
    ``reset_identity_counters`` or listed (with a why) in
    ``identity.PROCESS_LIFETIME_STATE``.
    """
    if not _in_repro(ctx) or _self_scoped(ctx) or ctx.module == "repro.util.identity":
        return []
    registered = ctx.facts.get("identity_registered", set())
    acknowledged = ctx.facts.get("process_lifetime", set())
    bindings = _module_level_bindings(ctx)
    mutated = _mutated_names(ctx, set(bindings))
    out: List[Violation] = []
    for name, (line, kind) in sorted(bindings.items()):
        if kind == "scalar" and name not in mutated:
            continue
        if kind == "container" and name not in mutated:
            continue  # constant lookup tables are fine
        entry = f"{ctx.module}:{name}"
        if entry in registered or entry in acknowledged:
            continue
        anchor = ast.Name(id=name)
        anchor.lineno = line  # type: ignore[attr-defined]
        anchor.col_offset = 0  # type: ignore[attr-defined]
        ctx.scopes[anchor] = "<module>"
        what = {
            "count": "identity counter stream",
            "container": "mutated container",
            "scalar": "global-rebound flag",
        }[kind]
        violation = make_violation(
            ctx, "EX005", anchor,
            f"module-global {what} '{name}' is not registered with "
            f"repro.util.identity (reset_identity_counters or "
            f"PROCESS_LIFETIME_STATE)",
            name,
        )
        if violation:
            out.append(violation)
    return out


# ---------------------------------------------------------------------------
# EX006 — swallowed decode errors
# ---------------------------------------------------------------------------


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """Body neither re-raises, records, nor inspects the exception."""
    if handler.name is not None:
        for node in ast.walk(handler):
            if isinstance(node, ast.Name) and node.id == handler.name:
                return False
    for statement in handler.body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@rule("EX006", "bare/swallowed exception hides decode-loss accounting")
def check_swallowed_decode_errors(ctx: ModuleContext) -> List[Violation]:
    """The resilient decode path *accounts* for every lost byte
    (``bytes_dropped``, ``decode_resyncs`` in the DegradationReport) —
    that honesty is the graceful-degradation contract.  A bare
    ``except:`` anywhere, or an ``except PacketError/Exception: pass``
    in a module that handles trace packets, silently converts loss into
    drift between the report and reality.
    """
    if not _in_repro(ctx) or _self_scoped(ctx):
        return []
    decode_scope = ctx.module.startswith("repro.hwtrace") or any(
        resolved.endswith(".PacketError") for resolved in ctx.from_imports.values()
    )
    out: List[Violation] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            violation = make_violation(
                ctx, "EX006", node,
                "bare 'except:' catches everything (including "
                "KeyboardInterrupt) and hides loss accounting; name the "
                "exception and record what was dropped",
                "bare-except",
            )
            if violation:
                out.append(violation)
            continue
        if not decode_scope:
            continue
        caught = node.type
        names: List[str] = []
        for expr in caught.elts if isinstance(caught, ast.Tuple) else [caught]:
            resolved = ctx.resolve(expr)
            if resolved:
                names.append(resolved.split(".")[-1])
        if any(name in ("PacketError", "Exception") for name in names) and (
            _handler_swallows(node)
        ):
            violation = make_violation(
                ctx, "EX006", node,
                f"except {'/'.join(names)} swallows a decode error without "
                f"accounting; count it (bytes_dropped/decode_resyncs) or "
                f"re-raise",
                "swallow-" + "-".join(sorted(names)),
            )
            if violation:
                out.append(violation)
    return out


# ---------------------------------------------------------------------------
# interprocedural registry (EX007) — rules over the ProjectGraph
# ---------------------------------------------------------------------------
#
# These rules receive a ``repro.staticcheck.graph.ProjectGraph`` plus one
# *root module*.  They are registered separately from the per-file rules
# because they need the whole program: the engine runs them once per
# full-profile root after the per-file pass.

#: fallback registries used when the analyzed tree's util/rng.py does
#: not declare its own (foreign trees, fixtures)
DEFAULT_SEED_SINKS = frozenset({
    "random.seed", "random.Random", "numpy.random.seed",
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "repro.util.rng.RngFactory", "repro.services.workloads.CampaignSpec",
})
DEFAULT_SEED_ROOTS = frozenset({
    "repro.util.rng.derive_seed",
    "repro.util.rng.RngFactory.fork",
    "repro.util.rng.RngFactory.stream",
})
DEFAULT_CANONICALIZERS = frozenset({"float", "int", "str", "repr", "round", "bool"})

#: sinks that fall back to OS entropy when called with no seed at all
_ENTROPY_WHEN_UNSEEDED = frozenset({
    "numpy.random.default_rng", "numpy.random.seed", "numpy.random.SeedSequence",
    "random.seed", "random.Random",
})

# ProjectGraph is intentionally not imported at module level (graph.py
# imports this module); the annotations below stay strings.
ProjectRuleFn = Callable[[object, str], List[Violation]]

#: rule id -> (summary, checker) for whole-program rules
PROJECT_RULES: Dict[str, Tuple[str, ProjectRuleFn]] = {}


def project_rule(rule_id: str, summary: str) -> Callable[[ProjectRuleFn], ProjectRuleFn]:
    """Register an interprocedural checker under ``rule_id``."""

    def register(fn: ProjectRuleFn) -> ProjectRuleFn:
        if rule_id in PROJECT_RULES or rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        PROJECT_RULES[rule_id] = (summary, fn)
        return fn

    return register


def _facts_set(facts: Dict[str, Set[str]], key: str, default: frozenset) -> Set[str]:
    value = facts.get(key)
    return value if value else set(default)


def _enclosing_function(ctx: ModuleContext, node: ast.AST) -> Optional[ast.AST]:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _enclosing_function_info(graph, ctx: ModuleContext, node: ast.AST):
    """FunctionInfo for the function enclosing ``node``, if indexed."""
    fn = _enclosing_function(ctx, node)
    if fn is None:
        return None
    return graph.functions.get(f"{ctx.module}.{ctx.scope_of(fn)}")


def _local_assignments(fn: Optional[ast.AST], name: str) -> List[ast.expr]:
    """Values assigned to plain name ``name`` inside ``fn`` (any order)."""
    if fn is None:
        return []
    out: List[ast.expr] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
                out.append(node.value)
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            out.append(node.value)
    return out


def _range_loop_vars(fn: Optional[ast.AST]) -> Set[str]:
    """Loop variables drawn from range()/enumerate() — integral, ordered."""
    if fn is None:
        return set()
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(node.iter, ast.Call):
            func = node.iter.func
            if isinstance(func, ast.Name) and func.id in ("range", "enumerate"):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        out.add(target.id)
    return out


def _self_class_annotations(graph, ctx: ModuleContext, node: ast.AST) -> Dict[str, str]:
    """Attribute annotations of the class enclosing ``node`` (for self.X)."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return graph.class_annotations.get(f"{ctx.module}.{ancestor.name}", {})
    return {}


# ---------------------------------------------------------------------------
# EX007 — seed provenance
# ---------------------------------------------------------------------------


def _seed_rooted(graph, ctx: ModuleContext, node: ast.AST, roots: Set[str],
                 canonicalizers: Set[str], fn: Optional[ast.AST], depth: int) -> bool:
    """Whether a seed expression provably derives from an approved root.

    Roots: literals, ``derive_seed``/named-stream calls (transitively,
    through project helper functions), seed-named bindings, and integral
    loop indices; arithmetic over rooted operands stays rooted.
    """
    if depth <= 0:
        return False
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        if "seed" in node.id.lower():
            return True
        if node.id in _range_loop_vars(fn):
            return True
        assigned = _local_assignments(fn, node.id)
        return bool(assigned) and all(
            _seed_rooted(graph, ctx, value, roots, canonicalizers, fn, depth - 1)
            for value in assigned
        )
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr.lower()
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("stream", "fork"):
            return True  # named-stream construction off an RngFactory value
        resolved = ctx.resolve(node.func)
        if resolved is not None:
            if resolved in roots:
                return True
            if resolved.split(".")[-1] in canonicalizers and "." not in resolved:
                return bool(node.args) and _seed_rooted(
                    graph, ctx, node.args[0], roots, canonicalizers, fn, depth - 1
                )
        enclosing = _enclosing_function_info(graph, ctx, node)
        callee = graph.resolve_callable(ctx, node.func, enclosing)
        if callee is not None:
            info = graph.functions[callee]
            returns = [
                n.value for n in ast.walk(info.node)
                if isinstance(n, ast.Return) and n.value is not None
            ]
            return bool(returns) and all(
                _seed_rooted(graph, info.ctx, value, roots, canonicalizers,
                             info.node, depth - 1)
                for value in returns
            )
        return False
    if isinstance(node, ast.BinOp):
        return (
            _seed_rooted(graph, ctx, node.left, roots, canonicalizers, fn, depth - 1)
            and _seed_rooted(graph, ctx, node.right, roots, canonicalizers, fn, depth - 1)
        )
    if isinstance(node, ast.UnaryOp):
        return _seed_rooted(graph, ctx, node.operand, roots, canonicalizers, fn, depth - 1)
    if isinstance(node, ast.IfExp):
        return (
            _seed_rooted(graph, ctx, node.body, roots, canonicalizers, fn, depth - 1)
            and _seed_rooted(graph, ctx, node.orelse, roots, canonicalizers, fn, depth - 1)
        )
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(
            _seed_rooted(graph, ctx, element, roots, canonicalizers, fn, depth - 1)
            for element in node.elts
        )
    if isinstance(node, ast.Subscript):
        return _seed_rooted(graph, ctx, node.value, roots, canonicalizers, fn, depth - 1)
    return False


def _float_typed(graph, ctx: ModuleContext, node: ast.AST,
                 fn: Optional[ast.AST], canonicalizers: Set[str], depth: int = 4) -> bool:
    """Whether an expression is statically float-typed (annotation-driven)."""
    if depth <= 0:
        return False
    if isinstance(node, ast.Constant):
        return False  # a float *literal* has one stable source repr
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return (
            _float_typed(graph, ctx, node.left, fn, canonicalizers, depth - 1)
            or _float_typed(graph, ctx, node.right, fn, canonicalizers, depth - 1)
        )
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            token = _self_class_annotations(graph, ctx, node).get(node.attr, "")
            return token in ("float", "float32", "float64", "floating")
        return False
    if isinstance(node, ast.Name):
        if fn is not None:
            args = getattr(fn, "args", None)
            if args is not None:
                for arg in list(args.args) + list(args.kwonlyargs):
                    if arg.arg == node.id and arg.annotation is not None:
                        from repro.staticcheck.graph import _annotation_token
                        return _annotation_token(arg.annotation) in (
                            "float", "float32", "float64", "floating"
                        )
        for value in _local_assignments(fn, node.id):
            if isinstance(value, ast.Call):
                resolved = ctx.resolve(value.func) or ""
                if resolved in canonicalizers:
                    return False  # normalized through float()/int()/...
                if resolved.split(".")[-1] in ("float64", "float32", "float_"):
                    return True
            if _float_typed(graph, ctx, value, fn, canonicalizers, depth - 1):
                return True
        return False
    if isinstance(node, ast.Call):
        resolved = ctx.resolve(node.func) or ""
        if resolved in canonicalizers:
            return False
        return resolved.split(".")[-1] in ("float64", "float32", "float_")
    return False


def _unordered_source(node: ast.AST) -> Optional[str]:
    """Token if ``node`` evaluates to an unordered/hash-ordered iterable."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set-literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("keys", "values", "items")
            and not node.args
        ):
            return f".{func.attr}()"
    return None


def _unordered_label(ctx: ModuleContext, node: ast.AST, fn: Optional[ast.AST]) -> Optional[str]:
    """Token if a derive_seed label stringifies in container order."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict-literal"
    token = _unordered_source(node)
    if token is not None:
        return token
    if isinstance(node, ast.Name) and fn is not None:
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                if arg.arg == node.id and arg.annotation is not None:
                    from repro.staticcheck.graph import _annotation_token
                    if _annotation_token(arg.annotation) in ("dict", "Dict", "set", "Set",
                                                            "frozenset", "FrozenSet"):
                        return f"{node.id}: {_annotation_token(arg.annotation)}"
    return None


@project_rule("EX007", "stochastic sink seeded outside util.rng provenance")
def check_seed_provenance(graph, root: str) -> List[Violation]:
    """Every stochastic decision must derive from a named, logically-keyed
    stream: chains reaching ``default_rng``/``random.seed``/``RngFactory``/
    campaign seeds must bottom out in :func:`repro.util.rng.derive_seed`
    (or a seed-named binding whose own provenance is checked at *its*
    sink).  On top of rootedness, labels hashed by ``derive_seed`` (and
    ``RngFactory.stream``/``fork``) must be canonical: a float-typed
    label is flagged unless normalized through ``float()`` first (the
    PR 9 ``loadgen.py`` arrival-rate bug), and dict/set-ordered labels
    are flagged outright.
    """
    ctx = graph.contexts.get(root)
    if ctx is None or not _in_repro(ctx) or _self_scoped(ctx) or ctx.profile != "full":
        return []
    facts = graph.facts
    sinks = _facts_set(facts, "seed_sinks", DEFAULT_SEED_SINKS)
    roots = _facts_set(facts, "seed_roots", DEFAULT_SEED_ROOTS)
    canonicalizers = _facts_set(facts, "seed_canonicalizers", DEFAULT_CANONICALIZERS)
    out: List[Violation] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        fn = _enclosing_function(ctx, node)
        # -- sink rootedness ------------------------------------------------
        if resolved in sinks and ctx.module != "repro.util.rng":
            seed_arg: Optional[ast.expr] = None
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed_arg = keyword.value
            if seed_arg is None and node.args:
                seed_arg = node.args[0]
            token = resolved.split(".")[-1]
            if seed_arg is None:
                if resolved in _ENTROPY_WHEN_UNSEEDED and not node.keywords:
                    violation = make_violation(
                        ctx, "EX007", node,
                        f"{resolved}() called without a seed falls back to OS "
                        f"entropy; derive the seed via repro.util.rng.derive_seed",
                        token,
                    )
                    if violation:
                        out.append(violation)
                continue
            if not _seed_rooted(graph, ctx, seed_arg, roots, canonicalizers, fn, 4):
                violation = make_violation(
                    ctx, "EX007", node,
                    f"seed reaching {resolved}() is not rooted in "
                    f"repro.util.rng (derive_seed / named streams / a "
                    f"seed-named binding); its provenance cannot be replayed",
                    token,
                )
                if violation:
                    out.append(violation)
        # -- label canonicality at derivation sites -------------------------
        labels: List[ast.expr] = []
        if resolved in roots and resolved.split(".")[-1] == "derive_seed":
            labels = list(node.args[1:])
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("stream", "fork") \
                and ctx.module != "repro.util.rng":
            labels = list(node.args)
        for label in labels:
            unordered = _unordered_label(ctx, label, fn)
            if unordered is not None:
                violation = make_violation(
                    ctx, "EX007", label,
                    f"derive_seed label stringifies an unordered {unordered}; "
                    f"its repr depends on insertion/hash order — pass "
                    f"sorted(...) items instead",
                    unordered,
                )
                if violation:
                    out.append(violation)
                continue
            if _float_typed(graph, ctx, label, fn, canonicalizers):
                text = ast.unparse(label)
                violation = make_violation(
                    ctx, "EX007", label,
                    f"float-typed label {text!r} reaches derive_seed "
                    f"uncanonicalized; derive_seed stringifies labels, so "
                    f"repr-distinct numerics (40000 vs 40000.0 vs "
                    f"np.float64(40000)) select different streams — "
                    f"normalize with float(...) into a local first",
                    text,
                )
                if violation:
                    out.append(violation)
    return out
