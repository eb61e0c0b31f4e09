"""Three-pass analysis driver.

Pass 1 (*facts*) parses the registry modules — :mod:`repro.util.identity`
and :mod:`repro.util.rng`, without importing either — and extracts the
string registries the rules check against: the ``module:attr`` pairs
EX005 accepts as registered (rewound by ``reset_identity_counters`` or
listed in ``PROCESS_LIFETIME_STATE``) and the seed
sink/root/canonicalizer sets of EX007.

Pass 2 (*local rules*) parses each target file once and runs the
per-file :data:`repro.staticcheck.rules.RULES` registry over it.

Pass 3 (*project rules*) builds one :class:`repro.staticcheck.graph.
ProjectGraph` over every full-profile module and runs the interprocedural
registry (:data:`repro.staticcheck.rules.PROJECT_RULES`, i.e. EX007)
rooted at each.

Every run is cold and in-process, and reports are sorted by
(path, line, col, rule) — the analyzer holds itself to the determinism
invariant it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.staticcheck.graph import ProjectGraph, run_project_rules
from repro.staticcheck.rules import RULES, ModuleContext, Violation

#: directories never worth analyzing
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", "build", "dist"}
_SKIP_SUFFIXES = (".egg-info",)

IDENTITY_MODULE_PATH = Path("src") / "repro" / "util" / "identity.py"
RNG_MODULE_PATH = Path("src") / "repro" / "util" / "rng.py"

#: rule selection per profile: tests/benchmarks run the relaxed subset —
#: wall-clock *reads* and global-RNG hygiene still matter there, but
#: identity keys, identity registration, decode-loss accounting, and the
#: interprocedural rule are contracts of the library tree only
RELAXED_RULES = ("EX001", "EX002")


# ---------------------------------------------------------------------------
# pass 1 — repo-wide facts
# ---------------------------------------------------------------------------


def _identity_import_map(tree: ast.Module) -> Dict[str, str]:
    """Local alias -> dotted module for identity.py's imports."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _registry_strings(tree: ast.Module, name: str) -> Set[str]:
    """All string constants in the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return {
                entry.value
                for entry in ast.walk(node.value)
                if isinstance(entry, ast.Constant) and isinstance(entry.value, str)
            }
    return set()


def collect_facts(root: Path) -> Dict[str, Set[str]]:
    """Parse the registry modules into rule-checkable facts.

    Returns string sets under ``identity_registered`` / ``process_lifetime``
    (``module:attr`` pairs, for EX005) and ``seed_sinks`` / ``seed_roots`` /
    ``seed_canonicalizers`` (EX007).  Missing registry modules (analyzing
    a foreign tree) yield empty sets — EX005 then flags every candidate,
    and EX007 falls back to its ``DEFAULT_*`` registries.
    """
    facts: Dict[str, Set[str]] = {
        "identity_registered": set(),
        "process_lifetime": set(),
        "seed_sinks": set(),
        "seed_roots": set(),
        "seed_canonicalizers": set(),
    }
    identity_path = root / IDENTITY_MODULE_PATH
    if identity_path.is_file():
        tree = ast.parse(identity_path.read_text(), filename=str(identity_path))
        imports = _identity_import_map(tree)
        for node in ast.walk(tree):
            # assignments like ``task._pid_counter = itertools.count(1000)``
            # inside reset_identity_counters register (module, attr)
            if isinstance(node, ast.FunctionDef) and node.name == "reset_identity_counters":
                local_imports = dict(imports)
                local_imports.update(
                    _identity_import_map(ast.Module(body=node.body, type_ignores=[]))
                )
                for statement in ast.walk(node):
                    if not isinstance(statement, ast.Assign):
                        continue
                    for target in statement.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in local_imports
                        ):
                            module = local_imports[target.value.id]
                            facts["identity_registered"].add(f"{module}:{target.attr}")
            # ``PROCESS_LIFETIME_STATE = frozenset({("module", "attr"), ...})``
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "PROCESS_LIFETIME_STATE" not in names:
                    continue
                for entry in ast.walk(node.value):
                    if isinstance(entry, ast.Tuple) and len(entry.elts) == 2:
                        parts = [
                            e.value for e in entry.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        ]
                        if len(parts) == 2:
                            facts["process_lifetime"].add(f"{parts[0]}:{parts[1]}")
    rng_path = root / RNG_MODULE_PATH
    if rng_path.is_file():
        tree = ast.parse(rng_path.read_text(), filename=str(rng_path))
        facts["seed_sinks"] = _registry_strings(tree, "SEED_SINKS")
        facts["seed_roots"] = _registry_strings(tree, "SEED_ROOTS")
        facts["seed_canonicalizers"] = _registry_strings(tree, "SEED_CANONICALIZERS")
    return facts


# ---------------------------------------------------------------------------
# pass 2 — per-file rule execution
# ---------------------------------------------------------------------------


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for a file, matching the import system's view."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = path
    parts = list(relative.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else relative.stem


def profile_for(rel_path: str) -> str:
    """Rule profile for a repo-relative path: tests/benchmarks run relaxed."""
    head = rel_path.split("/", 1)[0]
    return "relaxed" if head in ("tests", "benchmarks") else "full"


def rules_for_profile(profile: str) -> List[str]:
    """Per-file rule ids selected for a profile, in registry order."""
    if profile == "relaxed":
        return [rule_id for rule_id in RULES if rule_id in RELAXED_RULES]
    return list(RULES)


def _syntax_error_violation(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        rule="EX000",
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"file does not parse: {exc.msg}",
        scope="<module>",
        token="syntax-error",
    )


def analyze_source(
    source: str,
    path: str,
    module: str,
    facts: Optional[Dict[str, Set[str]]] = None,
    rules: Optional[Iterable[str]] = None,
    profile: str = "full",
) -> List[Violation]:
    """Run the per-file registry over one source string (self-test surface).

    A syntax error is itself reported as an ``EX000`` finding rather
    than aborting the whole run.
    """
    try:
        ctx = ModuleContext.build(
            source, path=path, module=module, facts=facts, profile=profile
        )
    except SyntaxError as exc:
        return [_syntax_error_violation(path, exc)]
    return run_local_rules(ctx, rules)


def run_local_rules(
    ctx: ModuleContext, rules: Optional[Iterable[str]] = None
) -> List[Violation]:
    """Run (a selection of) the per-file registry over a built context."""
    selected = set(rules) if rules is not None else set(RULES)
    out: List[Violation] = []
    for rule_id, (_summary, checker) in RULES.items():
        if rule_id in selected:
            out.extend(checker(ctx))
    return out


def discover_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """All ``.py`` files under ``paths``, deterministically ordered."""
    found: Set[Path] = set()
    for path in paths:
        base = path if path.is_absolute() else root / path
        if base.is_file() and base.suffix == ".py":
            found.add(base)
            continue
        for candidate in base.rglob("*.py"):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            if any(part.endswith(_SKIP_SUFFIXES) for part in candidate.parts):
                continue
            found.add(candidate)
    return sorted(found)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one full analysis run (pre-baseline)."""

    root: str
    files_analyzed: int
    violations: List[Violation] = field(default_factory=list)
    #: repo-relative paths in this run's report scope (baseline staleness
    #: is only judged against these)
    analyzed_paths: List[str] = field(default_factory=list)

def run_check(paths: Sequence[str], root: Optional[Path] = None) -> CheckResult:
    """Analyze ``paths`` (files or directories) with every registered rule.

    One cold pass: collect facts, parse each file once (a syntax error
    becomes an ``EX000`` finding), run the per-file rules its profile
    selects, then build one :class:`~repro.staticcheck.graph.ProjectGraph`
    over the full-profile modules and run the project rules rooted at
    each of them.  Findings are deduplicated and sorted by
    (path, line, col, rule).
    """
    root = (root or Path.cwd()).resolve()
    files = discover_files([Path(p) for p in paths], root)
    facts = collect_facts(root)

    local_results: Dict[str, List[Violation]] = {}
    contexts: Dict[str, ModuleContext] = {}
    analyzed: List[str] = []
    for file in files:
        try:
            rel = file.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = file.as_posix()
        analyzed.append(rel)
        module = module_name_for(file, root)
        profile = profile_for(rel)
        try:
            ctx = ModuleContext.build(
                file.read_text(), path=rel, module=module,
                facts=facts, profile=profile,
            )
        except SyntaxError as exc:
            local_results[module] = [_syntax_error_violation(rel, exc)]
            continue
        local_results[module] = run_local_rules(ctx, rules_for_profile(profile))
        if profile == "full":
            contexts[module] = ctx

    project_results = run_project_rules(ProjectGraph(contexts, facts=facts))

    merged: List[Violation] = []
    seen: Set[Violation] = set()
    buckets = [local_results[m] for m in sorted(local_results)]
    buckets += [project_results[m] for m in sorted(project_results)]
    for bucket in buckets:
        for violation in bucket:
            if violation not in seen:
                seen.add(violation)
                merged.append(violation)
    merged.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    analyzed.sort()
    return CheckResult(
        root=str(root),
        files_analyzed=len(analyzed),
        violations=merged,
        analyzed_paths=analyzed,
    )
