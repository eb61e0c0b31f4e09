"""Every ``repro`` module is reached from a command, a bench or an example.

A module earns its place only if something a user runs reaches it.  The
roots are the CLI (``repro.cli`` and ``repro/__main__.py``), every file
under ``examples/`` and every file under ``benchmarks/``.  Reach follows
``import`` statements anywhere in a file (function-level imports too)
through the AST, from the roots and then from every module reached.
A package ``__init__`` is not followed: a re-export alone reaches
nothing, but a name imported *through* a package reaches the module the
package re-exports it from.  Tests are not roots.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _modules() -> Dict[str, Path]:
    """Dotted name -> file for every module under ``src/repro``."""
    found: Dict[str, Path] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _base(module: Optional[str], here: Optional[str], level: int) -> Optional[str]:
    """Absolute module a (possibly relative) ``from`` import names."""
    if level == 0:
        return module
    if here is None:
        return None
    parts = here.split(".")
    if not _is_package(here):
        parts.pop()
    parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts + ([module] if module else []))


def _through_package(package: str, name: str, seen: Set[Tuple[str, str]]) -> List[str]:
    """Modules a name imported from ``package`` actually comes from."""
    target = f"{package}.{name}"
    if target in MODULES:
        return [target]
    if (package, name) in seen:
        return []
    seen.add((package, name))
    for node in ast.parse(MODULES[package].read_text()).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) != name:
                continue
            source = _base(node.module, package, node.level)
            if source not in MODULES:
                return []
            if _is_package(source):
                return _through_package(source, alias.name, seen)
            return [source]
    return []


def _imports(path: Path, here: Optional[str]) -> Iterator[str]:
    """Every ``repro`` module a file's imports (or module-name strings) reach."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _base(node.module, here, node.level)
            if source not in MODULES:
                continue
            for alias in node.names:
                if alias.name == "*" or not _is_package(source):
                    yield source
                else:
                    yield from _through_package(source, alias.name, set())
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            # importlib.import_module("repro.x") style dispatch
            yield node.value


def reached_modules() -> Set[str]:
    roots = ["repro.cli", "repro.__main__"]
    stack = list(roots)
    for directory in ("examples", "benchmarks"):
        for path in sorted((REPO / directory).rglob("*.py")):
            stack.extend(_imports(path, None))
    reached: Set[str] = set()
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name):
            stack.extend(_imports(MODULES[name], name))
    return reached


def test_every_module_is_reached():
    reached = reached_modules()
    orphans = sorted(
        name
        for name in MODULES
        if name not in reached
        and not _is_package(name)
        and name.rsplit(".", 1)[-1] != "__main__"
    )
    assert orphans == [], f"modules no command, bench or example reaches: {orphans}"
