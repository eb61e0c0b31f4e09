"""``existcheck`` — static determinism & simulation-purity analyzer.

The reproduction's headline guarantees — byte-identical ``jobs=1`` vs
``jobs=N`` replay, seeded fault injection, content-addressed decode
caching — all rest on source-level invariants that no runtime test pins
down directly: virtual-time code must never read the wall clock, all
randomness must come from :mod:`repro.util.rng` named streams with
canonical labels, and mutable module-global state must be registered
with the resettable-identity machinery.  Violations historically
surfaced as replay divergence and were fixed by bisection; this package
catches the same bug classes at review time by walking the repo's own
AST.  Hash-order leaks into serialized output and lost worker-side
writes are left to the byte-identical goldens and the CI jobs-parity
diffs, which catch them at run time (EX005 already flags the unregistered
module globals such a write would land in).

Layout:

* :mod:`repro.staticcheck.rules`    — the EX rule registries: per-file
  rules EX001, EX002, EX004..EX006 plus the interprocedural rule EX007
  (seed provenance), one per observed failure mode;
* :mod:`repro.staticcheck.graph`    — project-wide symbol table the
  interprocedural rule resolves calls and annotations through;
* :mod:`repro.staticcheck.engine`   — three-pass driver: a facts pass
  over :mod:`repro.util.identity` / :mod:`repro.util.rng`, a per-file
  rule pass, and one project-rule pass over the whole-program graph;
* :mod:`repro.staticcheck.baseline` — committed suppression file with
  per-entry justifications; stale entries fail the check;
* :mod:`repro.staticcheck.report`   — deterministic text/JSON/SARIF
  reporters;
* :mod:`repro.staticcheck.main`     — argument surface shared by
  ``python -m repro.staticcheck`` and ``repro.cli staticcheck``.

Run it from the repo root::

    PYTHONPATH=src python -m repro.staticcheck src

Suppress a deliberate exemption either inline::

    timestamp = datetime.now()  # existcheck: ignore[EX001]

or durably, with a justification, in ``staticcheck-baseline.json``.
"""

from repro.staticcheck.baseline import Baseline, load_baseline
from repro.staticcheck.engine import CheckResult, analyze_source, run_check
from repro.staticcheck.graph import ProjectGraph, build_graph_from_sources, run_project_rules
from repro.staticcheck.rules import PROJECT_RULES, RULES, Violation

__all__ = [
    "Baseline",
    "CheckResult",
    "PROJECT_RULES",
    "ProjectGraph",
    "RULES",
    "Violation",
    "analyze_source",
    "build_graph_from_sources",
    "load_baseline",
    "run_check",
    "run_project_rules",
]
