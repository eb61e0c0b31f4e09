"""``existcheck`` — static determinism & simulation-purity analyzer.

The reproduction's headline guarantees — byte-identical ``jobs=1`` vs
``jobs=N`` replay, seeded fault injection, content-addressed decode
caching — all rest on source-level invariants that no runtime test pins
down directly: virtual-time code must never read the wall clock, all
randomness must come from :mod:`repro.util.rng` named streams, mutable
module-global state must be registered with the resettable-identity
machinery, and anything serialized or hashed must iterate in a defined
order.  Violations historically surfaced as replay divergence and were
fixed by bisection (see CHANGES.md, PR 3/4); this package catches the
same bug classes at review time by walking the repo's own AST.

Layout:

* :mod:`repro.staticcheck.rules`    — the EX rule registries: per-file
  rules EX001..EX006 plus the interprocedural rules EX007 (seed
  provenance) and EX008 (fork-shared-state races), one per observed
  failure mode;
* :mod:`repro.staticcheck.graph`    — project-wide symbol table and
  call graph the interprocedural rules run over;
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
