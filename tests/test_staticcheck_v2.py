"""Self-tests for the whole-program half of ``existcheck``.

Covers the v2 surface: the project graph and the interprocedural rule
EX007 (seed provenance, including the ``loadgen.py`` float-label
regression shape), EX005 catching a pool-worker task that mutates an
unregistered module global, the baseline contract edge cases (including
path-scoped staleness), and the SARIF emitter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    Baseline,
    build_graph_from_sources,
    load_baseline,
    run_check,
    run_project_rules,
)
from repro.staticcheck.baseline import apply_baseline
from repro.staticcheck.report import render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def project_check(sources, facts=None, rules=None):
    """Run the interprocedural registry over ``{rel_path: source}``."""
    graph = build_graph_from_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()},
        facts=facts,
    )
    out = []
    for violations in run_project_rules(graph, rules=rules).values():
        out.extend(violations)
    return out


def rule_ids(violations):
    return sorted({v.rule for v in violations})


# ---------------------------------------------------------------------------
# EX007 — seed provenance
# ---------------------------------------------------------------------------


class TestEX007SeedProvenance:
    def test_fires_on_prefix_loadgen_float_label(self):
        """The PR 9 regression shape: a float dataclass field reaches
        derive_seed without canonicalization, so repr-distinct numerics
        (40000 vs 40000.0) silently select different streams."""
        violations = project_check({
            "src/repro/services/loadgen_fixture.py": """
                from dataclasses import dataclass
                from repro.util.rng import derive_seed
                import numpy as np

                @dataclass(frozen=True)
                class PoissonArrivals:
                    rate_rps: float
                    seed: int

                    def arrival_times(self, horizon_ns):
                        rng = np.random.default_rng(
                            derive_seed(self.seed, "poisson", self.rate_rps)
                        )
                        return rng
            """,
        })
        assert rule_ids(violations) == ["EX007"]
        assert violations[0].token == "self.rate_rps"
        assert "float" in violations[0].message

    def test_silent_on_postfix_canonicalized_label(self):
        violations = project_check({
            "src/repro/services/loadgen_fixture.py": """
                from dataclasses import dataclass
                from repro.util.rng import derive_seed
                import numpy as np

                @dataclass(frozen=True)
                class PoissonArrivals:
                    rate_rps: float
                    seed: int

                    def arrival_times(self, horizon_ns):
                        rate = float(self.rate_rps)
                        rng = np.random.default_rng(
                            derive_seed(self.seed, "poisson", rate)
                        )
                        return rng
            """,
        })
        assert violations == []

    def test_fires_on_unrooted_sink_seed(self):
        violations = project_check({
            "src/repro/foo.py": """
                import numpy as np
                import time

                def make():
                    return np.random.default_rng(int(time.time()))
            """,
        })
        assert rule_ids(violations) == ["EX007"]
        assert "not rooted" in violations[0].message

    def test_fires_on_unseeded_entropy_sink(self):
        violations = project_check({
            "src/repro/foo.py": """
                import numpy as np

                def make():
                    return np.random.default_rng()
            """,
        })
        assert rule_ids(violations) == ["EX007"]
        assert "OS" in violations[0].message

    def test_silent_on_derive_seed_rooted_chain(self):
        violations = project_check({
            "src/repro/foo.py": """
                import numpy as np
                from repro.util.rng import derive_seed

                def make(base_seed, shard):
                    return np.random.default_rng(
                        derive_seed(base_seed, "shard", shard)
                    )
            """,
        })
        assert violations == []

    def test_silent_on_seed_named_binding_and_loop_index(self):
        violations = project_check({
            "src/repro/foo.py": """
                import numpy as np

                def make(campaign_seed, n):
                    out = []
                    for index in range(n):
                        out.append(np.random.default_rng(campaign_seed + index))
                    return out
            """,
        })
        assert violations == []

    def test_fires_on_dict_ordered_label(self):
        violations = project_check({
            "src/repro/foo.py": """
                from repro.util.rng import derive_seed

                def child(seed):
                    return derive_seed(seed, {"a": 1, "b": 2})
            """,
        })
        assert rule_ids(violations) == ["EX007"]
        assert "unordered" in violations[0].message

    def test_rootedness_follows_project_helper_returns(self):
        violations = project_check({
            "src/repro/helper.py": """
                from repro.util.rng import derive_seed

                def shard_seed(base_seed, shard):
                    return derive_seed(base_seed, "shard", shard)
            """,
            "src/repro/foo.py": """
                import numpy as np
                from repro.helper import shard_seed

                def make(base_seed, shard):
                    return np.random.default_rng(shard_seed(base_seed, shard))
            """,
        })
        assert violations == []


# ---------------------------------------------------------------------------
# worker-side writes to module globals are EX005 findings
# ---------------------------------------------------------------------------


def test_ex005_flags_global_mutated_by_pool_task(tmp_path):
    """A task passed to ``pool.map`` that writes an unregistered module
    global loses that write in a forked worker.  The per-file EX005 rule
    flags the global itself, wherever it is written from, so no call-graph
    walk from the pool's entry points is needed to catch it."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "worklib.py").write_text(textwrap.dedent("""
        _HITS = {}

        def record(key):
            _HITS[key] = _HITS.get(key, 0) + 1

        def task(item):
            record(item)
            return item * 2
    """))
    (pkg / "driver.py").write_text(textwrap.dedent("""
        from repro.parallel.workers import process_pool
        from repro.worklib import task

        def run(items):
            pool = process_pool()
            return pool.map(task, items)
    """))
    violations = run_check(["src"], root=tmp_path).violations
    assert [(v.rule, v.path, v.token) for v in violations] == [
        ("EX005", "src/repro/worklib.py", "_HITS"),
    ]


# ---------------------------------------------------------------------------
# baseline contract edge cases
# ---------------------------------------------------------------------------


@pytest.fixture()
def mini_tree(tmp_path):
    """A two-module project copy small enough to scope a run over."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text("def key(tid, core_id):\n    return (tid, core_id)\n")
    (pkg / "leaf.py").write_text(textwrap.dedent("""
        import numpy as np

        def draw(campaign_seed):
            return np.random.default_rng(campaign_seed)
    """))
    return tmp_path


class TestBaselineEdgeCases:
    def test_stale_entries_outside_scope_are_not_reported(self, mini_tree):
        """A baseline entry for a file the run did not analyze is out of
        scope, not stale."""
        result = run_check(["src/repro/leaf.py"], root=mini_tree)
        assert result.analyzed_paths == ["src/repro/leaf.py"]
        baseline = Baseline(suppressions={
            "EX001:src/repro/base.py:key:time.time": "entry for unanalyzed file",
        })
        _new, _suppressed, stale = apply_baseline(
            result.violations, baseline, analyzed_paths=result.analyzed_paths
        )
        assert stale == []

    def test_empty_justification_rejected(self):
        text = json.dumps({
            "version": 1,
            "suppressions": [{"key": "EX001:a.py:<module>:time.time",
                              "justification": "   "}],
        })
        with pytest.raises(ValueError, match="empty justification"):
            Baseline.from_json(text)

    def test_duplicate_keys_rejected(self):
        text = json.dumps({
            "version": 1,
            "suppressions": [
                {"key": "EX001:a.py:<module>:time.time", "justification": "one"},
                {"key": "EX001:a.py:<module>:time.time", "justification": "two"},
            ],
        })
        with pytest.raises(ValueError, match="duplicate suppression key"):
            Baseline.from_json(text)

    def test_stale_failure_message_names_the_key(self, tmp_path):
        """The CLI text report must name the offending stale key."""
        offender = "EX001:src/gone.py:<module>:time.time"
        (tmp_path / "baseline.json").write_text(json.dumps({
            "version": 1,
            "suppressions": [{"key": offender, "justification": "obsolete"}],
        }))
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "gone.py").write_text("X = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", "src",
             "--baseline", str(tmp_path / "baseline.json")],
            cwd=tmp_path, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert f"STALE {offender}" in proc.stdout


# ---------------------------------------------------------------------------
# SARIF emitter
# ---------------------------------------------------------------------------


class TestSarif:
    def test_sarif_document_shape(self):
        result = run_check(["src/repro/util"], root=REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / "staticcheck-baseline.json")
        new, suppressed, _stale = apply_baseline(
            result.violations, baseline, analyzed_paths=result.analyzed_paths
        )
        doc = json.loads(render_sarif(result, new, suppressed))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "existcheck"
        rule_index = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"EX001", "EX007"} <= rule_index
        for entry in run["results"]:
            assert entry["ruleId"] in rule_index
            location = entry["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert entry["partialFingerprints"]["existcheckKey/v1"]

    def test_sarif_levels_split_new_vs_baselined(self):
        result = run_check(["src/repro/parallel"], root=REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / "staticcheck-baseline.json")
        new, suppressed, _stale = apply_baseline(
            result.violations, baseline, analyzed_paths=result.analyzed_paths
        )
        assert suppressed, "parallel package carries baselined reseeds"
        doc = json.loads(render_sarif(result, new, suppressed))
        levels = {entry["level"] for entry in doc["runs"][0]["results"]}
        assert "note" in levels

    def test_cli_writes_sarif(self, tmp_path):
        out = tmp_path / "report.sarif"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", "src/repro/util",
             "--sarif", str(out)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(out.read_text())["version"] == "2.1.0"
