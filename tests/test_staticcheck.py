"""Self-tests for the ``existcheck`` static analyzer.

The per-rule fixtures are the determinism contract in executable form:
for every EX rule there is a seeded *violation* snippet the rule must
fire on and the *corrected* form it must stay silent on.  On top of
that, the committed repo baseline is kept in sync (a stale suppression
or an unbaselined violation fails this suite, mirroring the CI gate).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import (
    PROJECT_RULES,
    RULES,
    analyze_source,
    load_baseline,
    run_check,
)
from repro.staticcheck.baseline import Baseline, apply_baseline, write_baseline
from repro.staticcheck.engine import collect_facts
from repro.staticcheck.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent

#: facts equivalent to a registered identity module, for EX005 fixtures
FACTS = {
    "identity_registered": {"repro.kernel.fake:_pid_counter"},
    "process_lifetime": {"repro.kernel.fake:_CACHE"},
}


def check(source: str, module: str = "repro.kernel.fake", rules=None):
    return analyze_source(
        textwrap.dedent(source),
        path=f"src/{module.replace('.', '/')}.py",
        module=module,
        facts=FACTS,
        rules=rules,
    )


def rule_ids(violations):
    return sorted({v.rule for v in violations})


# ---------------------------------------------------------------------------
# per-rule fixtures: each EX rule fires on the violation, not on the fix
# ---------------------------------------------------------------------------


class TestEX001WallClock:
    def test_fires_on_wall_clock_in_simulation_module(self):
        violations = check("""
            import time
            def tick(sim):
                sim.now = time.time()
        """)
        assert rule_ids(violations) == ["EX001"]
        assert "time.time" in violations[0].message

    def test_fires_through_from_import_and_datetime(self):
        violations = check("""
            from time import perf_counter
            from datetime import datetime
            def stamp():
                return perf_counter(), datetime.now()
        """)
        assert [v.rule for v in violations] == ["EX001", "EX001"]

    def test_silent_on_virtual_clock(self):
        violations = check("""
            def tick(sim, clock):
                sim.now = clock.now_ns
        """)
        assert violations == []

    def test_silent_outside_repro_namespace(self):
        violations = check(
            "import time\nstart = time.time()\n", module="benchmarks.conftest"
        )
        assert violations == []


class TestEX002GlobalRng:
    def test_fires_on_global_random_and_numpy(self):
        violations = check("""
            import random
            import numpy as np
            def jitter():
                return random.random() + np.random.random()
        """)
        assert [v.rule for v in violations] == ["EX002", "EX002"]

    def test_silent_on_named_streams(self):
        violations = check("""
            import numpy as np
            from repro.util.rng import derive_seed
            def jitter(seed):
                rng = np.random.default_rng(derive_seed(seed, "jitter"))
                return rng.random()
        """)
        assert violations == []


class TestEX004IdentityKeys:
    def test_fires_on_id_in_cache_key(self):
        violations = check("""
            def lookup(cache, binary, seed):
                key = (id(binary), seed)
                return cache.get(key)
        """)
        assert rule_ids(violations) == ["EX004"]

    def test_fires_on_hash_in_fingerprint_function(self):
        violations = check("""
            import hashlib
            def fingerprint(binary):
                digest = hashlib.blake2b()
                digest.update(str(hash(binary)).encode())
                return digest.digest()
        """)
        assert "EX004" in rule_ids(violations)

    def test_silent_on_content_keys(self):
        violations = check("""
            def lookup(cache, binary, seed):
                key = (binary.name, binary.base_address, seed)
                return cache.get(key)
        """)
        assert violations == []


class TestEX005ModuleState:
    def test_fires_on_unregistered_counter(self):
        violations = check("""
            import itertools
            _uid_counter = itertools.count(1)
        """)
        assert rule_ids(violations) == ["EX005"]
        assert "_uid_counter" in violations[0].message

    def test_fires_on_mutated_module_container(self):
        violations = check("""
            _SESSIONS = {}
            def remember(session):
                _SESSIONS[session.name] = session
        """)
        assert rule_ids(violations) == ["EX005"]

    def test_fires_on_global_rebound_flag(self):
        violations = check("""
            _ACTIVE = None
            def activate(thing):
                global _ACTIVE
                _ACTIVE = thing
        """)
        assert rule_ids(violations) == ["EX005"]

    def test_silent_when_registered_or_acknowledged(self):
        violations = check("""
            import itertools
            _pid_counter = itertools.count(1000)   # in reset_identity_counters
            _CACHE = {}                            # in PROCESS_LIFETIME_STATE
            def remember(key, value):
                _CACHE[key] = value
        """)
        assert violations == []

    def test_silent_on_constant_tables(self):
        violations = check("""
            _WIDTHS = {1: 0.5, 2: 0.5}
            def width_of(kind):
                return _WIDTHS[kind]
        """)
        assert violations == []


class TestEX006SwallowedErrors:
    def test_fires_on_bare_except(self):
        violations = check("""
            def parse(data):
                try:
                    return data.decode()
                except:
                    return None
        """)
        assert rule_ids(violations) == ["EX006"]

    def test_fires_on_swallowed_packet_error(self):
        violations = check(
            """
            from repro.hwtrace.packets import PacketError
            def scan(stream):
                records = []
                for chunk in stream:
                    try:
                        records.append(chunk.parse())
                    except PacketError:
                        pass
                return records
            """,
            module="repro.hwtrace.fake",
        )
        assert rule_ids(violations) == ["EX006"]

    def test_silent_when_loss_is_accounted(self):
        violations = check(
            """
            from repro.hwtrace.packets import PacketError
            def scan(stream, report):
                records = []
                for chunk in stream:
                    try:
                        records.append(chunk.parse())
                    except PacketError as exc:
                        report.bytes_dropped += exc.offset
                return records
            """,
            module="repro.hwtrace.fake",
        )
        assert violations == []


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


def test_every_rule_has_positive_and_negative_coverage():
    """The registry and this suite move together."""
    assert sorted(RULES) == ["EX001", "EX002", "EX004", "EX005", "EX006"]
    assert sorted(PROJECT_RULES) == ["EX007"]


def test_syntax_error_reported_not_raised():
    violations = check("def broken(:\n")
    assert [v.rule for v in violations] == ["EX000"]


def test_inline_suppression_marker():
    source = """
        import time
        def tick(sim):
            sim.now = time.time()  # existcheck: ignore[EX001]
    """
    assert check(source) == []
    # marker for a different rule does not suppress
    other = source.replace("EX001", "EX002")
    assert rule_ids(check(other)) == ["EX001"]


def test_violation_key_is_line_independent():
    before = check("import time\ndef f():\n    return time.time()\n")
    after = check("import time\n\n\ndef f():\n    return time.time()\n")
    assert [v.key for v in before] == [v.key for v in after]
    assert before[0].line != after[0].line


def test_collect_facts_reads_identity_registry():
    facts = collect_facts(REPO_ROOT)
    assert "repro.kernel.task:_pid_counter" in facts["identity_registered"]
    assert "repro.core.otc:_session_ids" in facts["identity_registered"]
    assert "repro.hwtrace.cache:_PROCESS_CACHE" in facts["process_lifetime"]


# ---------------------------------------------------------------------------
# baseline contract
# ---------------------------------------------------------------------------


def test_repo_is_clean_against_committed_baseline():
    """The acceptance gate: the full tree has no new or stale findings."""
    result = run_check(["src", "tests", "benchmarks"], root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / "staticcheck-baseline.json")
    new, suppressed, stale = apply_baseline(
        result.violations, baseline, analyzed_paths=result.analyzed_paths
    )
    assert new == [], "unbaselined violations:\n" + "\n".join(
        f"{v.path}:{v.line} {v.rule} {v.message}" for v in new
    )
    assert stale == [], f"stale suppressions (code was fixed; prune them): {stale}"
    assert suppressed, "baseline expected to carry the documented exemptions"


def test_committed_baseline_has_real_justifications():
    baseline = load_baseline(REPO_ROOT / "staticcheck-baseline.json")
    for key, justification in baseline.suppressions.items():
        assert justification and "TODO" not in justification, key


def test_stale_suppression_detected():
    baseline = Baseline(suppressions={"EX001:gone.py:<module>:time.time": "obsolete"})
    new, _suppressed, stale = apply_baseline([], baseline)
    assert new == []
    assert stale == ["EX001:gone.py:<module>:time.time"]


def test_write_baseline_preserves_justifications(tmp_path):
    violations = check("import time\ndef f():\n    return time.time()\n")
    path = tmp_path / "baseline.json"
    previous = Baseline(suppressions={violations[0].key: "kept reason"})
    written = write_baseline(path, violations, previous)
    assert written.suppressions[violations[0].key] == "kept reason"
    reloaded = load_baseline(path)
    assert reloaded.suppressions == written.suppressions


# ---------------------------------------------------------------------------
# reporters and entry points
# ---------------------------------------------------------------------------


def test_reports_are_deterministic_and_structured():
    result = run_check(["src/repro/util"], root=REPO_ROOT)
    new, suppressed, stale = apply_baseline(
        result.violations, load_baseline(REPO_ROOT / "staticcheck-baseline.json")
    )
    json_a = render_json(result, new, suppressed, stale)
    json_b = render_json(result, new, suppressed, stale)
    assert json_a == json_b
    payload = json.loads(json_a)
    assert payload["version"] == 1
    assert set(RULES) <= set(payload["rules"])
    assert set(PROJECT_RULES) <= set(payload["rules"])
    text = render_text(result, new, suppressed, stale)
    assert "existcheck:" in text


@pytest.mark.parametrize("entry", [
    [sys.executable, "-m", "repro.staticcheck"],
    [sys.executable, "-m", "repro", "staticcheck"],
])
def test_cli_entry_points_exit_zero_on_clean_tree(entry, tmp_path):
    report_path = tmp_path / "report.json"
    proc = subprocess.run(
        entry + ["src", "--json", str(report_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 new violation(s)" in proc.stdout
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["new"] == 0


def test_cli_exits_one_on_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "kernel"
    bad.mkdir(parents=True)
    (bad / "hot.py").write_text("import time\nNOW = time.time()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.staticcheck", "src", "--no-baseline"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "EX001" in proc.stdout
