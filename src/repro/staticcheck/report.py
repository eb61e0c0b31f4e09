"""Deterministic reporters for analysis results.

Two faces, same content: a ruff-style text listing for humans and a
canonical JSON document (sorted keys, stable ordering) for the CI
artifact.  Byte-determinism is not cosmetic here — the JSON report is
diffed across runs, so the reporter honours the same ordered-output
contract the byte-identical goldens hold the rest of the repo to.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.staticcheck.engine import CheckResult
from repro.staticcheck.rules import PROJECT_RULES, RULES, Violation

REPORT_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _all_rule_summaries() -> Dict[str, str]:
    summaries = {rule_id: summary for rule_id, (summary, _fn) in RULES.items()}
    summaries.update(
        {rule_id: summary for rule_id, (summary, _fn) in PROJECT_RULES.items()}
    )
    summaries["EX000"] = "file does not parse"
    return dict(sorted(summaries.items()))


def render_text(
    result: CheckResult,
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[str],
) -> str:
    """Human-readable listing; one ``path:line:col RULE message`` per hit."""
    lines: List[str] = []
    for violation in new:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col + 1} "
            f"{violation.rule} {violation.message}"
        )
    for key in stale:
        lines.append(
            f"STALE {key}: baseline entry matches no current violation — "
            f"remove it (the code it excused was fixed)"
        )
    summary = (
        f"existcheck: {result.files_analyzed} files, "
        f"{len(new)} new violation(s), {len(suppressed)} baselined, "
        f"{len(stale)} stale suppression(s)"
    )
    if new:
        counts = {}
        for violation in new:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        breakdown = ", ".join(
            f"{rule_id}×{count}" for rule_id, count in sorted(counts.items())
        )
        summary += f" [{breakdown}]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    result: CheckResult,
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
    stale: Sequence[str],
) -> str:
    """Canonical JSON document for the CI artifact (byte-stable)."""
    payload: Dict[str, object] = {
        "version": REPORT_VERSION,
        "files_analyzed": result.files_analyzed,
        "rules": _all_rule_summaries(),
        "new_violations": [v.to_dict() for v in new],
        "suppressed": [v.to_dict() for v in suppressed],
        "stale_suppressions": list(stale),
        "summary": {
            "new": len(new),
            "suppressed": len(suppressed),
            "stale": len(stale),
            "by_rule": _count_by_rule(new),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _count_by_rule(violations: Sequence[Violation]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return dict(sorted(counts.items()))


def render_sarif(
    result: CheckResult,
    new: Sequence[Violation],
    suppressed: Sequence[Violation],
) -> str:
    """SARIF 2.1.0 document for GitHub code scanning.

    New violations surface as ``error`` results (they fail the check);
    baselined ones ride along as ``note`` results so the annotations
    show the accepted debt without failing anything.  Stale suppressions
    are a baseline-file problem, not a code location, so they stay out
    of SARIF (the text/JSON reports carry them).
    """
    rules_meta = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, summary in _all_rule_summaries().items()
    ]

    def to_result(violation: Violation, level: str) -> Dict[str, object]:
        return {
            "ruleId": violation.rule,
            "level": level,
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {"existcheckKey/v1": violation.key},
        }

    payload: Dict[str, object] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "existcheck",
                        "informationUri": "https://github.com/",
                        "rules": rules_meta,
                    }
                },
                "results": (
                    [to_result(v, "error") for v in new]
                    + [to_result(v, "note") for v in suppressed]
                ),
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
