"""Committed suppression baseline with per-entry justifications.

The baseline is the repo's list of *deliberate* exemptions from the EX
rules — every entry pairs a line-number-independent violation key with a
one-line justification of why the flagged construct is correct (the
benchmark reporter's wall-clock timestamp, the pool's defensive global
reseed, id()-keyed in-process memoization).  It is a contract, not a
dumping ground:

* a violation whose key is absent fails the check (*new* violation);
* a baseline entry matching no current violation also fails the check
  (*stale* suppression) — fixed code must shed its exemption, so the
  file can only ever shrink by fixing or grow by justified decision.

Format (``staticcheck-baseline.json``, sorted, committed)::

    {
      "version": 1,
      "suppressions": [
        {"key": "EX001:src/...:scope:token", "justification": "..."}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.rules import Violation

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "staticcheck-baseline.json"


@dataclass
class Baseline:
    """key -> justification mapping plus (de)serialization."""

    suppressions: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical sorted JSON document for the committed file."""
        payload = {
            "version": BASELINE_VERSION,
            "suppressions": [
                {"key": key, "justification": justification}
                for key, justification in sorted(self.suppressions.items())
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Baseline":
        """Parse a baseline document, validating its contract.

        Beyond the version, two shapes are rejected outright: duplicate
        suppression keys (the second entry would silently win, hiding a
        merge mistake) and empty or whitespace-only justifications (an
        exemption nobody can defend is not an exemption — the whole
        point of the file is the written why).
        """
        payload = json.loads(text)
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(f"unsupported baseline version {version!r}")
        suppressions: Dict[str, str] = {}
        for entry in payload.get("suppressions", []):
            key = str(entry["key"])
            justification = str(entry.get("justification", ""))
            if key in suppressions:
                raise ValueError(f"duplicate suppression key {key!r}")
            if not justification.strip():
                raise ValueError(
                    f"suppression {key!r} has an empty justification — "
                    f"every baseline entry must say why the finding is ok"
                )
            suppressions[key] = justification
        return cls(suppressions=suppressions)


def load_baseline(path: Path) -> Baseline:
    """Read and parse the baseline file at ``path``."""
    return Baseline.from_json(path.read_text())


def _key_path(key: str) -> str:
    """The repo-relative path segment of a suppression key.

    Keys are ``RULE:path:scope:token``; paths are posix-relative and so
    never contain a colon themselves.
    """
    parts = key.split(":")
    return parts[1] if len(parts) >= 2 else ""


def apply_baseline(
    violations: Sequence[Violation],
    baseline: Baseline,
    analyzed_paths: Optional[Sequence[str]] = None,
) -> Tuple[List[Violation], List[Violation], List[str]]:
    """Split violations against the baseline.

    Returns ``(new, suppressed, stale_keys)`` — ``new`` must be empty
    and ``stale_keys`` must be empty for the check to pass.

    ``analyzed_paths`` scopes staleness to this run: an entry whose path
    was not analyzed (a ``src``-only run against a baseline that also
    covers ``tests/``) is simply out of scope, not stale — only a
    full-tree run can retire entries.
    """
    new: List[Violation] = []
    suppressed: List[Violation] = []
    matched = set()
    for violation in violations:
        if violation.key in baseline.suppressions:
            suppressed.append(violation)
            matched.add(violation.key)
        else:
            new.append(violation)
    candidates = set(baseline.suppressions) - matched
    if analyzed_paths is not None:
        in_scope = set(analyzed_paths)
        candidates = {key for key in candidates if _key_path(key) in in_scope}
    return new, suppressed, sorted(candidates)


def write_baseline(
    path: Path, violations: Sequence[Violation], previous: Baseline
) -> Baseline:
    """Regenerate the baseline from current findings.

    Justifications of surviving keys are preserved; genuinely new keys
    get a ``TODO`` placeholder that a reviewer must replace before
    committing (the sync test treats TODOs as documentation debt, not
    failure — the *diff* is what review gates).
    """
    suppressions: Dict[str, str] = {}
    for violation in violations:
        suppressions[violation.key] = previous.suppressions.get(
            violation.key, "TODO: justify this exemption"
        )
    baseline = Baseline(suppressions=suppressions)
    path.write_text(baseline.to_json())
    return baseline
