"""Exact-output check against references recorded at the seed commit.

Only the exact-result fields of each command's ``--json`` output are
compared: polynomial coefficients, cospectral classes, violations,
verdicts, exact root counts, ``agree`` and ``passed``.  Floats (Jacobi
eigenvalues, residuals) and keys that later versions add, such as a
``stats`` block, are ignored.  A reference is the SHA-256 of the
canonical JSON of those fields, so a missing field, a renamed key or a
changed value all fail.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def _verify(out: dict) -> dict:
    return {
        "passed": out["passed"],
        "suites": [
            {"name": s["name"], "passed": s["passed"], "failures": s["failures"]}
            for s in out["suites"]
        ],
    }


def _search(out: dict) -> dict:
    return {
        "classes": [
            {
                "charpoly": c["charpoly"],
                "partitions": c["partitions"],
                "degenerate_bipartite": c["degenerate_bipartite"],
            }
            for c in out["classes"]
        ],
        "violations": out["violations"],
        "verdicts": out["verdicts"],
    }


def _charpoly(out: dict) -> dict:
    return {
        "partition": out["partition"],
        "forms": [{"name": f["name"], "coefficients": f["coefficients"]} for f in out["forms"]],
        "agree": out["agree"],
    }


def _spectrum(out: dict) -> dict:
    return {
        "partition": out["partition"],
        "coefficients": out["charpoly"]["coefficients"],
        "-1_multiplicity": out["-1_multiplicity"],
        "positive_roots": out["positive_roots"],
        "roots_below_minus_one": out["roots_below_minus_one"],
    }


EXACT_FIELDS = {
    "verify": _verify,
    "search": _search,
    "charpoly": _charpoly,
    "spectrum": _spectrum,
}


def exact_digest(command: str, stdout: str) -> str:
    """SHA-256 of the exact-result fields of one command's JSON output.

    Raises ValueError (or KeyError/TypeError) when the output is not the
    expected JSON shape; callers count that as a mismatch.
    """
    fields = EXACT_FIELDS[command](json.loads(stdout))
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_references() -> dict:
    """The recorded file: ``digests`` by reference key, plus the seed
    commit and the SHA-256 of its sources (``seed_src_sha256``)."""
    with open(REFERENCES) as fh:
        return json.load(fh)


def matches(references: dict[str, str], ref_key: str, command: str, stdout: str) -> bool:
    """True when the output's exact fields equal the recorded reference."""
    expected = references.get(ref_key)
    if expected is None:
        return False
    try:
        return exact_digest(command, stdout) == expected
    except (ValueError, KeyError, TypeError):
        return False
