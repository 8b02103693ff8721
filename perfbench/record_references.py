"""Record the exact-output references in perfbench/references.json.

Run once, from the root of a checkout whose ``src/`` is the seed commit's
(52eb193, the parent of the commit that added this benchmark), never from
a commit under test:

    python3 perfbench/record_references.py

It records the digest of every call any seed can make: the survey for
several seeds (their exact fields must agree, since they do not depend on
the seed), the search, and every ``large`` catalog partition.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from refcheck import REFERENCES, exact_digest
from run import git_commit, src_digest
from workloads import large_catalog, partition_calls, search_calls, survey_calls

SURVEY_SEEDS = (1, 2, 12345)


def digest_of(cli, call) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(call.argv))
    if code != 0:
        raise SystemExit(f"{' '.join(call.argv)} exited {code}")
    return exact_digest(call.command, out.getvalue())


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    import seidelspec.cli as cli

    digests: dict[str, str] = {}
    survey = {seed: digest_of(cli, survey_calls(seed)[0]) for seed in SURVEY_SEEDS}
    if len(set(survey.values())) != 1:
        raise SystemExit(f"survey exact fields differ between seeds: {survey}")
    digests[survey_calls(SURVEY_SEEDS[0])[0].ref_key] = survey[SURVEY_SEEDS[0]]
    for call in search_calls(0):
        digests[call.ref_key] = digest_of(cli, call)
    for partitions in large_catalog().values():
        for call in partition_calls(partitions):
            if call.ref_key not in digests:
                digests[call.ref_key] = digest_of(cli, call)
    payload = {
        "seed_commit": git_commit(root),
        "seed_src_sha256": src_digest(src),
        "survey_seeds_checked": list(SURVEY_SEEDS),
        "digests": dict(sorted(digests.items())),
    }
    with open(REFERENCES, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
