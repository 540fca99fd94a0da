"""Digests of the verification suite's report, to compare two checkouts.

Runs ``run_suite`` at seeds 0-3 and scales 0.05 and 1, and prints the
sha256 of each report's JSON (keys sorted) and one digest over them all.
Two checkouts whose reports are byte-identical print the same lines.  Run
it from the repository root:

    python tools/report_digest.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncorlicz.verify import SuiteConfig, run_suite  # noqa: E402

SEEDS = range(4)
SCALES = (0.05, 1.0)


def main() -> int:
    overall = hashlib.sha256()
    for scale in SCALES:
        for seed in SEEDS:
            text = json.dumps(run_suite(SuiteConfig(seed=seed, scale=scale)), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            overall.update(digest.encode())
            print(f"seed {seed} scale {scale}: {digest}", flush=True)
    print(f"overall: {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
