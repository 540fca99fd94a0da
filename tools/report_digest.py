"""Digests of the verification suite's report, to compare two checkouts.

Runs ``run_suite`` at seeds 0-3 and scales 0.05 and 1, and prints the
sha256 of each report's JSON (keys sorted) and one digest over them all.
Two checkouts whose reports are byte-identical print the same lines.

Given the path of a second checkout, it also runs that checkout's suite
(in a child process, on the other checkout's ``src``) and then prints every
report field that differs, one line each: seed, scale, check, field, this
checkout's value and the other's.  Fields of the report outside any check
are listed under the check name ``-``.  It then exits with status 1 when
any field differs (or the other suite fails) and 0 when none does, so a
script can check that two checkouts report the same.  Run it from the
repository root:

    python tools/report_digest.py
    python tools/report_digest.py ../other-checkout
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncorlicz.verify import SuiteConfig, run_suite  # noqa: E402

SEEDS = range(4)
SCALES = (0.05, 1.0)
RUNS = [(seed, scale) for scale in SCALES for seed in SEEDS]

# The other checkout's reports, in the order of RUNS, as one JSON list
_OTHER_REPORTS = """
import json, sys
from ncorlicz.verify import SuiteConfig, run_suite
runs = json.loads(sys.argv[1])
print(json.dumps([run_suite(SuiteConfig(seed=seed, scale=scale)) for seed, scale in runs]))
"""


def _fields(report: dict) -> dict:
    """Every leaf of a report, keyed by (check name, field path)."""

    def leaves(value, path):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from leaves(value[key], f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, f"{path}[{i}]")
        else:
            yield path, value

    out = {}
    for key, value in report.items():
        if key == "checks":
            for check in value:
                out.update(((check["name"], path), leaf) for path, leaf in leaves(check, ""))
        else:
            out.update((("-", path), leaf) for path, leaf in leaves(value, key))
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/report_digest.py [OTHER_CHECKOUT]", file=sys.stderr)
        return 2
    other = None
    if argv:
        checkout = Path(argv[0]).resolve()
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        other = subprocess.Popen([sys.executable, "-c", _OTHER_REPORTS, json.dumps(RUNS)],
                                 cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    overall = hashlib.sha256()
    texts = []
    for seed, scale in RUNS:
        text = json.dumps(run_suite(SuiteConfig(seed=seed, scale=scale)), sort_keys=True)
        texts.append(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        overall.update(digest.encode())
        print(f"seed {seed} scale {scale}: {digest}", flush=True)
    print(f"overall: {overall.hexdigest()}")
    if other is None:
        return 0
    stdout, _ = other.communicate()
    if other.returncode:
        print(f"the suite of {argv[0]} failed", file=sys.stderr)
        return 1
    print(f"fields that differ (this checkout, then {argv[0]}):")
    moved = 0
    for (seed, scale), text, theirs in zip(RUNS, texts, json.loads(stdout)):
        here, there = _fields(json.loads(text)), _fields(theirs)
        for check, field in sorted(here.keys() | there.keys()):
            a = json.dumps(here.get((check, field), "absent"))
            b = json.dumps(there.get((check, field), "absent"))
            if a != b:
                moved += 1
                print(f"seed {seed} scale {scale} {check} {field}: {a} {b}")
    print(f"{moved} fields differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
