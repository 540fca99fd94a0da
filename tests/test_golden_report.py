"""The verification report at seed 3, scale 0.05, against a stored copy.

``data/verify_seed3_scale0.05.json`` holds the ``checks`` entries of
``run_suite(SuiteConfig(seed=3, scale=0.05))``.  Names, claims, sample
counts, verdicts and details must match exactly, floats to relative 1e-12,
so a change to how checks are written, seeded or drawn cannot move a result
unnoticed.  Regenerate the file only when a check's claim or corpus changes
on purpose.
"""

import json
import math
from pathlib import Path

from ncorlicz.verify import SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_seed3_scale0.05.json"


def _mismatches(want, got, path="") -> list[str]:
    if isinstance(want, float) and isinstance(got, float):
        if want == got or math.isclose(want, got, rel_tol=1e-12, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


def test_report_matches_stored_copy():
    want = json.loads(GOLDEN.read_text())
    # the JSON round trip turns tuples into lists, as the stored copy has them
    got = json.loads(json.dumps(run_suite(SuiteConfig(seed=3, scale=0.05))["checks"]))
    assert [c["name"] for c in got] == [c["name"] for c in want]
    assert _mismatches(want, got) == []
