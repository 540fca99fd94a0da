"""Seed sweep of the verification suite: every check at many seeds.

Runs ``run_suite`` at seeds 0-99, scale 0.05, and at seeds 0-19, scale 1,
prints each failing (check, seed, scale), a check that raises among them,
and exits 1 when there is any.  Run it from the repository root:

    python tools/seed_sweep.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncorlicz.verify import CHECKS, SuiteConfig, run_suite  # noqa: E402

SWEEPS = ((0.05, range(100)), (1.0, range(20)))


def sweep(scale: float, seeds) -> list[str]:
    """The failures of every check at each seed, one line each."""
    failures = []
    for seed in seeds:
        cfg = SuiteConfig(seed=seed, scale=scale)
        for name in sorted(CHECKS):
            try:
                passed = run_suite(cfg, [name])["all_pass"]
            except Exception as exc:  # a check that raises fails its seed; go on
                failures.append(f"{name} seed={seed} scale={scale}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            if not passed:
                failures.append(f"{name} seed={seed} scale={scale}: failed")
    return failures


def main() -> int:
    failures = []
    for scale, seeds in SWEEPS:
        start = time.perf_counter()
        found = sweep(scale, seeds)
        print(f"scale {scale}, seeds {seeds.start}-{seeds.stop - 1}: "
              f"{len(found)} failing, {time.perf_counter() - start:.0f} s", flush=True)
        failures += found
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
