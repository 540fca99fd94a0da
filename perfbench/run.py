"""Run one benchmark workload against ncorlicz and print its metrics.

    python3 perfbench/run.py --workload norm_requests --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/ncorlicz``. Each workload
runs in fresh processes with one caller and no added threads: set-up is
measured in SETUP_PROCESSES processes and reported as their median, and the
last of them goes on to the timed phase (``--trace 0``) or to the traced run
(``--trace 1``). BLAS is held to one thread in every process. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is nonzero, with no such line, when the
program cannot be found or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify_suite", "norm_requests", "regularity_requests", "compose_requests")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0

# OpenBLAS starts one thread per core at import unless told otherwise; the
# workloads multiply matrices of at most 5x5, so one thread is both faster
# to start and free of contention on a small machine.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, args, index: int, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise ChildFailed("out of time before the last process could start")
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir),
           "--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.npz")]
    env = dict(os.environ, **ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ncorlicz" / "__init__.py").is_file():
        print(f"perfbench: no ncorlicz package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [_child("setup", args, i, started)["setup_s"]
                                        for i in range(SETUP_PROCESSES - 1)]
        last = _child("trace" if args.trace else "measure", args,
                      SETUP_PROCESSES - 1, started)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = last["metrics"]
    if not args.trace:
        setups.append(last["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for name in sorted(set(last["wrong"])):
        print(f"perfbench: wrong output from {name}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={ENV['OPENBLAS_NUM_THREADS']} timed_ops={last['timed_ops']} "
          f"failures={json.dumps(last['failures'], sort_keys=True)}")
    print(json.dumps({"correct": not last["wrong"], "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
