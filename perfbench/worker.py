"""One benchmark process: set up a workload, then stop, time it or trace it.

Set-up runs from process start to the first timed operation: importing
ncorlicz (and with it numpy and scipy), generating and writing the inputs,
and a warm-up pass over a few operations of each kind. The timed phase runs
whole rounds until ``--seconds`` of rounds have passed and enough operations
were timed. Outputs are checked after each round, outside the timing. The
last line of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class Tally:
    """Outcomes of the operations of a run."""

    def __init__(self):
        self.times: list[float] = []      # every operation
        self.latencies: list[float] = []  # operations that succeeded
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.wrong: list[str] = []


def run_rounds(workload, seconds: float, tally: Tally, min_ops: int,
               tracer=None) -> list[float]:
    """Run whole rounds until ``seconds`` of them and ``min_ops`` operations.

    Returns the wall time of each round; outcomes go to ``tally``.
    """
    ops = workload.ops
    rounds: list[float] = []
    timed = 0.0
    clock = time.perf_counter
    while True:
        outcomes = []
        start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is data, not a crash
                out, err = None, exc
            outcomes.append((out, err, clock() - t))
        elapsed = clock() - start
        rounds.append(elapsed)
        timed += elapsed
        for op, (out, err, dt) in zip(ops, outcomes):
            tally.attempted += 1
            good = False
            if err is None:
                try:
                    good = bool(op.check(out))
                except Exception:  # an output the check cannot read is wrong
                    pass
            tally.times.append(dt)
            if good:
                tally.latencies.append(dt)
            elif err is not None or op.known_fault:
                tally.failed += 1
                tally.failures[op.name] = type(err).__name__ if err else "wrong value"
            else:
                tally.wrong.append(op.name)
        if timed >= seconds and len(rounds) * len(ops) >= min_ops:
            return rounds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args()

    import metrics
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in wl.warmup:
            try:
                op.run()
            except Exception:  # counted when the timed phase runs it again
                pass
        setup_s = time.monotonic() - args.spawned
        result = {"setup_s": setup_s}
        tally = Tally()
        if args.mode == "measure":
            rounds = run_rounds(wl, args.seconds, tally, wl.min_ops)
            # percentiles of the successful operations, or of all of them
            # when none succeeded
            result.update(metrics=metrics.end_to_end(
                [setup_s], rounds, tally.latencies or tally.times,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        elif args.mode == "trace":
            from tracer import Tracer, install

            # half the time untraced, half traced; the traced run reports no
            # percentiles, so one round in each half will do
            plain = run_rounds(wl, args.seconds / 2.0, tally, 0)
            tracer = Tracer()
            install(tracer)
            traced = run_rounds(wl, args.seconds / 2.0, tally, 0, tracer)
            tracer.save(args.trace_file)
            overhead = statistics.median(traced) / statistics.median(plain)
            result.update(metrics=metrics.per_layer(
                tracer.totals(), tracer.nested, len(traced), overhead))
        if args.mode != "setup":
            result.update(attempted=tally.attempted, failed=tally.failed,
                          failures=tally.failures, wrong=tally.wrong,
                          timed_ops=len(tally.latencies))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
