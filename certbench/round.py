"""One cold round of a benchmark workload, in a process of its own.

Started by ``run.py`` with the package on ``PYTHONPATH``; prints one JSON
line. A fresh process starts every cache of the package cold (the
refutation cache, the Petersen family, the ``lru_cache``s in ``canon``
and ``minors``), as each ``maxnil verify`` invocation does.

The round builds the workload's inputs, runs its operations back to back
(the timed region, ``certify_s``), reads the peak resident memory, and
only then checks every result and runs the self-test of the checks. With
``--trace 1`` the calls between layers are recorded as spans and the
round reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0, help="index of this round in its run")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are ready and report set-up time")
    ap.add_argument("--trace-out", help="trace this round and write its spans here")
    args = ap.parse_args()

    from workloads import build, selftest_problems

    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
    ops = build(args.workload, args.seed, args.round,
                tracer.span if tracer else lambda _label: nullcontext())
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.install()
    results = []
    op_ends = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append((op.run(), None))
        except Exception as exc:  # an operation that raises counts as failed
            results.append((None, f"{op.name}: {type(exc).__name__}: {exc}"))
        op_ends.append(time.perf_counter())
    certify_s = op_ends[-1] - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    problems = []
    failed = 0
    for op, (result, error) in zip(ops, results):
        if error is None:
            try:
                found = op.check(result)
            except Exception as exc:
                found = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        failed += bool(found)
        problems += found
    missed = selftest_problems()
    out = {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "selftest_missed": missed,
        "setup_s": setup_s,
        "certify_s": certify_s,
        "peak_rss_mib": peak_rss_mib,
        "op_s": {op.name: end - begin
                 for op, begin, end in zip(ops, [start] + op_ends, op_ends)},
    }
    if tracer:
        from spans import METRICS
        out["layers"] = {name: {"value": value, "unit": METRICS[name]}
                         for name, value in tracer.summary(certify_s).items()}
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
