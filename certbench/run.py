"""Certification benchmark for maxnil_lab.

    python3 certbench/run.py --workload paper-small --seed 1 --seconds 10 --trace 0

Runs cold rounds of one workload, each in a fresh Python process with
``threads=1`` and ``MAXNIL_LAB_THREADS`` removed from its environment,
until the timed regions add up to ``--seconds`` (at least one round,
always whole rounds). A few extra processes only set up, so that the
median set-up time rests on several samples. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics of a traced run with ``--trace 1``. Each metric is the
median over the run's rounds. Results and span files are written to
``certbench/results/``. See ``certbench/README.md``.
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
RESULTS = HERE / "results"
# as in workloads.py, which this process does not import: it would load the package
WORKLOADS = ("paper-small", "q13-augment", "refute-13")
# set-up-only processes per run, on top of one set-up sample per round
SETUP_SAMPLES = 3
# the whole run, set-up processes and rounds, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"certify_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class RoundFailed(Exception):
    pass


def _child(argv, env, timeout: float) -> dict:
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "round.py"), *argv, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {argv} did not end within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round {argv} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    src = ROOT / "src"
    if not (src / "maxnil_lab" / "__init__.py").is_file():
        print(f"certbench: no maxnil_lab sources under {src}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "MAXNIL_LAB_THREADS"}
    env["PYTHONPATH"] = str(src)
    RESULTS.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = [_child(base + ["--setup-only"], env, remaining())["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        rounds = []
        longest = 0.0
        while not rounds or sum(r["certify_s"] for r in rounds) < args.seconds:
            if rounds and remaining() < 1.5 * longest:
                break
            extra = []
            if args.trace:
                extra = ["--trace-out", str(RESULTS / f"spans-{tag}-round{len(rounds)}.jsonl")]
            t0 = time.monotonic()
            rounds.append(_child(base + ["--round", str(len(rounds))] + extra, env, remaining()))
            longest = max(longest, time.monotonic() - t0)
    except RoundFailed as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["problems"] + r["selftest_missed"]:
            print(f"certbench: {line}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name]["value"] for r in rounds),
                          "unit": layer["unit"]}
                   for name, layer in rounds[0]["layers"].items()}
    else:
        samples = {"certify_s": [r["certify_s"] for r in rounds],
                   "setup_s": setups + [r["setup_s"] for r in rounds],
                   "peak_rss_mib": [r["peak_rss_mib"] for r in rounds]}
        metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                   for name, values in samples.items()}
    result = {
        "correct": all(not r["selftest_missed"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({"result": result, "setup_only_s": setups, "rounds": rounds}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
