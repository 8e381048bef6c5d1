"""Smoke test of the benchmark's gated workloads, run in-process.

``certbench/run.py`` counts an operation that raises, or whose checks
report a problem, as failed, and a run whose self-test misses a
corruption as incorrect. Round 0 of each gated workload runs here with
the same operations and checks, so a change that would fail the
benchmark's correctness gate fails the test suite first.
"""

import importlib
from pathlib import Path

import pytest

CERTBENCH = Path(__file__).resolve().parent.parent / "certbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(CERTBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["paper-small", "refute-13"])
def test_round_zero_of_a_gated_workload_passes_its_checks(workloads, name):
    ops = workloads.build(name, seed=1, round_index=0)
    assert ops
    problems = []
    for op in ops:
        problems += op.check(op.run())
    assert problems == []
    assert workloads.selftest_problems() == []
