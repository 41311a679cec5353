"""The benchmark looks biant functions up by name; a rename or deletion must
fail here, in the default test run, and not first in a benchmark run."""

import sys
from pathlib import Path

from biant.config import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def test_benchmark_wraps_names_that_exist():
    wrapped = [(t.module, t.attr) for t in workloads.trace_targets()]
    wrapped += [(mod, attr) for mod, attr, _ in workloads.Probe.TARGETS.values()]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in wrapped if not hasattr(mod, attr)]
    assert not missing, missing


def test_benchmark_warm_up_runs():
    workloads.warm_up(RunConfig())
