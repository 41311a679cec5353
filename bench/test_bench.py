"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Target, Tracer, percentile, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0"),
        Span("a", 1.0, 4.0, 0, "op0"),
        Span("b", 5.0, 9.0, 0, "op0"),
        Span("b.child", 6.0, 7.0, 2, "op0"),
        Span("b.late", 8.5, 9.5, 2, "op0"),  # ends after its parent: clipped to 8.5..9
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 1.0])
    # In a properly nested tree the self times add up to the root's duration.
    assert sum(self_times(spans[:4])) == pytest.approx(spans[0].duration)


def test_tracer_records_parents_and_groups_and_restores_the_original():
    def leaf(x):
        return x + 1

    mod = types.SimpleNamespace(leaf=leaf)
    mod.outer = lambda batch: [mod.leaf(x) for x in batch]
    tracer = Tracer()
    targets = [Target(mod, "outer", "outer", group=lambda a, k: f"batch{len(a[0])}",
                      count=lambda a, k, r: {"items": len(r)}),
               Target(mod, "leaf", "leaf")]
    with tracer.traced(targets), tracer.span("bench.op", "op0"):
        assert mod.outer([1, 2]) == [2, 3]
    assert mod.leaf is leaf
    names = [(s.name, s.parent, s.group) for s in tracer.spans]
    assert names == [("bench.op", -1, "op0"), ("outer", 0, "op0/batch2"),
                     ("leaf", 1, "op0/batch2"), ("leaf", 1, "op0/batch2")]
    assert tracer.counts == {"items": 2}
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([], 50) == 0.0


def test_metric_names_units_and_bounds_follow_the_format():
    doc = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert set(workloads.SELF_TIME.values()) | set(workloads.COUNTS) <= per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_size_emits_every_named_metric(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines[-2]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    facts = json.loads(lines[-2])["facts"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads_pinned", "git_commit"} <= set(facts)
    if trace:
        layers = sum(v for k, v in values.items()
                     if k in workloads.SELF_TIME.values())
        assert layers + values["bench.unspanned_s"] == pytest.approx(values["bench.traced_wall_s"])
        assert values["model.gradient_calls"] > 0 and values["model.decode_forward_calls"] > 0
    else:
        assert all(v > 0 for v in values.values()), values


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline-demo",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
