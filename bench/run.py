"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root:

    python3 bench/run.py --workload pipeline-demo --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced pass and prints the per-layer table (see BENCHMARK.json). The line
before the result holds the machine facts and the sha256 digests of the
trained parameters and eval records. Inputs derive from ``--seed`` only.
Exit codes: 0 when every output check passed, 1 when one failed, 2 when
the biant sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Training on the 660-token vocabulary is not bitwise reproducible across
# OpenBLAS thread counts (1 epoch, seed 0: parameter sha256 5a33... with one
# thread, dcc2... with two; the demo vocabulary agrees at both). One thread
# keeps the digests comparable on any machine and is no slower here.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "biant").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole operations run until this much time is used (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that exercise every path (for the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biant" / "__init__.py").is_file():
        print(f"error: biant sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and biant, after the BLAS pin

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = workloads.Run(seed=args.seed, scale=scale, work=work)
        if args.trace:
            outcome = workloads.run_traced(workload, run)
        else:
            outcome = workloads.run_untraced(workload, run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome.checks
    units = declared_units(args.trace)
    if set(units) != set(outcome.metrics):
        print(f"error: metrics {sorted(set(units) ^ set(outcome.metrics))} are not both "
              f"declared in BENCHMARK.json and measured", file=sys.stderr)
        return 1
    facts = dict(machine_facts(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, ops=outcome.ops,
                 scale="smoke" if args.smoke else "full")
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, "fields": ["name", "start", "end", "parent", "group"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.group]
                                 for s in outcome.spans]}, fh)
        facts["spans_file"] = str(spans_path.relative_to(ROOT))
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"facts": facts, "digests": outcome.digests}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
