"""Golden numbers: values that move only when the program's floats move.

``golden.json`` holds test_06's per-seed action EDs (forward-only and
bidirectional, master seeds 0-4) and the sha256 of three artifacts of one
seed-0 ``gen-data -> train -> eval`` run on test_08's config, made in a
subprocess with one OpenBLAS thread. It also records the numpy version and
BLAS build they were made with, so a mismatch on another build says so.

After a change that moves floats, rewrite the file from the repository root
with

    PYTHONPATH=src python tests/golden.py

and list the old and new values in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from biant.cli import LOSS_WEIGHTS, run_ablation
from biant.config import RunConfig
from biant.evaluation import AXES
from biant.sequence import ACTION_AXIS, WindowConfig

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

# test_08's config; the golden run uses the default master seed 0.
PIPELINE_CONFIG = {
    "eval_stride": 13,
    "scenario": {"num_videos": 12, "video_len": 30},
    "window": {"stride": 6},
    "train": {"epochs": 1, "batch_size": 16},
    "model": {"embed_dim": 8, "mlp_hidden": 12},
    "gen": {"k": 2},
}
DIGESTED = ("corpus.json", "checkpoint.json", "eval_report.json")

# test_06's two cells, labelled by their keys in golden.json.
DIRECTION_CELLS = {"forward_only": {"beta": 0.0}, "bidirectional": {"beta": 1.0}}

_PIPELINE = """
import sys
from biant.cli import main
for command in ("gen-data", "train", "eval"):
    code = main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    assert code == 0, f"{command} exited {code}"
"""


def build() -> dict[str, str]:
    """The numpy version and the BLAS library numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def pipeline_digests() -> dict[str, str]:
    """sha256 of each DIGESTED artifact of one seed-0 pipeline run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(PIPELINE_CONFIG))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", _PIPELINE, str(cfg), str(out)], env=env,
                       capture_output=True, text=True, timeout=300, check=True)
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTED}


def direction_eds() -> dict[str, list[float]]:
    """test_06's mean action ED per master seed, forward-only and bidirectional."""
    cfg = RunConfig(eval_stride=13, epochs=8, window=WindowConfig(stride=6))
    rows = run_ablation(LOSS_WEIGHTS, cfg, seeds=range(5), cells=DIRECTION_CELLS).rows
    action = AXES.index(ACTION_AXIS)
    return {label: [s[action] for s in per_seed] for label, per_seed in rows.items()}


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def mismatch(what: str, got, expected) -> str:
    """Name what differs from the golden file, and the build if that differs too."""
    message = f"{what}: got {got}, golden {expected}"
    made_with, running = load()["build"], build()
    if made_with != running:
        message += f" (golden made with {made_with}, running {running})"
    return message


if __name__ == "__main__":
    doc = {"build": build(), "direction_eds": direction_eds(),
           "pipeline_sha256": pipeline_digests()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
