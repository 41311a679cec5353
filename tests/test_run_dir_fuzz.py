"""Corrupted run-directory files end in a documented exit code (0, 2 or 3),
never in an exception that escapes ``cli.main``.

Each case copies one small pipeline run, corrupts one file by truncating it,
flipping bytes or swapping one JSON value for a value of another JSON type,
and runs a command that reads that file. A type swap under a part of the
file that its reader checks must exit 3. The cases are drawn from a fixed
seed, so a failure reproduces.
"""

import contextlib
import io
import json
import shutil
import traceback

import numpy as np
import pytest

from biant.cli import main

from conftest import SMALL_CONFIG

# Each run-directory file and the commands that read it.
READERS = {
    "corpus.json": ("train", "eval"),
    "corpus_meta.json": ("train", "eval"),
    "checkpoint.json": ("eval",),
    "eval_report.json": ("report",),
    "train_log.csv": ("report",),
}
CASES_PER_FILE = 40

# Top-level keys whose every value the reader checks, so a swapped type exits 3.
CHECKED_KEYS = {
    "eval_report.json": {"means", "num_instances", "records"},
    "checkpoint.json": {"version", "model_config", "arrays"},
}

# One value of each JSON type; a swap picks one whose type differs.
JSON_VALUES = (None, True, 0, "x", [], {})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


# Each corruption returns the corrupted bytes and the top-level key it
# changed, or None when it changed bytes rather than a value.
def _truncate(data: bytes, rng) -> tuple[bytes, None]:
    return data[: rng.integers(len(data))], None


def _flip_bytes(data: bytes, rng) -> tuple[bytes, None]:
    out = bytearray(data)
    for i in rng.integers(len(out), size=rng.integers(1, 4)):
        out[i] ^= int(rng.integers(1, 256))
    return bytes(out), None


def _swap_type(data: bytes, rng) -> tuple[bytes, str]:
    """Walk down from the root along random keys and indices to a scalar or
    an empty container, and replace it with a value of another JSON type."""
    doc = json.loads(data)
    parent, key, path = None, None, []
    node = doc
    while isinstance(node, (dict, list)) and node:
        parent, key = node, (list(node)[rng.integers(len(node))] if isinstance(node, dict)
                             else int(rng.integers(len(node))))
        node = parent[key]
        path.append(key)
    others = [v for v in JSON_VALUES if _json_type(v) != _json_type(node)]
    parent[key] = others[rng.integers(len(others))]
    return json.dumps(doc).encode("utf-8"), path[0]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A complete gen-data -> train -> eval run directory and its config."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "run"
    for command in ("gen-data", "train", "eval"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


@pytest.mark.parametrize("name", list(READERS))
def test_corrupted_run_dir_file_exits_cleanly(pristine, tmp_path, name):
    cfg_path, out = pristine
    data = (out / name).read_bytes()
    corruptions = [_truncate, _flip_bytes] + ([_swap_type] if name.endswith(".json") else [])
    rng = np.random.default_rng(list(READERS).index(name))
    escaped, codes = [], []
    for i in range(CASES_PER_FILE):
        corrupt = corruptions[i % len(corruptions)]
        command = READERS[name][rng.integers(len(READERS[name]))]
        case = tmp_path / f"case{i}"
        shutil.copytree(out, case)
        corrupted, top_key = corrupt(data, rng)
        (case / name).write_bytes(corrupted)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(cfg_path), "--out", str(case)])
        except Exception:  # the test is that nothing escapes main
            escaped.append(f"case {i} ({corrupt.__name__}, {command}): "
                           + traceback.format_exc(limit=-3))
            continue
        codes.append(code)
        assert code in (0, 2, 3), f"case {i} ({corrupt.__name__}, {command}): exit {code}"
        if top_key in CHECKED_KEYS.get(name, ()):
            assert code == 3, f"case {i} ({corrupt.__name__} under {top_key!r}): exit {code}"
    assert not escaped, "\n".join(escaped)
    assert 3 in codes  # the corruptions reach the checks, not only harmless bytes
