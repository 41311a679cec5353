"""Edit-distance evaluation and the ablation harness.

Scoring protocol: decode K candidate futures per test instance, project
prediction and ground truth onto the verb / noun / action axes, and take
the minimum normalized edit distance over candidates independently per
axis. Aggregates are unweighted means over instances in sorted-id order.

The action axis compares (verb, noun) pairs by equality, which gives the
same distances as any injective composite id encoding.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyReference, EmptyTestSet, ParseError, load_json
from .generate import CandidateSet, GenerationConfig, generate_candidates
from .model import LossWeights, ModelConfig, Parameters
from .prompt import DETAILED_DESCRIPTION, SPECIAL_TOKEN, TokenSpace
from .sequence import (
    ACTION_AXIS,
    NOUN_AXIS,
    VERB_AXIS,
    AnnotatedVideo,
    WindowConfig,
    make_forward_instances,
)
from .train import TrainConfig, train

AXES = (VERB_AXIS, NOUN_AXIS, ACTION_AXIS)

BY_Z = "by_z"
BY_MAX_LEN = "by_max_len"
NORMALIZERS = (BY_Z, BY_MAX_LEN)


@dataclass
class EdConfig:
    """Edit-distance variant knobs; defaults are plain Levenshtein / Z."""

    allow_transpositions: bool = False
    normalizer: str = BY_Z

    def __post_init__(self) -> None:
        if self.normalizer not in NORMALIZERS:
            raise ConfigError(f"unknown normalizer: {self.normalizer!r}")


def edit_distance(a, b, cfg: EdConfig | None = None) -> int:
    """Minimum insert/delete/substitute count turning a into b.

    Adjacent transpositions also cost 1 when cfg.allow_transpositions
    (optimal string alignment variant).
    """
    cfg = cfg or EdConfig()
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    prev_prev: list[int] | None = None
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (cfg.allow_transpositions and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                best = min(best, prev_prev[j - 2] + 1)
            cur[j] = best
        prev_prev = prev
        prev = cur
    return prev[len(b)]


def _axis_ids(seq, axis: str) -> list:
    if axis == VERB_AXIS:
        return [a.verb for a in seq]
    if axis == NOUN_AXIS:
        return [a.noun for a in seq]
    if axis == ACTION_AXIS:
        return [(a.verb, a.noun) for a in seq]
    raise ConfigError(f"unknown scoring axis: {axis!r}")


def normalized_ed(pred, gt, axis: str, cfg: EdConfig | None = None) -> float:
    """Edit distance on one axis, divided by |gt| (or max length per cfg)."""
    cfg = cfg or EdConfig()
    if len(gt) == 0:
        raise EmptyReference("ground-truth sequence is empty")
    dist = edit_distance(_axis_ids(pred, axis), _axis_ids(gt, axis), cfg)
    denom = len(gt) if cfg.normalizer == BY_Z else max(len(pred), len(gt))
    return dist / denom


@dataclass
class InstanceScore:
    """Per-axis minima over candidates, with the winning candidate index."""

    ed_verb: float
    ed_noun: float
    ed_action: float
    best_verb: int
    best_noun: int
    best_action: int

    def value(self, axis: str) -> float:
        return {VERB_AXIS: self.ed_verb, NOUN_AXIS: self.ed_noun,
                ACTION_AXIS: self.ed_action}[axis]


def score_instance(cands: CandidateSet, gt, cfg: EdConfig | None = None) -> InstanceScore:
    """Independent min over candidates per axis; winners may differ."""
    if not cands.candidates:
        raise ConfigError("candidate set is empty")
    cfg = cfg or EdConfig()
    values: dict[str, float] = {}
    winners: dict[str, int] = {}
    for axis in AXES:
        scores = [normalized_ed(c, gt, axis, cfg) for c in cands.candidates]
        winners[axis] = int(np.argmin(scores))
        values[axis] = scores[winners[axis]]
    return InstanceScore(
        ed_verb=values[VERB_AXIS], ed_noun=values[NOUN_AXIS], ed_action=values[ACTION_AXIS],
        best_verb=winners[VERB_AXIS], best_noun=winners[NOUN_AXIS],
        best_action=winners[ACTION_AXIS],
    )


@dataclass
class EvalRecord:
    instance_id: str
    ed_verb: float
    ed_noun: float
    ed_action: float
    best_verb: int
    best_noun: int
    best_action: int


@dataclass
class EvalReport:
    """Per-instance scores plus their unweighted means and a config echo."""

    records: list[EvalRecord]
    mean_verb: float
    mean_noun: float
    mean_action: float
    config: dict

    @property
    def num_instances(self) -> int:
        return len(self.records)

    def to_json(self, path: str | Path) -> None:
        doc = {
            "config": self.config,
            "num_instances": self.num_instances,
            "means": {"verb": self.mean_verb, "noun": self.mean_noun,
                      "action": self.mean_action},
            "records": [vars(r) for r in self.records],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "EvalReport":
        doc = load_json(path)
        try:
            means = doc["means"]
            return cls(records=[EvalRecord(**r) for r in doc["records"]],
                       mean_verb=float(means["verb"]), mean_noun=float(means["noun"]),
                       mean_action=float(means["action"]), config=doc.get("config", {}))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{path}: bad eval report: {type(err).__name__}: {err}") from err

    def summary_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["num_instances", "mean_ed_verb", "mean_ed_noun", "mean_ed_action"])
            writer.writerow([self.num_instances, repr(self.mean_verb),
                             repr(self.mean_noun), repr(self.mean_action)])


def evaluate(
    params: Parameters,
    space: TokenSpace,
    test_videos: list[AnnotatedVideo],
    window: WindowConfig,
    gen: GenerationConfig,
    cfg: EdConfig,
    mode: str,
    candidate_fn=None,
) -> EvalReport:
    """Score every test window; candidate_fn is injectable for oracle tests."""
    instances = []
    for video in test_videos:
        instances.extend(make_forward_instances(video, window))
    if not instances:
        raise EmptyTestSet("no evaluable windows in the test videos")
    instances.sort(key=lambda inst: inst.instance_id)

    if candidate_fn is None:
        def candidate_fn(inst):
            return generate_candidates(params, space, inst.observed, window.z_fwd,
                                       gen, mode, instance_id=inst.instance_id)

    records = []
    for inst in instances:
        score = score_instance(candidate_fn(inst), inst.future, cfg)
        records.append(EvalRecord(instance_id=inst.instance_id, **vars(score)))
    config = {"ed": dataclasses.asdict(cfg), "gen": dataclasses.asdict(gen),
              "window": dataclasses.asdict(window), "preamble": mode}
    return EvalReport(
        records=records,
        mean_verb=float(np.mean([r.ed_verb for r in records])),
        mean_noun=float(np.mean([r.ed_noun for r in records])),
        mean_action=float(np.mean([r.ed_action for r in records])),
        config=config,
    )


OBS_INTERVAL = "obs_interval"
LOSS_WEIGHTS = "loss_weights"
TOKEN_TYPE = "token_type"

ABLATION_GRIDS: dict[str, list] = {
    OBS_INTERVAL: [4, 8, 16, 24],
    LOSS_WEIGHTS: [(1.0, 0.5), (1.0, 0.75), (1.0, 1.0)],
    TOKEN_TYPE: [DETAILED_DESCRIPTION, SPECIAL_TOKEN],
}


@dataclass
class AblationRow:
    label: str
    mean: dict[str, float]
    std: dict[str, float]


@dataclass
class AblationTable:
    """One ablation layout: rows = grid cells, columns = per-axis mean/std."""

    grid: str
    seeds: list[int]
    rows: list[AblationRow] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([self.grid, "verb_mean", "verb_std", "noun_mean", "noun_std",
                             "action_mean", "action_std"])
            for row in self.rows:
                writer.writerow([row.label] + [
                    repr(row.mean[a]) if kind == "mean" else repr(row.std[a])
                    for a in AXES for kind in ("mean", "std")
                ])

    def render(self) -> str:
        """Aligned text table, one row per cell, mean+-std per axis."""
        header = [self.grid, "verb", "noun", "action"]
        lines = [[row.label] + [f"{row.mean[a]:.3f}+-{row.std[a]:.3f}" for a in AXES]
                 for row in self.rows]
        widths = [max(len(r[c]) for r in [header] + lines) for c in range(4)]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        out.extend("  ".join(v.ljust(w) for v, w in zip(line, widths)) for line in lines)
        return "\n".join(out)


def _cell_label(grid: str, value) -> str:
    if grid == LOSS_WEIGHTS:
        return f"alpha={value[0]:g} beta={value[1]:g}"
    return str(value)


def _cell_train_cfg(grid: str, value, base: TrainConfig) -> TrainConfig:
    if grid == OBS_INTERVAL:
        window = dataclasses.replace(base.window, n_obs_bwd=value)
        return dataclasses.replace(base, window=window)
    if grid == LOSS_WEIGHTS:
        return dataclasses.replace(base, weights=LossWeights(*value))
    if grid == TOKEN_TYPE:
        return dataclasses.replace(base, preamble=value)
    raise ConfigError(f"unknown ablation grid: {grid!r}")


def _run_cell(args) -> tuple[str, int, tuple[float, float, float]]:
    (grid, value, base, model_cfg, space, train_videos, test_videos,
     eval_window, gen, ed_cfg, seed) = args
    cfg = _cell_train_cfg(grid, value, base)
    cfg = dataclasses.replace(cfg, seed=seed)
    model_cfg = dataclasses.replace(model_cfg, seed=seed + 1)
    params, _ = train(train_videos, cfg, model_cfg, space)
    gen = dataclasses.replace(gen, seed=seed + 2)
    report = evaluate(params, space, test_videos, eval_window, gen, ed_cfg, cfg.preamble)
    return _cell_label(grid, value), seed, (report.mean_verb, report.mean_noun,
                                            report.mean_action)


def run_ablation(
    grid: str,
    base: TrainConfig,
    model_cfg: ModelConfig,
    space: TokenSpace,
    train_videos: list[AnnotatedVideo],
    test_videos: list[AnnotatedVideo],
    seeds: list[int],
    eval_window: WindowConfig | None = None,
    gen: GenerationConfig | None = None,
    ed_cfg: EdConfig | None = None,
    values: list | None = None,
    max_workers: int = 1,
) -> AblationTable:
    """Train + evaluate one model per grid cell per seed; aggregate a table."""
    if grid not in ABLATION_GRIDS:
        raise ConfigError(f"unknown ablation grid: {grid!r} (one of {sorted(ABLATION_GRIDS)})")
    if not seeds:
        raise ConfigError("need at least one seed")
    values = ABLATION_GRIDS[grid] if values is None else values
    if not values:
        raise ConfigError("ablation grid has no cells")
    eval_window = eval_window or base.window
    gen = gen or GenerationConfig()
    ed_cfg = ed_cfg or EdConfig()

    jobs = [(grid, value, base, model_cfg, space, train_videos, test_videos,
             eval_window, gen, ed_cfg, seed)
            for value in values for seed in seeds]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]

    by_label: dict[str, list[tuple[float, float, float]]] = {}
    for label, _seed, means in results:
        by_label.setdefault(label, []).append(means)
    table = AblationTable(grid=grid, seeds=list(seeds))
    for value in values:
        label = _cell_label(grid, value)
        arr = np.asarray(by_label[label])
        table.rows.append(AblationRow(
            label=label,
            mean={a: float(arr[:, i].mean()) for i, a in enumerate(AXES)},
            std={a: float(arr[:, i].std()) for i, a in enumerate(AXES)},
        ))
    return table
