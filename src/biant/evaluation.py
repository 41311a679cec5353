"""Edit-distance evaluation.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyReference, EmptyTestSet, ParseError, load_json
from .generate import CandidateSet, GenerationConfig, generate_candidates
from .model import Parameters
from .prompt import TokenSpace
from .sequence import (
    ACTION_AXIS,
    NOUN_AXIS,
    VERB_AXIS,
    AnnotatedVideo,
    WindowConfig,
    make_forward_instances,
)

AXES = (VERB_AXIS, NOUN_AXIS, ACTION_AXIS)


@dataclass
class EdConfig:
    """Edit-distance variant knobs; the default is plain Levenshtein."""

    allow_transpositions: bool = False


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
    """Edit distance on one axis, divided by |gt|."""
    if len(gt) == 0:
        raise EmptyReference("ground-truth sequence is empty")
    return edit_distance(_axis_ids(pred, axis), _axis_ids(gt, axis), cfg) / len(gt)


@dataclass
class EvalRecord:
    """Per-axis minima over one instance's candidates, with the winning
    candidate index per axis."""

    instance_id: str
    ed_verb: float
    ed_noun: float
    ed_action: float
    best_verb: int
    best_noun: int
    best_action: int


def score_instance(cands: CandidateSet, gt, cfg: EdConfig | None = None) -> EvalRecord:
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
    return EvalRecord(
        instance_id=cands.instance_id,
        ed_verb=values[VERB_AXIS], ed_noun=values[NOUN_AXIS], ed_action=values[ACTION_AXIS],
        best_verb=winners[VERB_AXIS], best_noun=winners[NOUN_AXIS],
        best_action=winners[ACTION_AXIS],
    )


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

    records = [score_instance(candidate_fn(inst), inst.future, cfg) for inst in instances]
    config = {"ed": dataclasses.asdict(cfg), "gen": dataclasses.asdict(gen),
              "window": dataclasses.asdict(window), "preamble": mode}
    return EvalReport(
        records=records,
        mean_verb=float(np.mean([r.ed_verb for r in records])),
        mean_noun=float(np.mean([r.ed_noun for r in records])),
        mean_action=float(np.mean([r.ed_action for r in records])),
        config=config,
    )
