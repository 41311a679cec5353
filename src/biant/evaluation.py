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


def _edit_distances(eq: np.ndarray) -> np.ndarray:
    """Edit distance of every pair in a (B, m, n) tensor of ``a[i] == b[j]``.

    One Levenshtein row per i for all B pairs at once: substitutions and
    deletions from the row above, then insertions as a running minimum of
    ``cur[j] = min(base[j], cur[j-1] + 1)``.
    """
    b, m, n = eq.shape
    j = np.arange(n + 1)
    prev = np.broadcast_to(j, (b, n + 1))
    for i in range(1, m + 1):
        base = np.empty((b, n + 1), dtype=np.int64)
        base[:, 0] = i
        base[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + ~eq[:, i - 1])
        prev = np.minimum.accumulate(base - j, axis=1) + j
    return prev[:, n]


def _normalized_eds(cands: list, gt) -> np.ndarray:
    """(3, K) edit distances divided by |gt| of K equal-length candidates,
    on the verb, noun and action axes (the rows of AXES)."""
    if len(gt) == 0:
        raise EmptyReference("ground-truth sequence is empty")
    pred = np.array([[(a.verb, a.noun) for a in c] for c in cands], dtype=np.int64)
    ref = np.array([(a.verb, a.noun) for a in gt], dtype=np.int64)
    eq = pred.reshape(len(cands), len(cands[0]), 1, 2) == ref
    eq = np.concatenate([eq[..., 0], eq[..., 1], eq.all(axis=-1)])
    return _edit_distances(eq).reshape(3, len(cands)) / len(gt)


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


def score_instance(cands: CandidateSet, gt) -> EvalRecord:
    """Independent min over candidates per axis; winners may differ (the
    lowest candidate index wins a tie)."""
    if not cands.candidates:
        raise ConfigError("candidate set is empty")
    scores = _normalized_eds(cands.candidates, gt)
    verb, noun, action = (int(w) for w in scores.argmin(axis=1))
    return EvalRecord(
        instance_id=cands.instance_id,
        ed_verb=float(scores[0, verb]), ed_noun=float(scores[1, noun]),
        ed_action=float(scores[2, action]),
        best_verb=verb, best_noun=noun, best_action=action,
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

    records = [score_instance(candidate_fn(inst), inst.future) for inst in instances]
    config = {"gen": dataclasses.asdict(gen), "window": dataclasses.asdict(window),
              "preamble": mode}
    return EvalReport(
        records=records,
        mean_verb=float(np.mean([r.ed_verb for r in records])),
        mean_noun=float(np.mean([r.ed_noun for r in records])),
        mean_action=float(np.mean([r.ed_action for r in records])),
        config=config,
    )
