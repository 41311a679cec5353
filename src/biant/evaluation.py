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


def _record(doc) -> EvalRecord:
    """An EvalRecord from its JSON object; ParseError unless ``instance_id``
    is a string, each ``ed_*`` a number in [0, 1] and each ``best_*`` an
    int >= 0 (a bool is neither)."""
    record = EvalRecord(**doc)
    if not isinstance(record.instance_id, str):
        raise ParseError(f"instance_id must be a string, got {record.instance_id!r}")
    for axis in AXES:
        ed, best = getattr(record, f"ed_{axis}"), getattr(record, f"best_{axis}")
        if not (type(ed) in (int, float) and 0 <= ed <= 1):
            raise ParseError(f"ed_{axis} must be a number in [0, 1], got {ed!r}")
        if not (type(best) is int and best >= 0):
            raise ParseError(f"best_{axis} must be an int >= 0, got {best!r}")
    return record


@dataclass
class EvalReport:
    """Per-instance scores and a config echo; every aggregate is computed
    from the records."""

    records: list[EvalRecord]
    config: dict

    @property
    def num_instances(self) -> int:
        return len(self.records)

    @property
    def means(self) -> dict[str, float]:
        """Unweighted mean ED over the records, per axis in AXES order."""
        return {a: float(np.mean([getattr(r, f"ed_{a}") for r in self.records])) for a in AXES}

    @property
    def mean_action(self) -> float:
        return self.means[ACTION_AXIS]

    def _summary(self) -> dict:
        return {"num_instances": self.num_instances, "means": self.means}

    def to_json(self, path: str | Path) -> None:
        doc = {"config": self.config, **self._summary(),
               "records": [vars(r) for r in self.records]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "EvalReport":
        """The report in a file written by ``to_json``; ParseError unless it
        has records, each of the right types, and its stated
        ``num_instances`` and ``means`` are what those records give."""
        doc = load_json(path)
        try:
            report = cls(records=[_record(r) for r in doc["records"]],
                         config=doc.get("config", {}))
            stated = {key: doc[key] for key in ("num_instances", "means")}
        except (KeyError, TypeError, ParseError) as err:
            raise ParseError(f"{path}: bad eval report: {type(err).__name__}: {err}") from err
        if not report.records:
            raise ParseError(f"{path}: bad eval report: no records")
        # Compared as JSON text, so a bool or an int never passes for a float.
        if json.dumps(stated, sort_keys=True) != json.dumps(report._summary(), sort_keys=True):
            raise ParseError(f"{path}: bad eval report: stated {stated} differ from "
                             f"the records' {report._summary()}")
        return report

    def summary_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["num_instances", "mean_ed_verb", "mean_ed_noun", "mean_ed_action"])
            writer.writerow([self.num_instances] + [repr(m) for m in self.means.values()])


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
    return EvalReport(records=records, config=config)
