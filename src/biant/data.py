"""Synthetic corpus with planted long-range scene structure, plus I/O.

Each video draws a latent scene type. Its early third repeats motifs
specific to that scene, the middle third mixes in shared motifs at
noise_rate, and the late third returns to the scene's motifs with
probability `coupling`. The late interval therefore carries scene
information that also governs the early interval, which is exactly the
signal a reversed-sequence prediction task can exploit and a forward-only
one never sees. coupling=0 removes that signal as a control.

Annotation files are a JSON array of {"id", "segments": [{"verb","noun"}]}
with text labels resolved against a vocabulary on load.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InsufficientVocabulary, ParseError, UnknownLabel, load_json
from .sequence import AnnotatedVideo
from .vocab import ActionLabel, Vocabulary

TRAIN_FRACTION = 0.7
VAL_FRACTION = 0.1
# Motif layout: NUM_SCENE_TYPES scenes of MOTIFS_PER_SCENE motifs each, plus
# one shared set of as many; motif lengths are drawn from MOTIF_LEN_RANGE.
NUM_SCENE_TYPES = 4
MOTIFS_PER_SCENE = 3
MOTIF_LEN_RANGE = (2, 4)


@dataclass
class ScenarioConfig:
    """Knobs for the planted-structure generator."""

    video_len: int = 40
    num_videos: int = 200
    coupling: float = 0.8
    noise_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_videos, self.video_len) < 1:
            raise ConfigError("counts must be >= 1")
        if not (0.0 <= self.coupling <= 1.0 and 0.0 <= self.noise_rate <= 1.0):
            raise ConfigError("coupling and noise_rate must be in [0, 1]")


@dataclass
class SyntheticCorpus:
    """Videos plus the index-disjoint 70/10/20 split and sanity metrics."""

    videos: list[AnnotatedVideo]
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]
    sanity: dict[str, float]
    motifs: dict = field(default_factory=dict, repr=False)

    def _subset(self, ids: list[str]) -> list[AnnotatedVideo]:
        members = set(ids)
        return [v for v in self.videos if v.id in members]

    @property
    def train(self) -> list[AnnotatedVideo]:
        return self._subset(self.train_ids)

    @property
    def test(self) -> list[AnnotatedVideo]:
        return self._subset(self.test_ids)


def _draw_motifs(vocab: Vocabulary, rng: np.random.Generator):
    """Disjoint motifs: scene sets plus one shared set, from one shuffle."""
    num_motifs = MOTIFS_PER_SCENE * (NUM_SCENE_TYPES + 1)
    lengths = rng.integers(MOTIF_LEN_RANGE[0], MOTIF_LEN_RANGE[1] + 1, num_motifs)
    pool_size = vocab.num_verbs * vocab.num_nouns
    if int(lengths.sum()) > pool_size:
        raise InsufficientVocabulary(
            f"need {int(lengths.sum())} distinct actions for {num_motifs} motifs, "
            f"vocabulary offers {pool_size}"
        )
    pool = rng.permutation(pool_size)
    motifs = []
    start = 0
    for n in lengths:
        ids = pool[start : start + int(n)]
        motifs.append(tuple(ActionLabel(int(i) // vocab.num_nouns, int(i) % vocab.num_nouns)
                            for i in ids))
        start += int(n)
    scene_motifs = [motifs[s * MOTIFS_PER_SCENE : (s + 1) * MOTIFS_PER_SCENE]
                    for s in range(NUM_SCENE_TYPES)]
    shared_motifs = motifs[NUM_SCENE_TYPES * MOTIFS_PER_SCENE :]
    return scene_motifs, shared_motifs


def _build_video(index, scene, scene_motifs, shared_motifs, cfg, rng) -> AnnotatedVideo:
    segments: list[ActionLabel] = []
    third = cfg.video_len / 3.0
    own = scene_motifs[scene]
    while len(segments) < cfg.video_len:
        at = len(segments)
        if at < third:
            pick = own
        elif at < 2 * third:
            pick = shared_motifs if rng.random() < cfg.noise_rate else own
        else:
            pick = own if rng.random() < cfg.coupling else shared_motifs
        segments.extend(pick[rng.integers(len(pick))])
    return AnnotatedVideo(id=f"vid{index:04d}", segments=tuple(segments[: cfg.video_len]))


def generate_corpus(vocab: Vocabulary, cfg: ScenarioConfig) -> SyntheticCorpus:
    """Deterministic corpus with per-video RNG streams and a 70/10/20 split."""
    motif_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    scene_motifs, shared_motifs = _draw_motifs(vocab, motif_rng)
    scene_actions = [{a for motif in motifs for a in motif} for motifs in scene_motifs]
    late_start = 2 * (cfg.video_len // 3)
    videos = []
    agreements = []  # per video: share of late-third actions from its own scene
    for i in range(cfg.num_videos):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, i]))
        scene = int(rng.integers(NUM_SCENE_TYPES))
        video = _build_video(i, scene, scene_motifs, shared_motifs, cfg, rng)
        late = video.segments[late_start:]
        agreements.append(sum(a in scene_actions[scene] for a in late) / len(late))
        videos.append(video)
    n_train = int(TRAIN_FRACTION * cfg.num_videos)
    n_val = int(VAL_FRACTION * cfg.num_videos)
    ids = [v.id for v in videos]
    sanity = {"early_late_agreement": float(np.mean(agreements))}
    return SyntheticCorpus(
        videos=videos,
        train_ids=ids[:n_train],
        val_ids=ids[n_train : n_train + n_val],
        test_ids=ids[n_train + n_val :],
        sanity=sanity,
        motifs={"scene": scene_motifs, "shared": shared_motifs},
    )


def save_annotations(videos: list[AnnotatedVideo], vocab: Vocabulary, path: str | Path) -> None:
    doc = [
        {
            "id": v.id,
            "segments": [
                {"verb": vocab.verbs[a.verb], "noun": vocab.nouns[a.noun]} for a in v.segments
            ],
        }
        for v in videos
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_annotations(path: str | Path, vocab: Vocabulary) -> list[AnnotatedVideo]:
    """Parse the annotation array; label text is resolved to indices."""
    doc = load_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON array of videos")
    videos = []
    for vi, entry in enumerate(doc):
        if not isinstance(entry, dict) or "id" not in entry or "segments" not in entry:
            raise ParseError(f"{path}: video #{vi} needs 'id' and 'segments'")
        vid = entry["id"]
        if not isinstance(entry["segments"], list):
            raise ParseError(f"{path}: video {vid!r} 'segments' must be an array")
        segments = []
        for si, seg in enumerate(entry["segments"]):
            if not isinstance(seg, dict) or "verb" not in seg or "noun" not in seg:
                raise ParseError(f"{path}: video {vid!r} segment #{si} needs 'verb' and 'noun'")
            try:
                segments.append(ActionLabel(vocab.verb_index(str(seg["verb"])),
                                            vocab.noun_index(str(seg["noun"]))))
            except UnknownLabel as err:
                raise UnknownLabel(f"video {vid!r} segment #{si}: {err}") from err
        videos.append(AnnotatedVideo(id=str(vid), segments=tuple(segments)))
    return videos


def save_corpus_meta(corpus: SyntheticCorpus, path: str | Path) -> None:
    doc = {
        "split": {"train": corpus.train_ids, "val": corpus.val_ids, "test": corpus.test_ids},
        "sanity": corpus.sanity,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_corpus(annotations_path: str | Path, meta_path: str | Path,
                vocab: Vocabulary) -> SyntheticCorpus:
    """Rebuild a corpus from its annotation file and metadata sidecar. Each
    split is an array of video ids; every id must name exactly one video,
    and no id may be listed twice."""
    videos = load_annotations(annotations_path, vocab)
    meta = load_json(meta_path)
    try:
        split = meta["split"]
        ids = {name: split[name] for name in ("train", "val", "test")}
        for name, value in ids.items():
            if not (isinstance(value, list) and all(isinstance(i, str) for i in value)):
                raise ParseError(f"{meta_path}: split {name!r} must be an array of "
                                 f"video id strings, got {value!r:.60}")
        corpus = SyntheticCorpus(
            videos=videos,
            train_ids=ids["train"],
            val_ids=ids["val"],
            test_ids=ids["test"],
            sanity=dict(meta.get("sanity", {})),
        )
        listed = Counter(corpus.train_ids + corpus.val_ids + corpus.test_ids)
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{meta_path}: bad corpus metadata: {type(err).__name__}: {err}") from err
    per_id = Counter(v.id for v in videos)
    bad = sorted(i for i, n in listed.items() if n > 1 or per_id[i] != 1)
    if bad:
        raise ParseError(f"{meta_path}: each split id must be listed once and name one "
                         f"video of {annotations_path}: {bad}")
    return corpus
