import itertools
import json
import re

import pytest

from biant.data import (
    ScenarioConfig,
    generate_corpus,
    load_annotations,
    load_corpus,
    save_annotations,
    save_corpus_meta,
)
from biant.errors import ConfigError, InsufficientVocabulary, ParseError, UnknownLabel
from biant.vocab import Vocabulary, demo_vocabulary, scaled_vocabulary

from reference import ref_early_late_agreement


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(num_videos=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(coupling=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(noise_rate=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(video_len=0)


def test_corpus_shape_and_split(vocab):
    corpus = generate_corpus(vocab, ScenarioConfig(seed=0))
    assert len(corpus.videos) == 200
    assert len(corpus.train_ids) == 140
    assert len(corpus.val_ids) == 20
    assert len(corpus.test_ids) == 40
    all_ids = corpus.train_ids + corpus.val_ids + corpus.test_ids
    assert len(set(all_ids)) == 200
    assert all(len(v.segments) == 40 for v in corpus.videos)
    assert corpus.videos[0].id == "vid0000"
    assert len(corpus.train) == 140 and len(corpus.test) == 40


def test_corpus_is_deterministic(vocab):
    a = generate_corpus(vocab, ScenarioConfig(seed=3, num_videos=30))
    b = generate_corpus(vocab, ScenarioConfig(seed=3, num_videos=30))
    assert [v.segments for v in a.videos] == [v.segments for v in b.videos]
    assert a.sanity == b.sanity
    c = generate_corpus(vocab, ScenarioConfig(seed=4, num_videos=30))
    assert [v.segments for v in a.videos] != [v.segments for v in c.videos]


def test_video_count_invariant_to_corpus_size(vocab):
    """Per-video RNG streams: video i is the same regardless of num_videos."""
    small = generate_corpus(vocab, ScenarioConfig(seed=5, num_videos=10))
    large = generate_corpus(vocab, ScenarioConfig(seed=5, num_videos=25))
    for va, vb in zip(small.videos, large.videos):
        assert va.segments == vb.segments


def test_coupling_creates_early_late_agreement(vocab):
    coupled = generate_corpus(vocab, ScenarioConfig(seed=0, coupling=0.8))
    control = generate_corpus(vocab, ScenarioConfig(seed=0, coupling=0.0))
    strong = coupled.sanity["early_late_agreement"]
    weak = control.sanity["early_late_agreement"]
    assert strong > 0.6
    assert weak < 0.3
    assert strong - weak > 0.3


def test_early_late_agreement_matches_early_third_guess():
    """The statistic reads each video's drawn scene; guessing that scene from
    the early third gives the same floats because every early third is drawn
    from its own scene only."""
    for vocab, seed, coupling, video_len in itertools.product(
            (demo_vocabulary(), scaled_vocabulary()), range(3), (0.0, 0.8, 1.0), (3, 28, 40, 41)):
        corpus = generate_corpus(vocab, ScenarioConfig(seed=seed, coupling=coupling,
                                                       video_len=video_len))
        expected = ref_early_late_agreement(corpus.videos, corpus.motifs["scene"], video_len)
        assert corpus.sanity["early_late_agreement"] == expected, (seed, coupling, video_len)


def test_pure_scene_videos_at_full_coupling(vocab):
    cfg = ScenarioConfig(seed=1, num_videos=20, coupling=1.0, noise_rate=0.0)
    corpus = generate_corpus(vocab, cfg)
    scene_actions = [set(a for m in motifs for a in m) for motifs in corpus.motifs["scene"]]
    for video in corpus.videos:
        used = set(video.segments)
        assert any(used <= actions for actions in scene_actions)


def test_insufficient_vocabulary():
    tiny = Vocabulary(verbs=("go", "stop"), nouns=("door", "light"))
    with pytest.raises(InsufficientVocabulary):
        generate_corpus(tiny, ScenarioConfig(seed=0))


def test_annotations_round_trip(tmp_path, vocab):
    corpus = generate_corpus(vocab, ScenarioConfig(seed=2, num_videos=6))
    path = tmp_path / "ann.json"
    save_annotations(corpus.videos, vocab, path)
    loaded = load_annotations(path, vocab)
    assert [v.id for v in loaded] == [v.id for v in corpus.videos]
    assert [v.segments for v in loaded] == [v.segments for v in corpus.videos]
    doc = json.loads(path.read_text())
    assert doc[0]["segments"][0].keys() == {"verb", "noun"}
    assert isinstance(doc[0]["segments"][0]["verb"], str)


def test_load_annotations_error_naming(tmp_path, vocab):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([
        {"id": "vid0000",
         "segments": [{"verb": "take", "noun": "plate"}, {"verb": "jump", "noun": "plate"}]}
    ]))
    with pytest.raises(UnknownLabel, match=r"video 'vid0000' segment #1.*jump"):
        load_annotations(path, vocab)


def test_load_annotations_parse_errors(tmp_path, vocab):
    path = tmp_path / "ann.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_annotations(path, vocab)
    path.write_text(json.dumps({"id": "vid0000"}))
    with pytest.raises(ParseError, match="expected a JSON array"):
        load_annotations(path, vocab)
    path.write_text(json.dumps([{"segments": []}]))
    with pytest.raises(ParseError, match="video #0"):
        load_annotations(path, vocab)
    path.write_text(json.dumps([{"id": "v", "segments": [{"verb": "take"}]}]))
    with pytest.raises(ParseError, match="segment #0"):
        load_annotations(path, vocab)
    for segments in (5, None):
        path.write_text(json.dumps([{"id": "v7", "segments": segments}]))
        with pytest.raises(ParseError, match="video 'v7' 'segments' must be an array"):
            load_annotations(path, vocab)
    path.write_text("[]")
    assert load_annotations(path, vocab) == []


def test_corpus_meta_round_trip(tmp_path, vocab):
    cfg = ScenarioConfig(seed=6, num_videos=10, coupling=0.5)
    corpus = generate_corpus(vocab, cfg)
    ann, meta = tmp_path / "ann.json", tmp_path / "meta.json"
    save_annotations(corpus.videos, vocab, ann)
    save_corpus_meta(corpus, meta)
    assert set(json.loads(meta.read_text())) == {"split", "sanity"}
    loaded = load_corpus(ann, meta, vocab)
    assert loaded.train_ids == corpus.train_ids
    assert loaded.val_ids == corpus.val_ids
    assert loaded.test_ids == corpus.test_ids
    assert loaded.sanity == corpus.sanity
    assert [v.segments for v in loaded.videos] == [v.segments for v in corpus.videos]
    assert [v.segments for v in loaded.train] == [v.segments for v in corpus.train]
    # Older run directories also hold the scenario section under "config".
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "config": {"seed": 6}}))
    assert load_corpus(ann, meta, vocab).test_ids == corpus.test_ids


def test_load_corpus_bad_meta(tmp_path, vocab):
    corpus = generate_corpus(vocab, ScenarioConfig(seed=7, num_videos=10))
    ann, meta = tmp_path / "ann.json", tmp_path / "meta.json"
    save_annotations(corpus.videos, vocab, ann)
    meta.write_text(json.dumps({"split": {}}))
    with pytest.raises(ParseError, match="bad corpus metadata"):
        load_corpus(ann, meta, vocab)
    save_corpus_meta(corpus, meta)
    good = json.loads(meta.read_text())
    unknown = {**good["split"], "test": good["split"]["test"] + ["nope"]}
    shared = {**good["split"], "test": good["split"]["train"][:2]}
    for split, named in ((unknown, "nope"), (shared, good["split"]["train"][0])):
        meta.write_text(json.dumps({**good, "split": split}))
        with pytest.raises(ParseError, match=f"listed once and name one video.*{named}"):
            load_corpus(ann, meta, vocab)
    # A split written as one string is not read as a list of its characters.
    for name, value in (("train", good["split"]["train"][0]), ("test", [3])):
        meta.write_text(json.dumps({**good, "split": {**good["split"], name: value}}))
        with pytest.raises(ParseError, match=re.escape(f"split '{name}' must be an array "
                                                       f"of video id strings, got {value!r}")):
            load_corpus(ann, meta, vocab)
