import json

import pytest

from biant.errors import DuplicateName, EmptyVocabulary, ParseError
from biant.vocab import (
    Vocabulary,
    demo_vocabulary,
    load_vocabulary,
    save_vocabulary,
    scaled_vocabulary,
)


def test_load_from_document():
    v = load_vocabulary({"verbs": ["take", "put", "cut"], "nouns": ["knife", "cloth"]})
    assert v.num_verbs == 3 and v.num_nouns == 2
    assert v.verbs == ("take", "put", "cut")


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName):
        load_vocabulary({"verbs": ["take", "take"], "nouns": ["knife"]})
    with pytest.raises(DuplicateName):
        Vocabulary(verbs=("a",), nouns=("x", "x"))


def test_empty_list_rejected():
    with pytest.raises(EmptyVocabulary):
        load_vocabulary({"verbs": [], "nouns": ["knife"]})
    with pytest.raises(EmptyVocabulary):
        load_vocabulary({"verbs": ["take"], "nouns": []})


def test_schema_violations():
    with pytest.raises(ParseError):
        load_vocabulary({"verbs": ["take"]})
    with pytest.raises(ParseError):
        load_vocabulary({"verbs": "take", "nouns": ["knife"]})
    with pytest.raises(ParseError):
        load_vocabulary({"verbs": ["take", 3], "nouns": ["knife"]})
    with pytest.raises(ParseError):
        Vocabulary(verbs=("take", " padded "), nouns=("knife",))


def test_benchmark_scale_sizes():
    v = scaled_vocabulary()
    assert v.num_verbs == 117 and v.num_nouns == 521


def test_case_normalized_on_construction():
    v = Vocabulary(verbs=("Take", "PUT"), nouns=("Knife",))
    assert v.verbs == ("take", "put")
    assert v.verb_index("TAKE") == 0


def test_load_is_deterministic(tmp_path):
    doc = {"verbs": list(demo_vocabulary().verbs), "nouns": list(demo_vocabulary().nouns)}
    assert load_vocabulary(doc).verbs == load_vocabulary(doc).verbs
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_vocabulary(path) == load_vocabulary(doc)


def test_save_load_file_round_trip(tmp_path):
    v = demo_vocabulary()
    path = tmp_path / "vocab.json"
    save_vocabulary(v, path)
    assert load_vocabulary(path) == v
