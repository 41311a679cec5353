"""Verb/noun vocabularies and the (verb, noun) action label atom.

Labels are index pairs internally; strings appear only at I/O boundaries
(annotation files, reports, prompts dumped for debugging). Vocabulary
documents are JSON objects ``{"verbs": [...], "nouns": [...]}`` and index
assignment always equals document order, so loading is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateName, EmptyVocabulary, ParseError, UnknownLabel, load_json


class ActionLabel(NamedTuple):
    """One video segment's activity as a (verb index, noun index) pair."""

    verb: int
    noun: int


@dataclass
class Vocabulary:
    """Ordered verb and noun name lists with stable 0-based indices.

    Immutable after construction; safe to share read-only across threads.
    Names are lowercased on construction (prompt text is case-normalized).
    """

    verbs: tuple[str, ...]
    nouns: tuple[str, ...]
    _verb_index: dict[str, int] = field(init=False, repr=False)
    _noun_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.verbs = tuple(v.lower() for v in self.verbs)
        self.nouns = tuple(n.lower() for n in self.nouns)
        for kind, names in (("verb", self.verbs), ("noun", self.nouns)):
            if not names:
                raise EmptyVocabulary(f"{kind} list is empty")
            if any(not name or name != name.strip() for name in names):
                raise ParseError(f"blank or padded {kind} name in vocabulary")
            if len(set(names)) != len(names):
                dup = next(n for i, n in enumerate(names) if n in names[:i])
                raise DuplicateName(f"duplicate {kind} name: {dup!r}")
        self._verb_index = {name: i for i, name in enumerate(self.verbs)}
        self._noun_index = {name: i for i, name in enumerate(self.nouns)}

    @property
    def num_verbs(self) -> int:
        return len(self.verbs)

    @property
    def num_nouns(self) -> int:
        return len(self.nouns)

    def verb_index(self, name: str) -> int:
        try:
            return self._verb_index[name.lower()]
        except KeyError:
            raise UnknownLabel(f"unknown verb: {name!r}") from None

    def noun_index(self, name: str) -> int:
        try:
            return self._noun_index[name.lower()]
        except KeyError:
            raise UnknownLabel(f"unknown noun: {name!r}") from None

    def digest(self) -> str:
        """Hex sha256 of the ordered name lists: equal iff every index maps
        to the same verb and noun."""
        doc = json.dumps({"verbs": self.verbs, "nouns": self.nouns})
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def load_vocabulary(source: str | Path | dict) -> Vocabulary:
    """Build a Vocabulary from a JSON document (path or already-parsed dict).

    Index assignment equals document order. Duplicates raise DuplicateName,
    empty lists raise EmptyVocabulary, schema problems raise ParseError.
    """
    doc = load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(doc, dict) or "verbs" not in doc or "nouns" not in doc:
        raise ParseError("vocabulary document must be an object with 'verbs' and 'nouns'")
    verbs, nouns = doc["verbs"], doc["nouns"]
    if not isinstance(verbs, list) or not isinstance(nouns, list):
        raise ParseError("'verbs' and 'nouns' must be arrays of names")
    if not all(isinstance(v, str) for v in verbs + nouns):
        raise ParseError("vocabulary names must be strings")
    return Vocabulary(verbs=tuple(verbs), nouns=tuple(nouns))


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"verbs": list(vocab.verbs), "nouns": list(vocab.nouns)}, fh, indent=1)
        fh.write("\n")


# Small kitchen-flavored vocabulary shipped for tests and demos (8 x 12).
DEMO_VERBS = ("take", "put", "cut", "wash", "open", "close", "mix", "pour")
DEMO_NOUNS = (
    "knife", "cloth", "plate", "pan", "onion", "bottle",
    "drawer", "cup", "board", "towel", "spoon", "bowl",
)


def demo_vocabulary() -> Vocabulary:
    """The in-repo demo vocabulary: 8 verbs x 12 nouns."""
    return Vocabulary(verbs=DEMO_VERBS, nouns=DEMO_NOUNS)


def scaled_vocabulary() -> Vocabulary:
    """A synthetic vocabulary at full benchmark scale: 117 verbs x 521 nouns."""
    return Vocabulary(
        verbs=tuple(f"verb{i:03d}" for i in range(117)),
        nouns=tuple(f"noun{i:03d}" for i in range(521)),
    )
