"""Token space, prompt encoding, and the output grammar.

Layout of the closed token space derived from a vocabulary:

    0 PAD   1 BOS   2 EOS   3 SEP   4 [forward]   5 [backward]
    [6, 6+D)             forward task-description tokens (D = DESC_LEN)
    [6+D, 6+2D)          backward task-description tokens
    [6+2D, +|verbs|)     one token per verb
    [.., +|nouns|)       one token per noun

Every encoded instance is BOS, preamble, then (verb, noun, SEP) per observed
action, then (verb, noun, SEP) per future action with the final SEP replaced
by EOS. Its ``prompt_len`` tokens end at the last observed SEP; the tokens
after them are the target region, the tokens the model is trained to emit.
PAD is never written, since training batches hold instances of one length,
but keeps id 0 so that every other token id stays where it is.

That output grammar is a fixed positional schedule: position p of a z-action
target region holds a verb if p % 3 == 0, a noun if p % 3 == 1 and SEP
otherwise, except that the last position holds EOS. ``target_masks`` states
it for decoding and ``decode_actions`` checks it when parsing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GrammarViolation, TruncatedOutput, UnknownLabel
from .sequence import BACKWARD, FORWARD, AnticipationInstance
from .vocab import ActionLabel, Vocabulary

PAD = 0
BOS = 1
EOS = 2
SEP = 3
CTRL_FWD = 4
CTRL_BWD = 5
NUM_RESERVED = 6

SPECIAL_TOKEN = "special_token"
DETAILED_DESCRIPTION = "detailed_description"
PREAMBLE_MODES = (SPECIAL_TOKEN, DETAILED_DESCRIPTION)

# Tokens in each direction's task-description block.
DESC_LEN = 8


@dataclass
class TokenSpace:
    """Token-id layout bound to one vocabulary.

    The description blocks stand in for the natural-language task
    instructions of the full-scale system; at this scale each direction gets
    a fixed block of ``DESC_LEN`` opaque tokens instead of prose.
    """

    vocab: Vocabulary

    def __post_init__(self) -> None:
        self.fwd_desc_start = NUM_RESERVED
        self.bwd_desc_start = self.fwd_desc_start + DESC_LEN
        self.verb_start = self.bwd_desc_start + DESC_LEN
        self.noun_start = self.verb_start + self.vocab.num_verbs
        self.size = self.noun_start + self.vocab.num_nouns

    @property
    def num_verbs(self) -> int:
        return self.vocab.num_verbs

    @property
    def num_nouns(self) -> int:
        return self.vocab.num_nouns

    def verb_token(self, verb: int) -> int:
        if not 0 <= verb < self.num_verbs:
            raise UnknownLabel(f"verb index {verb} out of range")
        return self.verb_start + verb

    def noun_token(self, noun: int) -> int:
        if not 0 <= noun < self.num_nouns:
            raise UnknownLabel(f"noun index {noun} out of range")
        return self.noun_start + noun

    def is_verb_token(self, tok: int) -> bool:
        return self.verb_start <= tok < self.noun_start

    def is_noun_token(self, tok: int) -> bool:
        return self.noun_start <= tok < self.size

    def verb_of(self, tok: int) -> int:
        return tok - self.verb_start

    def noun_of(self, tok: int) -> int:
        return tok - self.noun_start

    def token_name(self, tok: int) -> str:
        """Readable token name for debug dumps."""
        fixed = {PAD: "PAD", BOS: "BOS", EOS: "EOS", SEP: "SEP",
                 CTRL_FWD: "[forward]", CTRL_BWD: "[backward]"}
        if tok in fixed:
            return fixed[tok]
        if self.fwd_desc_start <= tok < self.bwd_desc_start:
            return f"fdesc{tok - self.fwd_desc_start}"
        if self.bwd_desc_start <= tok < self.verb_start:
            return f"bdesc{tok - self.bwd_desc_start}"
        if self.is_verb_token(tok):
            return self.vocab.verbs[self.verb_of(tok)]
        if self.is_noun_token(tok):
            return self.vocab.nouns[self.noun_of(tok)]
        return f"?{tok}"


@dataclass
class EncodedInstance:
    """Token ids; the targets are ``tokens[prompt_len:]``."""

    tokens: np.ndarray
    prompt_len: int
    direction: str
    instance_id: str = ""


def encode_preamble(space: TokenSpace, mode: str, direction: str) -> list[int]:
    """Tokens placed right after BOS to tell the model which task this is."""
    if direction not in (FORWARD, BACKWARD):
        raise ConfigError(f"unknown direction: {direction!r}")
    if mode == SPECIAL_TOKEN:
        return [CTRL_FWD if direction == FORWARD else CTRL_BWD]
    if mode == DETAILED_DESCRIPTION:
        start = space.fwd_desc_start if direction == FORWARD else space.bwd_desc_start
        return list(range(start, start + DESC_LEN))
    raise ConfigError(f"unknown preamble mode: {mode!r}")


def encode_prompt(space: TokenSpace, mode: str, direction: str, observed) -> list[int]:
    """BOS, the task preamble, then (verb, noun, SEP) per observed action."""
    ids = [BOS] + encode_preamble(space, mode, direction)
    for a in observed:
        ids.extend((space.verb_token(a.verb), space.noun_token(a.noun), SEP))
    return ids


def encode_instance(space: TokenSpace, inst: AnticipationInstance, mode: str) -> EncodedInstance:
    """Encode an instance as prompt + teacher-forced target tokens.

    The prompt runs through the last observed SEP; the targets after it are
    2*|future| action tokens, |future|-1 SEPs, and the final EOS.
    """
    ids = encode_prompt(space, mode, inst.direction, inst.observed)
    prompt_len = len(ids)
    for i, a in enumerate(inst.future):
        last = i == len(inst.future) - 1
        ids.extend((space.verb_token(a.verb), space.noun_token(a.noun), EOS if last else SEP))
    return EncodedInstance(
        tokens=np.asarray(ids, dtype=np.int64),
        prompt_len=prompt_len,
        direction=inst.direction,
        instance_id=inst.instance_id,
    )


def target_masks(space: TokenSpace, z: int) -> np.ndarray:
    """(3z, |space|) boolean schedule: row p admits the tokens position p of
    a z-action target region may hold, so the last row admits only EOS."""
    if z < 1:
        raise ConfigError("z must be >= 1")
    masks = np.zeros((3 * z, space.size), dtype=bool)
    masks[0::3, space.verb_start : space.noun_start] = True
    masks[1::3, space.noun_start :] = True
    masks[2::3, SEP] = True
    masks[-1, SEP], masks[-1, EOS] = False, True
    return masks


def decode_actions(space: TokenSpace, generated) -> list[ActionLabel]:
    """Parse a target-region emission back into labels.

    Each token is checked against its slot ``pos % 3``: verb, noun, then SEP,
    or EOS as the very last token.
    """
    actions: list[ActionLabel] = []
    tokens = [int(t) for t in generated]
    for pos, tok in enumerate(tokens):
        slot = pos % 3
        if slot == 0:
            if not space.is_verb_token(tok):
                raise GrammarViolation(
                    f"expected a verb token at position {pos}, got {space.token_name(tok)}"
                )
        elif slot == 1:
            if not space.is_noun_token(tok):
                raise GrammarViolation(
                    f"expected a noun token at position {pos}, got {space.token_name(tok)}"
                )
            actions.append(ActionLabel(space.verb_of(tokens[pos - 1]), space.noun_of(tok)))
        elif tok == EOS:
            if pos != len(tokens) - 1:
                raise GrammarViolation(f"tokens continue after EOS at position {pos}")
            return actions
        elif tok != SEP:
            raise GrammarViolation(
                f"expected SEP or EOS at position {pos}, got {space.token_name(tok)}"
            )
    raise TruncatedOutput("emission ended without EOS")


def dump_encoding(space: TokenSpace, enc: EncodedInstance) -> str:
    """One-line readable rendering of an encoded instance (debug aid)."""
    names = [space.token_name(int(t)) for t in enc.tokens]
    names.insert(enc.prompt_len, "|")
    return f"{enc.instance_id} [{enc.direction}] " + " ".join(names)
