import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biant.errors import ConfigError, GrammarViolation, TruncatedOutput, UnknownLabel
from biant.prompt import (
    BOS,
    CTRL_BWD,
    CTRL_FWD,
    DETAILED_DESCRIPTION,
    EOS,
    PAD,
    SEP,
    SPECIAL_TOKEN,
    TokenSpace,
    decode_actions,
    dump_encoding,
    encode_instance,
    encode_preamble,
    encode_prompt,
    target_masks,
)
from biant.sequence import BACKWARD, FORWARD, AnticipationInstance, WindowConfig, make_backward_instance, make_forward_instances
from biant.vocab import ActionLabel, demo_vocabulary

from conftest import make_video


def test_layout_is_contiguous_and_sized(space):
    assert (PAD, BOS, EOS, SEP, CTRL_FWD, CTRL_BWD) == (0, 1, 2, 3, 4, 5)
    assert space.fwd_desc_start == 6
    assert space.bwd_desc_start == 14
    assert space.verb_start == 22
    assert space.noun_start == 30
    assert space.size == 6 + 8 + 8 + 8 + 12


def test_token_helpers(space):
    assert space.verb_token(0) == space.verb_start
    assert space.noun_token(11) == space.size - 1
    assert space.verb_of(space.verb_token(5)) == 5
    assert space.noun_of(space.noun_token(7)) == 7
    assert space.is_verb_token(space.verb_token(3))
    assert not space.is_verb_token(space.noun_token(3))
    with pytest.raises(UnknownLabel):
        space.verb_token(8)
    with pytest.raises(UnknownLabel):
        space.noun_token(12)


def test_preamble_special(space):
    assert encode_preamble(space, SPECIAL_TOKEN, FORWARD) == [4]
    assert encode_preamble(space, SPECIAL_TOKEN, BACKWARD) == [5]


def test_preamble_description(space):
    fwd = encode_preamble(space, DETAILED_DESCRIPTION, FORWARD)
    bwd = encode_preamble(space, DETAILED_DESCRIPTION, BACKWARD)
    assert fwd == list(range(6, 14))
    assert bwd == list(range(14, 22))


def test_preamble_validation(space):
    with pytest.raises(ConfigError):
        encode_preamble(space, "prose", FORWARD)
    with pytest.raises(ConfigError):
        encode_preamble(space, SPECIAL_TOKEN, "sideways")


def smallest_instance():
    return AnticipationInstance(
        direction=FORWARD, observed=(ActionLabel(0, 0),), future=(ActionLabel(1, 2),),
        source_video="v", stop_index=0,
    )


def test_encode_smallest_instance(space):
    enc = encode_instance(space, smallest_instance(), SPECIAL_TOKEN)
    v, n = space.verb_token(0), space.noun_token(0)
    v2, n2 = space.verb_token(1), space.noun_token(2)
    assert enc.tokens.tolist() == [BOS, CTRL_FWD, v, n, SEP, v2, n2, EOS]
    assert enc.prompt_len == 5
    assert (len(enc.tokens) - enc.prompt_len) // 3 == 1
    prompt = encode_prompt(space, SPECIAL_TOKEN, FORWARD, smallest_instance().observed)
    assert prompt == enc.tokens[: enc.prompt_len].tolist()


def test_encoded_lengths_default_config(space):
    video = make_video("v", 28, seed=11)
    fwd = make_forward_instances(video, WindowConfig())[0]
    bwd = make_backward_instance(fwd, 16)
    enc_f = encode_instance(space, fwd, SPECIAL_TOKEN)
    enc_b = encode_instance(space, bwd, SPECIAL_TOKEN)
    assert len(enc_f.tokens) == 1 + 1 + 3 * 8 + 3 * 20 == 86
    assert len(enc_b.tokens) == 1 + 1 + 3 * 16 + 3 * 12 == 86
    assert len(enc_f.tokens) == len(enc_b.tokens)
    desc_f = encode_instance(space, fwd, DETAILED_DESCRIPTION)
    assert len(desc_f.tokens) == 86 - 1 + 8


def test_mask_counts_3z_any_preamble(space):
    video = make_video("v", 30, seed=12)
    for fwd in make_forward_instances(video, WindowConfig()):
        for mode in (SPECIAL_TOKEN, DETAILED_DESCRIPTION):
            enc = encode_instance(space, fwd, mode)
            assert len(enc.tokens) - enc.prompt_len == 3 * 20
            assert enc.tokens[enc.prompt_len - 1] == SEP
        bwd = make_backward_instance(fwd, 16)
        enc = encode_instance(space, bwd, SPECIAL_TOKEN)
        assert len(enc.tokens) - enc.prompt_len == 3 * 12


def test_encode_rejects_unknown_labels(space):
    inst = AnticipationInstance(
        direction=FORWARD, observed=(ActionLabel(0, 0),), future=(ActionLabel(8, 0),),
        source_video="v", stop_index=0,
    )
    with pytest.raises(UnknownLabel):
        encode_instance(space, inst, SPECIAL_TOKEN)


def test_decode_actions_examples(space):
    tokens = [space.verb_token(0), space.noun_token(1), SEP,
              space.verb_token(2), space.noun_token(0), EOS]
    assert decode_actions(space, tokens) == [ActionLabel(0, 1), ActionLabel(2, 0)]
    with pytest.raises(GrammarViolation):
        decode_actions(space, [space.verb_token(0), space.verb_token(1)])
    with pytest.raises(TruncatedOutput):
        decode_actions(space, [])
    with pytest.raises(TruncatedOutput):
        decode_actions(space, [space.verb_token(0), space.noun_token(1), SEP])
    with pytest.raises(GrammarViolation):
        decode_actions(space, [space.verb_token(0), space.noun_token(1), EOS, SEP])
    with pytest.raises(GrammarViolation):
        decode_actions(space, [SEP])
    with pytest.raises(GrammarViolation, match="verb token at position 0"):
        decode_actions(space, [space.noun_token(1), space.noun_token(1), EOS])
    with pytest.raises(GrammarViolation, match="noun token at position 1"):
        decode_actions(space, [space.verb_token(0), space.verb_token(1), EOS])
    with pytest.raises(GrammarViolation, match="SEP or EOS at position 2"):
        decode_actions(space, [space.verb_token(0), space.noun_token(1), space.verb_token(2)])
    with pytest.raises(GrammarViolation, match="after EOS"):
        decode_actions(space, [space.verb_token(0), space.noun_token(1), EOS, space.verb_token(2)])


@given(seed=st.integers(0, 200), n_obs_bwd=st.integers(1, 27),
       mode=st.sampled_from([SPECIAL_TOKEN, DETAILED_DESCRIPTION]),
       backward=st.booleans())
@settings(max_examples=80, deadline=None)
def test_decode_encode_round_trip(seed, n_obs_bwd, mode, backward):
    space = TokenSpace(demo_vocabulary())
    video = make_video("v", 28, seed=seed)
    inst = make_forward_instances(video, WindowConfig())[0]
    if backward:
        inst = make_backward_instance(inst, n_obs_bwd)
    enc = encode_instance(space, inst, mode)
    assert tuple(decode_actions(space, enc.tokens[enc.prompt_len :])) == inst.future


def test_target_masks_schedule(space):
    masks = target_masks(space, 20)
    assert masks.shape == (60, space.size)
    verbs = np.zeros(space.size, dtype=bool)
    verbs[space.verb_start : space.noun_start] = True
    nouns = np.zeros(space.size, dtype=bool)
    nouns[space.noun_start :] = True
    sep, eos = np.eye(space.size, dtype=bool)[[SEP, EOS]]
    for pos, row in enumerate(masks):
        expected = (verbs, nouns, eos if pos == 59 else sep)[pos % 3]
        assert (row == expected).all(), pos
    assert int(verbs.sum()) == 8 and int(nouns.sum()) == 12
    assert masks[:, EOS].nonzero()[0].tolist() == [59]
    one = target_masks(space, 1)
    assert one.shape == (3, space.size)
    assert (one[0] == verbs).all() and (one[1] == nouns).all() and (one[2] == eos).all()
    with pytest.raises(ConfigError):
        target_masks(space, 0)


@given(seed=st.integers(0, 200), z=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_target_masks_admit_every_encoded_target(seed, z):
    space = TokenSpace(demo_vocabulary())
    video = make_video("v", 8 + z, seed=seed)
    inst = make_forward_instances(video, WindowConfig(z_fwd=z, n_obs_bwd=1))[0]
    enc = encode_instance(space, inst, SPECIAL_TOKEN)
    target = enc.tokens[enc.prompt_len :]
    masks = target_masks(space, z)
    assert masks[np.arange(3 * z), target].all()
    assert int(masks[:, SEP].sum()) == z - 1 and int(masks[:, EOS].sum()) == 1


def test_dump_encoding_readable(space):
    enc = encode_instance(space, smallest_instance(), SPECIAL_TOKEN)
    line = dump_encoding(space, enc)
    assert "[forward]" in line and "|" in line
    assert "take" in line and "plate" in line
