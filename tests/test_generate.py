import itertools

import numpy as np
import pytest

from biant import generate
from biant.errors import ConfigError, EmptySupport
from biant.generate import (
    CandidateSet,
    GenerationConfig,
    _candidate_rng,
    _decode_one,
    generate_candidates,
    renormalize_masked,
)
from biant.model import ModelConfig, init_params
from biant.prompt import BOS, DETAILED_DESCRIPTION, SPECIAL_TOKEN, TokenSpace, target_masks
from biant.vocab import ActionLabel, scaled_vocabulary

from conftest import make_video
from reference import ref_generate_candidates


def observed_prefix(n=4, seed=40):
    return make_video("v", n, seed=seed).segments


def test_generation_config_validation():
    with pytest.raises(ConfigError):
        GenerationConfig(k=0)
    with pytest.raises(ConfigError):
        GenerationConfig(temperature=0.0)
    GenerationConfig(k=1, temperature=0.5)


def test_candidate_set_rejects_mixed_lengths():
    a, b = ActionLabel(0, 0), ActionLabel(1, 1)
    CandidateSet("i", [(a, b), (b, a)])
    with pytest.raises(ConfigError):
        CandidateSet("i", [(a, b), (a,)])


def test_renormalize_masked_examples():
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    out = renormalize_masked(dist, np.array([False, True, False, True]))
    assert np.allclose(out, [0.0, 2.0 / 6.0, 0.0, 4.0 / 6.0])
    assert out.sum() == pytest.approx(1.0)
    with pytest.raises(EmptySupport):
        renormalize_masked(dist, np.zeros(4, dtype=bool))
    with pytest.raises(EmptySupport):
        renormalize_masked(np.array([0.0, 0.0, 1.0]), np.array([True, True, False]))


def test_renormalize_masked_rows_match_one_dimensional_calls():
    rng = np.random.default_rng(2)
    dist = rng.dirichlet(np.ones(9), size=5)
    masks = rng.random((5, 9)) < 0.5
    masks[:, 0] = True
    rows = renormalize_masked(dist, masks)
    shared = renormalize_masked(dist, masks[0])
    for r in range(5):
        assert np.array_equal(rows[r], renormalize_masked(dist[r], masks[r]))
        assert np.array_equal(shared[r], renormalize_masked(dist[r], masks[0]))
    masks[3] = False
    with pytest.raises(EmptySupport):
        renormalize_masked(dist, masks)
    dist[1] = np.eye(9)[8]
    with pytest.raises(EmptySupport):
        renormalize_masked(dist, np.arange(9) < 8)


@pytest.mark.parametrize("mode", [SPECIAL_TOKEN, DETAILED_DESCRIPTION])
@pytest.mark.parametrize("vocab_name", ["demo", "scaled"])
def test_batched_cached_decoder_matches_full_prefix_oracle(space, vocab_name, mode):
    """Same candidates as decoding one candidate at a time over the full
    prefix, for every temperature, K and z in the matrix."""
    if vocab_name == "scaled":
        space = TokenSpace(scaled_vocabulary())
    cfg = ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                      num_heads=2, num_layers=2, mlp_hidden=12, seed=1)
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    for name, arr in params.arrays.items():
        params.arrays[name] = rng.normal(0.0, 0.4, arr.shape)
    obs = observed_prefix()
    distinct = set()
    cases = [(temperature, k, z) for temperature in (0.05, 1.0, 3.0)
             for k in (1, 7) for z in (1, 20)]
    for temperature, k, z in cases + [(3.0, 20, 20)]:
        gen = GenerationConfig(k=k, temperature=temperature, seed=5)
        fast = generate_candidates(params, space, obs, z, gen, mode, "v:t0003")
        slow = ref_generate_candidates(params, space, obs, z, gen, mode, "v:t0003")
        assert fast.candidates == slow, (temperature, k, z)
        distinct.update(slow)
    assert len(distinct) > 20


@pytest.mark.parametrize("temperature", [0.05, 3.0])
def test_vectorised_draw_matches_generator_choice(space, monkeypatch, temperature):
    """Every token equals a per-row ``Generator.choice(p=row)`` (argmax for
    the greedy row) on the distribution the decoder built, and every stream
    ends where 3z such calls leave it."""
    k, z = 20, 20
    schedule = target_masks(space, z)
    logit_rng = np.random.default_rng(11)
    steps = itertools.count()

    def fake_forward(params, tokens, kv=None):
        step = next(steps)
        logits = logit_rng.normal(0.0, 2.0, (len(tokens), space.size))
        admitted = np.flatnonzero(schedule[step])
        for row in range(len(tokens)):
            kind = logit_rng.integers(4)
            if kind == 1:  # near one-hot
                logits[row, logit_rng.choice(admitted)] += 40.0
            elif kind == 2:  # a single admitted token keeps any mass
                logits[row, admitted] = -np.inf
                logits[row, logit_rng.choice(admitted)] = 0.0
            elif kind == 3:  # a random subset of the admitted tokens
                drop = admitted[logit_rng.random(admitted.size) < 0.5]
                logits[row, drop[: admitted.size - 1]] = -np.inf
        return logits[:, None, :]

    dists = []

    def recording_renormalize(dist, mask):
        dists.append(renormalize_masked(dist, mask))
        return dists[-1]

    monkeypatch.setattr(generate, "_forward_batch", fake_forward)
    monkeypatch.setattr(generate, "renormalize_masked", recording_renormalize)
    rngs = [None] + [_candidate_rng(4, "i", row) for row in range(1, k)]
    emitted = _decode_one(None, space, [BOS], z, temperature, rngs)

    oracle = [None] + [_candidate_rng(4, "i", row) for row in range(1, k)]
    assert len(dists) == 3 * z
    single = 0
    for step, dist in enumerate(dists):
        if schedule[step].sum() > 1:
            single += int(((dist > 0).sum(axis=1) == 1).sum())
        for row, rng in enumerate(oracle):
            want = np.argmax(dist[row]) if rng is None else rng.choice(space.size, p=dist[row])
            assert emitted[row, step] == want, (step, row)
    assert single > z
    for rng, oracle_rng in zip(rngs, oracle):
        if rng is not None:
            assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_non_finite_admitted_logit_is_empty_support(tiny_params, space, k, bad):
    """A NaN or infinite score anywhere in the admitted set is a named error,
    with the greedy row alone (k = 1) and with a sampled row beside it."""
    params = init_params(tiny_params.config)
    params.arrays["b_out"][space.verb_start + 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(EmptySupport):
        generate_candidates(params, space, observed_prefix(), 3,
                            GenerationConfig(k=k, seed=1), SPECIAL_TOKEN, "i")


def test_generate_shapes_and_lengths(tiny_params, space):
    cfg = GenerationConfig(k=5, seed=1)
    cs = generate_candidates(tiny_params, space, observed_prefix(), z=3, cfg=cfg,
                             mode=SPECIAL_TOKEN, instance_id="v:t0003")
    assert cs.instance_id == "v:t0003"
    assert len(cs.candidates) == 5
    for cand in cs.candidates:
        assert len(cand) == 3
        for a in cand:
            assert 0 <= a.verb < space.num_verbs
            assert 0 <= a.noun < space.num_nouns


def test_generate_k1_greedy_is_seed_invariant(tiny_params, space):
    obs = observed_prefix()
    a = generate_candidates(tiny_params, space, obs, 4, GenerationConfig(k=1, seed=0),
                            SPECIAL_TOKEN, "i")
    b = generate_candidates(tiny_params, space, obs, 4, GenerationConfig(k=1, seed=99),
                            SPECIAL_TOKEN, "i")
    assert a.candidates == b.candidates


def test_generate_repeated_call_is_deterministic(tiny_params, space):
    obs = observed_prefix()
    cfg = GenerationConfig(k=4, seed=7)
    a = generate_candidates(tiny_params, space, obs, 5, cfg, SPECIAL_TOKEN, "i")
    b = generate_candidates(tiny_params, space, obs, 5, cfg, SPECIAL_TOKEN, "i")
    assert a.candidates == b.candidates


def test_generate_candidates_keyed_by_instance_not_call_order(tiny_params, space):
    obs = observed_prefix()
    cfg = GenerationConfig(k=3, seed=7)
    first = [generate_candidates(tiny_params, space, obs, 4, cfg, SPECIAL_TOKEN, i)
             for i in ("a", "b")]
    second = [generate_candidates(tiny_params, space, obs, 4, cfg, SPECIAL_TOKEN, i)
              for i in ("b", "a")]
    assert first[0].candidates == second[1].candidates
    assert first[1].candidates == second[0].candidates


def test_low_temperature_sampling_matches_greedy(tiny_params, space):
    obs = observed_prefix()
    greedy = generate_candidates(tiny_params, space, obs, 4,
                                 GenerationConfig(k=1, seed=0), SPECIAL_TOKEN, "i")
    cold = generate_candidates(tiny_params, space, obs, 4,
                               GenerationConfig(k=2, temperature=1e-6, seed=5),
                               SPECIAL_TOKEN, "i")
    assert cold.candidates[0] == greedy.candidates[0]
    assert cold.candidates[1] == greedy.candidates[0]


def test_generate_rejects_bad_z(tiny_params, space):
    with pytest.raises(ConfigError):
        generate_candidates(tiny_params, space, observed_prefix(), 0,
                            GenerationConfig(k=1), SPECIAL_TOKEN, "i")


def test_random_models_always_emit_grammar_complete_candidates(space):
    """Constrained decoding yields exactly-z futures for any parameter draw."""
    count = 0
    for seed in range(6):
        cfg = ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                          num_heads=2, num_layers=1, mlp_hidden=12, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        for name, arr in params.arrays.items():
            params.arrays[name] = rng.normal(0.0, 0.4, arr.shape)
        for z in (1, 2, 5):
            cs = generate_candidates(params, space, observed_prefix(3, seed), z,
                                     GenerationConfig(k=3, seed=seed),
                                     DETAILED_DESCRIPTION, f"s{seed}:z{z}")
            count += sum(len(c) == z for c in cs.candidates)
    assert count == 6 * 3 * 3

