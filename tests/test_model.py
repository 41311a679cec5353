import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biant.model
from biant.errors import ConfigError, ContextOverflow, NumericalDivergence, ParseError, ShapeMismatch
from biant.model import (
    AdamState,
    LossWeights,
    ModelConfig,
    batch_objective,
    forward,
    gradient,
    gradient_check,
    init_adam,
    init_params,
    load_checkpoint,
    make_gradcheck_case,
    optimizer_step,
    save_checkpoint,
)
from biant.model import _forward_batch, _gradient_detailed
from biant.prompt import SPECIAL_TOKEN, TokenSpace, encode_instance
from biant.sequence import BACKWARD, FORWARD, WindowConfig, make_backward_instance, make_forward_instances
from biant.vocab import scaled_vocabulary

from conftest import make_video
from reference import ref_gradient_detailed, ref_losses_from_logits


def small_batch(space, n=2):
    """Two real encodings of different lengths (86 fwd, 86 bwd at defaults)."""
    out = []
    for i in range(n):
        video = make_video(f"v{i}", 28, seed=20 + i)
        fwd = make_forward_instances(video, WindowConfig())[0]
        inst = fwd if i % 2 == 0 else make_backward_instance(fwd, 16)
        out.append(encode_instance(space, inst, SPECIAL_TOKEN))
    return out


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, embed_dim=9, num_heads=2)
    ModelConfig(vocab_size=10, embed_dim=8, num_heads=2)


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        LossWeights(-0.1, 1.0)
    with pytest.raises(ConfigError):
        LossWeights(0.0, 0.0)
    w = LossWeights(1.0, 0.5)
    assert w.for_direction(FORWARD) == 1.0
    assert w.for_direction(BACKWARD) == 0.5


def test_init_is_deterministic_with_zero_biases():
    cfg = ModelConfig(vocab_size=20, embed_dim=8, num_heads=2, mlp_hidden=12, seed=5)
    a, b = init_params(cfg), init_params(cfg)
    assert set(a.arrays) == {
        "tok_emb", "pos_emb", "w_out", "b_out",
        "l0.wq", "l0.bq", "l0.wk", "l0.wv", "l0.bv", "l0.wo", "l0.bo",
        "l0.w1", "l0.b1", "l0.w2", "l0.b2",
    }
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
        assert a.arrays[name].dtype == np.float64
        if name.startswith("b") or ".b" in name:
            assert not a.arrays[name].any()
    c = init_params(ModelConfig(vocab_size=20, embed_dim=8, num_heads=2, mlp_hidden=12, seed=6))
    assert not np.array_equal(a.arrays["tok_emb"], c.arrays["tok_emb"])
    assert a.num_params == sum(arr.size for arr in a.arrays.values())


def test_forward_rows_are_distributions(tiny_params, space):
    tokens = [1, 4, space.verb_token(0), space.noun_token(1), 3]
    dists = forward(tiny_params, tokens)
    assert dists.shape == (5, space.size)
    assert np.all(dists > 0)
    assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ShapeMismatch):
        forward(tiny_params, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ContextOverflow):
        forward(tiny_params, np.zeros(97, dtype=np.int64))


def test_forward_is_causal(tiny_params):
    base = np.array([1, 4, 22, 30, 3, 23, 31, 2], dtype=np.int64)
    changed = base.copy()
    changed[5] = 24
    d0 = forward(tiny_params, base)
    d1 = forward(tiny_params, changed)
    assert np.array_equal(d0[:5], d1[:5])
    assert not np.array_equal(d0[5:], d1[5:])


def test_batch_objective_matches_single_instance_losses(tiny_params, space):
    batch = small_batch(space, 2)
    w = LossWeights(1.0, 0.5)
    singles = []
    for enc in batch:
        logits = _forward_batch(tiny_params, enc.tokens[None, :])
        singles.append(ref_losses_from_logits(logits, [enc], w).per_instance[0])
    expect = np.mean([w.for_direction(e.direction) * l for e, l in zip(batch, singles)])
    assert math.isclose(batch_objective(tiny_params, batch, w), expect, rel_tol=1e-10)


def test_loss_mask_at_position_zero_is_rejected(tiny_params, space):
    """A target at position 0 (prompt_len 0) has no position to predict it."""
    bad = small_batch(space, 1)[0]
    bad.prompt_len = 0
    with pytest.raises(ShapeMismatch, match="predicts token 0"):
        batch_objective(tiny_params, [bad], LossWeights())
    bad.prompt_len = len(bad.tokens) + 1
    with pytest.raises(ShapeMismatch, match="prompt lengths"):
        batch_objective(tiny_params, [bad], LossWeights())


def test_mixed_length_batch_is_rejected(tiny_params, space):
    video = make_video("v", 29, seed=30)
    full = encode_instance(space, make_forward_instances(video, WindowConfig())[0], SPECIAL_TOKEN)
    short_inst = make_forward_instances(video, WindowConfig(n_obs_fwd=4, z_fwd=6, n_obs_bwd=3))[0]
    short = encode_instance(space, make_backward_instance(short_inst, 3), SPECIAL_TOKEN)
    assert (len(short.tokens), len(full.tokens)) == (32, 86)
    for batch in ([short, full], [full, full, short]):
        with pytest.raises(ShapeMismatch, match=r"one length, got lengths \[32, 86\]"):
            batch_objective(tiny_params, batch, LossWeights())
        with pytest.raises(ShapeMismatch, match="one length"):
            gradient(tiny_params, batch, LossWeights())


# Each batch of _equivalence_case and the rows that predict its groups' first
# targets (prompt_len - 1, the row of its last block's first query; see
# model._trunk).
EQUIVALENCE_BATCHES = {
    "mixed": [10, 13, 25, 49, 73],
    "forward": [25],
    "backward": [10, 49],
    "empty_mask": [10, 25, 49, 73, 84],
    "short": [10, 13, 16, 22],
}
# Each batch's instances as (forward instance, n_obs_bwd of its backward
# twin, or None for the forward instance itself).
_LAYOUTS = {
    "mixed": [(0, None), (0, 3), (0, 16), (1, 4), (1, 24)],
    "forward": [(0, None), (1, None)],
    "backward": [(0, 16), (0, 3), (1, 16)],
    "short": [(0, None), (0, 3), (1, 7), (1, 5)],
}


def _equivalence_case(space, kind="mixed", num_layers=2):
    """Generic-scale model and one of the EQUIVALENCE_BATCHES. Each batch
    covers one window: the default 28 segments (86 tokens), or 10 segments
    (32 tokens) for "short". "empty_mask" is "mixed" with one instance's
    prompt taking all its tokens, so it has no target, plus one whose only
    target is its EOS."""
    cfg = ModelConfig(vocab_size=space.size, context_len=96, embed_dim=16,
                      num_heads=2, num_layers=num_layers, mlp_hidden=24, seed=9)
    params = init_params(cfg)
    rng = np.random.default_rng(10)
    for name, arr in params.arrays.items():
        params.arrays[name] = rng.normal(0.0, 0.3, arr.shape)
    video = make_video("eq", 29, seed=41, num_verbs=space.num_verbs, num_nouns=space.num_nouns)
    window = WindowConfig(n_obs_fwd=4, z_fwd=6, n_obs_bwd=3) if kind == "short" else WindowConfig()
    fwd = make_forward_instances(video, window)
    batch = [encode_instance(space, fwd[i] if n is None else make_backward_instance(fwd[i], n),
                             SPECIAL_TOKEN) for i, n in _LAYOUTS.get(kind, _LAYOUTS["mixed"])]
    if kind == "empty_mask":
        batch[3].prompt_len = len(batch[3].tokens)
        batch.append(encode_instance(space, fwd[1], SPECIAL_TOKEN))
        batch[-1].prompt_len = len(batch[-1].tokens) - 1
    rows = sorted({e.prompt_len - 1 for e in batch if e.prompt_len < len(e.tokens)})
    assert rows == EQUIVALENCE_BATCHES[kind]
    return params, batch


def _assert_matches_oracle(params, batch, w):
    fast, fast_losses = _gradient_detailed(params, batch, w)
    slow, slow_losses = ref_gradient_detailed(params, batch, w)
    assert fast.keys() == slow.keys()
    for name in slow:
        np.testing.assert_allclose(fast[name], slow[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(slow[name]).max(), err_msg=name)
    np.testing.assert_allclose(fast_losses.per_instance, slow_losses.per_instance, rtol=1e-12)
    assert math.isclose(fast_losses.objective, slow_losses.objective, rel_tol=1e-12)
    assert math.isclose(batch_objective(params, batch, w), slow_losses.objective, rel_tol=1e-12)


@pytest.mark.parametrize("vocab_name", ["demo", "scaled"])
@pytest.mark.parametrize("full_window", [True, False])
def test_target_head_matches_full_head_oracle(space, vocab_name, full_window):
    """The mixed batch of the default window (86 tokens) and the short batch
    of a 10-segment window (32 tokens), on both vocabularies."""
    if vocab_name == "scaled":
        space = TokenSpace(scaled_vocabulary())
    params, batch = _equivalence_case(space, "mixed" if full_window else "short")
    assert {len(e.tokens) for e in batch} == {86 if full_window else 32}
    _assert_matches_oracle(params, batch, LossWeights(1.0, 0.6))


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("kind", list(EQUIVALENCE_BATCHES))
def test_grouped_step_matches_full_position_oracle(space, kind, num_layers):
    """One group, several, and an instance with no target, each against the
    oracle that runs every block at every position."""
    params, batch = _equivalence_case(space, kind, num_layers)
    _assert_matches_oracle(params, batch, LossWeights(1.0, 0.6))


def test_gradient_zero_when_mask_empty(tiny_params, space):
    enc = small_batch(space, 1)[0]
    enc.prompt_len = len(enc.tokens)
    grads, obj = gradient(tiny_params, [enc], LossWeights(1.0, 1.0))
    assert obj == 0.0
    for g in grads.values():
        assert not g.any()


def test_gradient_scales_linearly_in_weights(tiny_params, space):
    batch = small_batch(space, 2)
    g1, o1 = gradient(tiny_params, batch, LossWeights(1.0, 0.5))
    g2, o2 = gradient(tiny_params, batch, LossWeights(2.0, 1.0))
    assert o2 == 2.0 * o1
    for name in g1:
        assert np.array_equal(g2[name], 2.0 * g1[name])


def test_gradient_empty_batch(tiny_params):
    with pytest.raises(ShapeMismatch):
        gradient(tiny_params, [], LossWeights(1.0, 1.0))


def test_gradient_matches_finite_differences():
    params, batch, w = make_gradcheck_case(seed=0)
    assert gradient_check(params, batch, w) < 1e-4


def test_gradcheck_case_is_deterministic():
    p1, b1, _ = make_gradcheck_case(seed=0)
    p2, b2, _ = make_gradcheck_case(seed=0)
    for name in p1.arrays:
        assert np.array_equal(p1.arrays[name], p2.arrays[name])
    for e1, e2 in zip(b1, b2):
        assert np.array_equal(e1.tokens, e2.tokens)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_divergence_raises(tiny_params, space):
    hot = tiny_params.copy()
    hot.arrays["tok_emb"] *= 1e200
    with pytest.raises(NumericalDivergence):
        gradient(hot, small_batch(space, 1), LossWeights(1.0, 1.0))


def test_optimizer_first_step_is_signed_lr(tiny_params):
    grads = {k: np.ones_like(v) for k, v in tiny_params.arrays.items()}
    grads["tok_emb"] *= -1.0
    state = init_adam(tiny_params)
    new, state = optimizer_step(tiny_params, grads, state, lr=0.01)
    assert state.step == 1
    # First Adam step moves every coordinate by ~lr against the gradient sign.
    assert np.allclose(new.arrays["w_out"], tiny_params.arrays["w_out"] - 0.01, atol=1e-9)
    assert np.allclose(new.arrays["tok_emb"], tiny_params.arrays["tok_emb"] + 0.01, atol=1e-9)


def test_optimizer_zero_gradient_is_noop(tiny_params):
    grads = {k: np.zeros_like(v) for k, v in tiny_params.arrays.items()}
    new, state = optimizer_step(tiny_params, grads, init_adam(tiny_params), lr=0.1)
    for name in new.arrays:
        assert np.array_equal(new.arrays[name], tiny_params.arrays[name])
    assert state.step == 1


def test_optimizer_descends_on_real_objective(space):
    cfg = ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                      num_heads=2, num_layers=1, mlp_hidden=12, seed=4)
    params = init_params(cfg)
    batch = small_batch(space, 2)
    w = LossWeights(1.0, 1.0)
    state = init_adam(params)
    first = batch_objective(params, batch, w)
    for _ in range(20):
        grads, _ = gradient(params, batch, w)
        params, state = optimizer_step(params, grads, state, lr=1e-2)
    assert batch_objective(params, batch, w) < first


def test_optimizer_is_deterministic(tiny_params):
    g = {k: np.full_like(v, 0.3) for k, v in tiny_params.arrays.items()}
    a1, s1 = optimizer_step(tiny_params, g, init_adam(tiny_params), lr=3e-3)
    a2, s2 = optimizer_step(tiny_params, g, init_adam(tiny_params), lr=3e-3)
    for name in a1.arrays:
        assert np.array_equal(a1.arrays[name], a2.arrays[name])
    assert s1.step == s2.step == 1


def test_optimizer_rejects_mismatched_grads(tiny_params):
    grads = {k: np.zeros_like(v) for k, v in tiny_params.arrays.items()}
    del grads["w_out"]
    with pytest.raises(ShapeMismatch):
        optimizer_step(tiny_params, grads, init_adam(tiny_params), lr=0.1)
    grads = {k: np.zeros_like(v) for k, v in tiny_params.arrays.items()}
    grads["w_out"] = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        optimizer_step(tiny_params, grads, init_adam(tiny_params), lr=0.1)


def test_checkpoint_round_trip(tmp_path, tiny_params, space):
    path = tmp_path / "ck.json"
    save_checkpoint(tiny_params, path, meta={"preamble": "special_token"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"preamble": "special_token"}
    assert loaded.config == tiny_params.config
    for name in tiny_params.arrays:
        assert np.array_equal(loaded.arrays[name], tiny_params.arrays[name])
    tokens = [1, 4, space.verb_token(2), space.noun_token(3), 3]
    assert np.array_equal(forward(loaded, tokens), forward(tiny_params, tokens))


def test_checkpoint_rejects_bad_documents(tmp_path, tiny_params):
    path = tmp_path / "ck.json"
    save_checkpoint(tiny_params, path)
    doc = json.loads(path.read_text())

    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_checkpoint(path)

    doc["version"] = 1
    del doc["arrays"]["w_out"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_checkpoint(path)

    save_checkpoint(tiny_params, path)
    doc = json.loads(path.read_text())
    doc["arrays"]["b_out"] = [0.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_undecodable_files(tmp_path, tiny_params):
    path = tmp_path / "ck.json"
    save_checkpoint(tiny_params, path)
    text = path.read_text()
    doc = json.loads(text)

    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError, match="JSONDecodeError"):
        load_checkpoint(path)

    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "model_config"}))
    with pytest.raises(ParseError, match="model_config"):
        load_checkpoint(path)

    for bad in (float("nan"), float("inf")):
        doc["arrays"]["w_out"][1][2] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="non-finite"):
            load_checkpoint(path)


@pytest.mark.parametrize("vocab_name", ["demo", "scaled"])
def test_kv_cache_steps_match_full_forward(space, vocab_name):
    """Prefill then one token at a time: every step's last-position logits
    match one full forward over the whole prefix."""
    if vocab_name == "scaled":
        space = TokenSpace(scaled_vocabulary())
    cfg = ModelConfig(vocab_size=space.size, context_len=40, embed_dim=8,
                      num_heads=2, num_layers=2, mlp_hidden=12, seed=4)
    params = init_params(cfg)
    rng = np.random.default_rng(4)
    for name, arr in params.arrays.items():
        params.arrays[name] = rng.normal(0.0, 0.4, arr.shape)
    tokens = rng.integers(0, space.size, (3, cfg.context_len))
    kv = []
    logits = _forward_batch(params, tokens[:, :5], kv=kv)
    full = _forward_batch(params, tokens[:, :5])
    assert np.array_equal(logits, full)
    for t in range(5, cfg.context_len):
        step = _forward_batch(params, tokens[:, t : t + 1], kv=kv)
        full = _forward_batch(params, tokens[:, : t + 1])
        assert step.shape == (3, 1, space.size)
        np.testing.assert_allclose(step[:, 0], full[:, -1], rtol=0, atol=1e-12)
    assert [k.shape for layer in kv for k in layer] == [(3, 2, cfg.context_len, 4)] * 4
    with pytest.raises(ContextOverflow):
        _forward_batch(params, tokens[:, :1], kv=kv)


_STEP_FAULTS = """
import resource
import numpy as np
from biant.model import LossWeights, ModelConfig, gradient, init_adam, init_params, optimizer_step
from biant.prompt import SPECIAL_TOKEN, TokenSpace, encode_instance
from biant.sequence import AnnotatedVideo, WindowConfig, make_backward_instance, make_forward_instances
from biant.vocab import ActionLabel, {vocab}

space = TokenSpace({vocab}())
rng = np.random.default_rng(0)
video = AnnotatedVideo("v", tuple(
    ActionLabel(int(rng.integers(space.num_verbs)), int(rng.integers(space.num_nouns)))
    for _ in range(28)))
fwd = make_forward_instances(video, WindowConfig())[0]
pair = [encode_instance(space, inst, SPECIAL_TOKEN) for inst in (fwd, make_backward_instance(fwd, 16))]
assert [len(e.tokens) for e in pair] == [86, 86]
for batch in ([pair[0]] * 32, pair * 16):
    params = init_params(ModelConfig(vocab_size=space.size))
    adam = init_adam(params)
    for i in range(13):
        if i == 3:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        grads, _ = gradient(params, batch, LossWeights(1.0, 0.5))
        params, adam = optimizer_step(params, grads, adam, 1e-3)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are set through glibc")
@pytest.mark.parametrize("vocab", ["demo_vocabulary", "scaled_vocabulary"])
def test_training_step_reuses_freed_memory(vocab):
    """After warm-up, a (32, 86) gradient + Adam step takes its temporaries
    from the heap, not from fresh pages (about 7,000 minor faults per step
    at V = 42 and 4,100 at V = 660 under glibc's default policy). Checked on
    32 forward instances (one first-target group) and on 16 forward and 16
    backward ones, interleaved (two groups, with last blocks of 61 and 37
    rows)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(biant.model.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _STEP_FAULTS.format(vocab=vocab)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    faults = [float(line) for line in done.stdout.split()]
    assert len(faults) == 2 and max(faults) < 500, faults
