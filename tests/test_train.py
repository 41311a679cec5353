import csv
import importlib

import numpy as np
import pytest

from biant.errors import ConfigError, ContextOverflow, EmptyTrainingSet
from biant.model import LossWeights, ModelConfig, gradient, init_adam, init_params, optimizer_step
from biant.prompt import CTRL_BWD, CTRL_FWD, encode_instance
from biant.sequence import BACKWARD, FORWARD, WindowConfig, make_forward_instances
from biant.train import TrainConfig, TrainingLog, build_training_set, train

from conftest import make_video


def small_model_cfg(space, seed=1):
    return ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                       num_heads=2, num_layers=1, mlp_hidden=12, seed=seed)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)


def test_build_training_set_pairs_each_window(space):
    videos = [make_video("v0", 37, seed=1)]
    cfg = TrainConfig(weights=LossWeights(1.0, 1.0), epochs=1)
    out = build_training_set(videos, cfg, space)
    assert len(out) == 20
    assert [e.direction for e in out] == [FORWARD, BACKWARD] * 10
    assert all(int(e.tokens[1]) == CTRL_FWD for e in out[0::2])
    assert all(int(e.tokens[1]) == CTRL_BWD for e in out[1::2])
    assert [(len(e.tokens) - e.prompt_len) // 3 for e in out[0::2]] == [20] * 10
    assert [(len(e.tokens) - e.prompt_len) // 3 for e in out[1::2]] == [12] * 10


def test_build_training_set_forward_only_when_beta_zero(space):
    videos = [make_video("v0", 37, seed=1)]
    cfg = TrainConfig(weights=LossWeights(1.0, 0.0), epochs=1)
    out = build_training_set(videos, cfg, space)
    assert len(out) == 10
    assert all(e.direction == FORWARD for e in out)


def test_build_training_set_is_deterministic(space):
    videos = [make_video("v0", 30, seed=2), make_video("v1", 29, seed=3)]
    cfg = TrainConfig(epochs=1, seed=9)
    a = build_training_set(videos, cfg, space)
    b = build_training_set(videos, cfg, space)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.tokens, y.tokens)
        assert x.instance_id == y.instance_id


def test_train_rejects_mismatched_vocab(space):
    cfg = TrainConfig(epochs=1)
    bad_model = ModelConfig(vocab_size=space.size + 1, embed_dim=8, num_heads=2, mlp_hidden=12)
    with pytest.raises(ConfigError):
        train([make_video("v0", 28, seed=6)], cfg, bad_model, space)


def test_train_empty_training_set(space):
    cfg = TrainConfig(epochs=1)
    with pytest.raises(EmptyTrainingSet):
        train([make_video("v0", 27, seed=6)], cfg, small_model_cfg(space), space)


def test_train_rejects_context_overflow_before_init(space, monkeypatch):
    def no_init(_cfg):
        raise AssertionError("init_params ran before the context check")

    monkeypatch.setattr(importlib.import_module("biant.train"), "init_params", no_init)
    short = ModelConfig(vocab_size=space.size, context_len=85, embed_dim=8,
                        num_heads=2, mlp_hidden=12)
    with pytest.raises(ContextOverflow, match="86 tokens"):
        train([make_video("v0", 28, seed=6)], TrainConfig(epochs=1), short, space)


def test_train_is_deterministic(space):
    videos = [make_video("v0", 30, seed=8)]
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    p1, log1 = train(videos, cfg, small_model_cfg(space), space)
    p2, log2 = train(videos, cfg, small_model_cfg(space), space)
    for name in p1.arrays:
        assert np.array_equal(p1.arrays[name], p2.arrays[name])
    assert [e.mean_loss for e in log1.epochs] == [e.mean_loss for e in log2.epochs]
    p3, _ = train(videos, TrainConfig(epochs=2, batch_size=4, seed=6),
                  small_model_cfg(space), space)
    assert not np.array_equal(p1.arrays["w_out"], p3.arrays["w_out"])


def test_forward_only_train_matches_backward_free_replica(space):
    """With beta=0 the joint loop is bitwise-equal to one with no backward path."""
    videos = [make_video("v0", 30, seed=10), make_video("v1", 29, seed=11)]
    cfg = TrainConfig(weights=LossWeights(1.0, 0.0), epochs=2, batch_size=8, seed=3)
    model_cfg = small_model_cfg(space)
    joint, _ = train(videos, cfg, model_cfg, space)

    dataset = []
    for video in videos:
        for fwd in make_forward_instances(video, cfg.window):
            dataset.append(encode_instance(space, fwd, cfg.preamble))
    params = init_params(model_cfg)
    state = init_adam(params)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 7, epoch])
        ).permutation(len(dataset))
        for start in range(0, len(order), cfg.batch_size):
            batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
            grads, _ = gradient(params, batch, cfg.weights)
            params, state = optimizer_step(params, grads, state, cfg.lr)

    for name in joint.arrays:
        assert np.array_equal(joint.arrays[name], params.arrays[name])


def test_train_log_contract(space):
    videos = [make_video("v0", 30, seed=12)]
    cfg = TrainConfig(weights=LossWeights(1.0, 0.75), epochs=3, batch_size=4, seed=2)
    _, log = train(videos, cfg, small_model_cfg(space), space)
    assert [e.epoch for e in log.epochs] == [0, 1, 2]
    for e in log.epochs:
        assert e.mean_loss == 1.0 * e.mean_loss_fwd + 0.75 * e.mean_loss_bwd
        assert e.wallclock_s >= 0.0
    assert log.first_loss == log.epochs[0].mean_loss
    assert log.final_loss == log.epochs[-1].mean_loss


def test_train_log_beta_zero_reports_zero_backward(space):
    videos = [make_video("v0", 30, seed=13)]
    cfg = TrainConfig(weights=LossWeights(1.0, 0.0), epochs=1, batch_size=4)
    _, log = train(videos, cfg, small_model_cfg(space), space)
    assert log.epochs[0].mean_loss_bwd == 0.0
    assert log.epochs[0].mean_loss == log.epochs[0].mean_loss_fwd


def test_training_reduces_loss(space):
    videos = [make_video("v0", 34, seed=14)]
    cfg = TrainConfig(epochs=6, batch_size=8, lr=3e-3, seed=0)
    _, log = train(videos, cfg, small_model_cfg(space), space)
    assert log.final_loss < log.first_loss


def test_log_csv_round_trip(tmp_path):
    from biant.train import EpochStats

    log = TrainingLog([EpochStats(0, 12.25, 6.5, 5.75, 1.234),
                       EpochStats(1, 0.1, 0.1, 0.0, 0.5)])
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "mean_loss", "mean_loss_fwd", "mean_loss_bwd", "wallclock_s"]
    assert len(rows) == 3
    assert float(rows[1][1]) == 12.25
    assert float(rows[2][2]) == 0.1
