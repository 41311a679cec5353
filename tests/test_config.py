import json

import pytest

from biant.config import (
    RunConfig,
    apply_overrides,
    eval_window,
    gen_config,
    load_run_config,
    model_config,
    resolve_vocab,
    run_config_from_document,
    run_config_to_document,
    save_run_config,
    scenario_config,
    train_config,
)
from biant.data import ScenarioConfig
from biant.errors import ConfigError, ParseError
from biant.generate import GenerationConfig
from biant.model import LossWeights, ModelConfig
from biant.prompt import DETAILED_DESCRIPTION, SPECIAL_TOKEN, TokenSpace
from biant.sequence import WindowConfig
from biant.train import TrainConfig


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.k == 5
    assert cfg.weights == LossWeights(1.0, 1.0)
    assert cfg.window.n_obs_fwd == 8 and cfg.window.z_fwd == 20


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(preamble="prose")
    with pytest.raises(ConfigError):
        RunConfig(eval_stride=0)
    with pytest.raises(ConfigError):
        RunConfig(ablate_seeds=[])


def test_video_len_checked_against_configured_window():
    with pytest.raises(ConfigError, match="video_len 27 cannot fit the configured 28-segment"):
        RunConfig(scenario=ScenarioConfig(video_len=27))
    RunConfig(scenario=ScenarioConfig(video_len=28))
    RunConfig(scenario=ScenarioConfig(video_len=20),
              window=WindowConfig(n_obs_fwd=4, z_fwd=10, n_obs_bwd=8))
    with pytest.raises(ConfigError, match="35-segment window"):
        RunConfig(scenario=ScenarioConfig(video_len=30),
                  window=WindowConfig(n_obs_fwd=10, z_fwd=25))
    with pytest.raises(ConfigError, match="48-segment window"):
        run_config_from_document({"window": {"z_fwd": 40}})


def test_document_round_trip():
    cfg = RunConfig(seed=9, k=3, epochs=2, preamble=DETAILED_DESCRIPTION,
                    eval_stride=5, ablate_seeds=[4, 5])
    doc = run_config_to_document(cfg)
    again = run_config_from_document(doc)
    assert again == cfg
    assert json.dumps(doc)  # JSON-serializable as-is


def test_document_leaf_keys():
    """Every setting a config document can hold; adding or removing one
    changes this list."""
    doc = run_config_to_document(RunConfig())
    leaves = sorted(f"{key}.{sub}" if isinstance(value, dict) else key
                    for key, value in doc.items()
                    for sub in (value if isinstance(value, dict) else [None]))
    assert leaves == [
        "ablate.seeds", "eval_stride", "gen.k", "gen.temperature",
        "model.context_len", "model.embed_dim", "model.mlp_hidden", "model.num_heads",
        "model.num_layers", "out", "preamble", "scenario.coupling", "scenario.noise_rate",
        "scenario.num_videos", "scenario.video_len", "seed", "train.batch_size",
        "train.epochs", "train.lr", "vocab", "weights.alpha", "weights.beta",
        "window.n_obs_bwd", "window.n_obs_fwd", "window.stride", "window.z_fwd",
    ]


def test_document_partial_sections():
    cfg = run_config_from_document({
        "seed": 3,
        "weights": {"beta": 0.5},
        "train": {"epochs": 2},
        "scenario": {"num_videos": 12, "coupling": 0.5},
    })
    assert cfg.seed == 3
    assert cfg.weights == LossWeights(1.0, 0.5)
    assert cfg.epochs == 2
    assert cfg.scenario.num_videos == 12
    assert cfg.scenario.coupling == 0.5
    assert cfg.batch_size == 32


def test_document_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="top-level"):
        run_config_from_document({"optimizer": "adam"})
    with pytest.raises(ConfigError, match="train"):
        run_config_from_document({"train": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="must be an object"):
        run_config_from_document({"train": 3})
    with pytest.raises(ConfigError):
        run_config_from_document([1, 2])


def test_document_rejects_section_seeds():
    for section in ("scenario", "train", "model", "gen"):
        with pytest.raises(ConfigError, match="derive from the top level"):
            run_config_from_document({section: {"seed": 1}})


def test_load_save_round_trip(tmp_path):
    cfg = RunConfig(seed=2, out="exp", k=2)
    path = tmp_path / "cfg.json"
    save_run_config(cfg, path)
    assert load_run_config(path) == cfg
    assert load_run_config(None) == RunConfig()
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        load_run_config(bad)


def test_apply_overrides():
    cfg = RunConfig()
    out = apply_overrides(cfg, seed=7, k=2, alpha=None, beta=0.5,
                          preamble="description", n_obs_bwd=4, out="exp2")
    assert out.seed == 7
    assert out.k == 2
    assert out.weights == LossWeights(1.0, 0.5)
    assert out.preamble == DETAILED_DESCRIPTION
    assert out.window.n_obs_bwd == 4
    assert out.out == "exp2"
    assert apply_overrides(cfg) == cfg
    assert apply_overrides(cfg, preamble="special_token").preamble == SPECIAL_TOKEN
    with pytest.raises(ConfigError):
        apply_overrides(cfg, preamble="prose")


def test_component_seeds_derive_from_master():
    cfg = RunConfig(seed=10)
    space = TokenSpace(resolve_vocab(cfg))
    assert scenario_config(cfg).seed == 10
    assert model_config(cfg, space).seed == 11
    assert train_config(cfg).seed == 12
    assert gen_config(cfg).seed == 13


def test_default_run_config_builds_component_defaults():
    """RunConfig() sets no component knob away from that component's own
    default; only the derived seeds, window, weights and vocab size differ."""
    cfg = RunConfig()
    space = TokenSpace(resolve_vocab(cfg))
    assert train_config(cfg) == TrainConfig(window=cfg.window, weights=cfg.weights, seed=2)
    assert model_config(cfg, space) == ModelConfig(vocab_size=space.size, seed=1)
    assert gen_config(cfg) == GenerationConfig(seed=3)


def test_builders_carry_fields():
    cfg = RunConfig(seed=1, epochs=4, batch_size=16, lr=1e-3, k=2, eval_stride=9)
    tc = train_config(cfg)
    assert (tc.epochs, tc.batch_size, tc.lr) == (4, 16, 1e-3)
    gc = gen_config(cfg)
    assert gc.k == 2
    ew = eval_window(cfg)
    assert ew.stride == 9
    assert ew.n_obs_fwd == cfg.window.n_obs_fwd
    mc = model_config(cfg, TokenSpace(resolve_vocab(cfg)))
    assert mc.vocab_size == TokenSpace(resolve_vocab(cfg)).size


def test_resolve_vocab(tmp_path):
    assert resolve_vocab(RunConfig(vocab="demo")).num_verbs == 8
    scaled = resolve_vocab(RunConfig(vocab="scaled"))
    assert (scaled.num_verbs, scaled.num_nouns) == (117, 521)
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"verbs": ["go"], "nouns": ["door"]}))
    custom = resolve_vocab(RunConfig(vocab=str(path)))
    assert custom.verbs == ("go",)
