"""One run-level config document with CLI-flag overrides.

A run is described by a single JSON object with optional sections; every
omitted field takes the shipped default. Component seeds are always derived
from the top-level seed (scenario s, model s+1, train s+2, generation s+3)
so a run is reproducible from one integer; per-section "seed" keys are
rejected to keep that rule visible.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import ScenarioConfig
from .errors import ConfigError, load_json
from .generate import GenerationConfig
from .model import LossWeights, ModelConfig
from .prompt import DETAILED_DESCRIPTION, PREAMBLE_MODES, SPECIAL_TOKEN, TokenSpace
from .sequence import WindowConfig
from .train import TrainConfig
from .vocab import Vocabulary, demo_vocabulary, load_vocabulary, scaled_vocabulary

# Short flag spellings accepted for --preamble.
PREAMBLE_ALIASES = {
    "special": SPECIAL_TOKEN,
    "description": DETAILED_DESCRIPTION,
    SPECIAL_TOKEN: SPECIAL_TOKEN,
    DETAILED_DESCRIPTION: DETAILED_DESCRIPTION,
}


@dataclass
class RunConfig:
    """Everything one experiment needs, flat enough to echo as JSON."""

    out: str = "run"
    seed: int = 0
    vocab: str = "demo"
    preamble: str = SPECIAL_TOKEN
    eval_stride: int = 13
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    embed_dim: int = 32
    num_heads: int = 2
    num_layers: int = 1
    mlp_hidden: int = 64
    context_len: int = 96
    k: int = 5
    temperature: float = 1.0
    ablate_seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self) -> None:
        if min([self.seed, *self.ablate_seeds]) < 0:
            raise ConfigError("seeds must be >= 0")
        if self.preamble not in PREAMBLE_MODES:
            raise ConfigError(f"unknown preamble mode: {self.preamble!r}")
        if self.eval_stride < 1:
            raise ConfigError("eval_stride must be >= 1")
        if not self.ablate_seeds:
            raise ConfigError("ablate_seeds must be nonempty")
        if self.scenario.video_len < self.window.window_len:
            raise ConfigError(
                f"video_len {self.scenario.video_len} cannot fit the configured "
                f"{self.window.window_len}-segment window"
            )
        # Each component config checks its own fields, so a bad value fails at load.
        train_config(self)
        gen_config(self)
        ModelConfig(vocab_size=1, **_section(self, "model"))


def _names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


# Nested sections are RunConfig fields holding a dataclass; flat sections
# group the RunConfig fields that feed one component's config.
_NESTED = {"scenario": ScenarioConfig, "window": WindowConfig, "weights": LossWeights}
_FLAT = {"train": TrainConfig, "model": ModelConfig, "gen": GenerationConfig}
_TOP_FIELDS = ("out", "seed", "vocab", "preamble", "eval_stride")
# Section key -> RunConfig field; every section key not named here is its own field.
_RENAMED = {"seeds": "ablate_seeds"}

_SECTION_FIELDS = {
    **{section: tuple(n for n in _names(cls) if n != "seed") for section, cls in _NESTED.items()},
    **{section: tuple(n for n in _names(RunConfig)
                      if n in _names(cls) and n not in _TOP_FIELDS and n not in _NESTED)
       for section, cls in _FLAT.items()},
    "ablate": ("seeds",),
}


def _check_keys(section: str, given: dict, allowed: tuple) -> None:
    unknown = set(given) - set(allowed)
    if "seed" in unknown:
        raise ConfigError(
            f"config section {section!r} must not set 'seed'; seeds derive from the top level"
        )
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")


def _fits(value, default) -> bool:
    """Whether a document value has the JSON type of a field's default: bool
    for bool, int (not bool) for int, int or float for float, str for str, and
    a list of ints for a list."""
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, 0) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def _check_types(prefix: str, given: dict, defaults: dict) -> None:
    for key, value in given.items():
        if not _fits(value, defaults[key]):
            raise ConfigError(f"config key {prefix + key!r} must have the type of its default "
                              f"{json.dumps(defaults[key])}, got {json.dumps(value)}")


def run_config_from_document(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object; unknown keys and values
    of the wrong type are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys("top-level", doc, _TOP_FIELDS + tuple(_SECTION_FIELDS))
    defaults = run_config_to_document(RunConfig())
    kwargs: dict = {k: doc[k] for k in _TOP_FIELDS if k in doc}
    _check_types("", kwargs, defaults)
    for section, allowed in _SECTION_FIELDS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        _check_keys(section, body, allowed)
        _check_types(f"{section}.", body, defaults[section])
        if section in _NESTED:
            kwargs[section] = _NESTED[section](**body)
        else:
            kwargs.update((_RENAMED.get(k, k), v) for k, v in body.items())
    return RunConfig(**kwargs)


def _section(cfg: RunConfig, section: str) -> dict:
    source = getattr(cfg, section) if section in _NESTED else cfg
    return {k: getattr(source, _RENAMED.get(k, k)) for k in _SECTION_FIELDS[section]}


def run_config_to_document(cfg: RunConfig) -> dict:
    doc = {k: getattr(cfg, k) for k in _TOP_FIELDS}
    doc.update((section, _section(cfg, section)) for section in _SECTION_FIELDS)
    return doc


def load_run_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return run_config_from_document(load_json(path))


def save_run_config(cfg: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_config_to_document(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply CLI-flag values (None means flag absent) on top of a config; a
    flag named after a field of a nested section sets that field."""
    given = {k: v for k, v in overrides.items() if v is not None}
    if "preamble" in given:
        if given["preamble"] not in PREAMBLE_ALIASES:
            raise ConfigError(f"unknown preamble mode: {given['preamble']!r}")
        given["preamble"] = PREAMBLE_ALIASES[given["preamble"]]
    for section in _NESTED:
        part = {k: given.pop(k) for k in _SECTION_FIELDS[section] if k in given}
        if part:
            given[section] = dataclasses.replace(getattr(cfg, section), **part)
    return dataclasses.replace(cfg, **given)


def resolve_vocab(cfg: RunConfig) -> Vocabulary:
    """'demo' and 'scaled' are built in; anything else is a document path."""
    if cfg.vocab == "demo":
        return demo_vocabulary()
    if cfg.vocab == "scaled":
        return scaled_vocabulary()
    return load_vocabulary(cfg.vocab)


def scenario_config(cfg: RunConfig) -> ScenarioConfig:
    return dataclasses.replace(cfg.scenario, seed=cfg.seed)


def model_config(cfg: RunConfig, space: TokenSpace) -> ModelConfig:
    return ModelConfig(vocab_size=space.size, seed=cfg.seed + 1, **_section(cfg, "model"))


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(window=cfg.window, weights=cfg.weights, preamble=cfg.preamble,
                       seed=cfg.seed + 2, **_section(cfg, "train"))


def gen_config(cfg: RunConfig) -> GenerationConfig:
    return GenerationConfig(seed=cfg.seed + 3, **_section(cfg, "gen"))


def eval_window(cfg: RunConfig) -> WindowConfig:
    return dataclasses.replace(cfg.window, stride=cfg.eval_stride)
