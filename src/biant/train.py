"""Joint bidirectional training loop.

Every sliding window yields a forward instance and, when beta > 0, its
reversed backward twin; both are encoded into one shuffled stream and the
model minimizes the direction-weighted cross-entropy over mixed batches.
With beta = 0 no backward instance is ever constructed, so a forward-only
run is bitwise-identical to a loop that has no backward code path at all.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContextOverflow, EmptyTrainingSet, NumericalDivergence
from .model import (
    LossWeights,
    ModelConfig,
    Parameters,
    _gradient_detailed,
    init_adam,
    init_params,
    optimizer_step,
)
from .prompt import SPECIAL_TOKEN, EncodedInstance, TokenSpace, encode_instance
from .sequence import (
    FORWARD,
    AnnotatedVideo,
    WindowConfig,
    make_backward_instance,
    make_forward_instances,
)


@dataclass
class TrainConfig:
    """Windowing, loss weighting, and optimization settings for one run."""

    window: WindowConfig = field(default_factory=WindowConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    preamble: str = SPECIAL_TOKEN
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ConfigError("lr must be > 0 and finite")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    mean_loss_fwd: float
    mean_loss_bwd: float
    wallclock_s: float


@dataclass
class TrainingLog:
    """Per-epoch loss means; mean_loss = alpha*mean_fwd + beta*mean_bwd."""

    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss", "mean_loss_fwd", "mean_loss_bwd", "wallclock_s"])
            for e in self.epochs:
                writer.writerow([e.epoch, repr(e.mean_loss), repr(e.mean_loss_fwd),
                                 repr(e.mean_loss_bwd), f"{e.wallclock_s:.3f}"])

    @property
    def first_loss(self) -> float:
        return self.epochs[0].mean_loss

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].mean_loss


def build_training_set(
    videos: list[AnnotatedVideo], cfg: TrainConfig, space: TokenSpace
) -> list[EncodedInstance]:
    """Encode every window forward and, iff beta > 0, backward, in video order."""
    out: list[EncodedInstance] = []
    for video in videos:
        for fwd in make_forward_instances(video, cfg.window):
            out.append(encode_instance(space, fwd, cfg.preamble))
            if cfg.weights.beta > 0:
                bwd = make_backward_instance(fwd, cfg.window.n_obs_bwd)
                out.append(encode_instance(space, bwd, cfg.preamble))
    return out


def _epoch_stats(epoch, losses, directions, weights, t0) -> EpochStats:
    per_dir = {FORWARD: [], "rest": []}
    for loss, direction in zip(losses, directions):
        per_dir[FORWARD if direction == FORWARD else "rest"].append(loss)
    mean_fwd = float(np.mean(per_dir[FORWARD])) if per_dir[FORWARD] else 0.0
    mean_bwd = float(np.mean(per_dir["rest"])) if per_dir["rest"] else 0.0
    mean_loss = weights.alpha * mean_fwd + weights.beta * mean_bwd
    return EpochStats(epoch, mean_loss, mean_fwd, mean_bwd, time.monotonic() - t0)


def train(
    videos: list[AnnotatedVideo],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    space: TokenSpace,
) -> tuple[Parameters, TrainingLog]:
    """Run the full loop; deterministic given cfg.seed and model_cfg.seed."""
    if model_cfg.vocab_size != space.size:
        raise ConfigError(
            f"model vocab_size {model_cfg.vocab_size} != token space size {space.size}"
        )
    dataset = build_training_set(videos, cfg, space)
    if not dataset:
        raise EmptyTrainingSet("no training instances; videos shorter than one window")
    longest = max(len(e.tokens) for e in dataset)
    if longest > model_cfg.context_len:
        raise ContextOverflow(f"longest training instance has {longest} tokens, "
                              f"context_len is {model_cfg.context_len}")

    params = init_params(model_cfg)
    state = init_adam(params)
    log = TrainingLog()
    t0 = time.monotonic()
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 7, epoch])
        ).permutation(len(dataset))
        losses: list[float] = []
        directions: list[str] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
            try:
                grads, batch_losses = _gradient_detailed(params, batch, cfg.weights)
            except NumericalDivergence as err:
                raise NumericalDivergence(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: {err}"
                ) from err
            params, state = optimizer_step(params, grads, state, cfg.lr)
            losses.extend(batch_losses.per_instance.tolist())
            directions.extend(e.direction for e in batch)
        log.epochs.append(_epoch_stats(epoch, losses, directions, cfg.weights, t0))
        t0 = time.monotonic()
    return params, log
