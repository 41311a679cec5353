"""Anticipation instances: sliding-window extraction and backward reversal.

A forward instance observes the ``n_obs_fwd`` segments up to a stopping
index T and targets the ``z_fwd`` segments after it. The paired backward
instance reverses the whole window: the first ``n_obs_bwd`` actions of the
reversed sequence become the observation, the remaining
``z_bwd = n_obs_fwd + z_fwd - n_obs_bwd`` become the prediction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, InvalidBackwardSplit
from .vocab import ActionLabel

FORWARD = "forward"
BACKWARD = "backward"

VERB_AXIS = "verb"
NOUN_AXIS = "noun"
ACTION_AXIS = "action"


@dataclass
class WindowConfig:
    """Interval lengths for both tasks plus the stopping-time stride.

    Defaults follow the benchmark protocol: observe 8 segments, predict 20,
    and give the backward task a 16-segment observation (so it predicts 12).
    """

    n_obs_fwd: int = 8
    z_fwd: int = 20
    n_obs_bwd: int = 16
    stride: int = 1

    def __post_init__(self) -> None:
        if self.n_obs_fwd < 1 or self.z_fwd < 1 or self.stride < 1:
            raise ConfigError("window lengths and stride must be >= 1")
        if not 1 <= self.n_obs_bwd <= self.n_obs_fwd + self.z_fwd - 1:
            raise ConfigError(
                f"n_obs_bwd={self.n_obs_bwd} leaves no backward future "
                f"(need 1 <= n_obs_bwd <= {self.n_obs_fwd + self.z_fwd - 1})"
            )

    @property
    def z_bwd(self) -> int:
        return self.n_obs_fwd + self.z_fwd - self.n_obs_bwd

    @property
    def window_len(self) -> int:
        return self.n_obs_fwd + self.z_fwd


@dataclass
class AnnotatedVideo:
    """A video reduced to its ordered per-segment action labels."""

    id: str
    segments: list[ActionLabel]


@dataclass
class AnticipationInstance:
    """One (observed interval, future interval) pair split at stop_index.

    ``stop_index`` is the 0-based segment index of the last observed action
    in the forward sense, for both directions.
    """

    direction: str
    observed: tuple[ActionLabel, ...]
    future: tuple[ActionLabel, ...]
    source_video: str
    stop_index: int
    instance_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.instance_id:
            suffix = "" if self.direction == FORWARD else ":b"
            self.instance_id = f"{self.source_video}:t{self.stop_index:04d}{suffix}"


def make_forward_instances(video: AnnotatedVideo, cfg: WindowConfig) -> list[AnticipationInstance]:
    """Enumerate forward instances by sliding the stopping time with cfg.stride.

    A video shorter than one full window yields an empty list. For a video of
    N segments the count is max(0, (N - n_obs_fwd - z_fwd) // stride + 1).
    """
    n = len(video.segments)
    first_t = cfg.n_obs_fwd - 1
    last_t = n - cfg.z_fwd - 1
    out: list[AnticipationInstance] = []
    for t in range(first_t, last_t + 1, cfg.stride):
        observed = tuple(video.segments[t - cfg.n_obs_fwd + 1 : t + 1])
        future = tuple(video.segments[t + 1 : t + 1 + cfg.z_fwd])
        out.append(
            AnticipationInstance(
                direction=FORWARD,
                observed=observed,
                future=future,
                source_video=video.id,
                stop_index=t,
            )
        )
    return out


def make_backward_instance(fwd: AnticipationInstance, n_obs_bwd: int) -> AnticipationInstance:
    """Derive the reversed-task twin of a forward instance.

    The full window (observed + future) is reversed; the first ``n_obs_bwd``
    reversed actions form the backward observation and the rest form the
    backward target, so both windows cover exactly the same segments.
    """
    if fwd.direction != FORWARD:
        raise ConfigError("backward instances derive from forward instances")
    total = len(fwd.observed) + len(fwd.future)
    if not 1 <= n_obs_bwd <= total - 1:
        raise InvalidBackwardSplit(
            f"n_obs_bwd={n_obs_bwd} must be in [1, {total - 1}] for a window of {total}"
        )
    reversed_window = tuple(reversed(fwd.observed + fwd.future))
    return AnticipationInstance(
        direction=BACKWARD,
        observed=reversed_window[:n_obs_bwd],
        future=reversed_window[n_obs_bwd:],
        source_video=fwd.source_video,
        stop_index=fwd.stop_index,
    )

