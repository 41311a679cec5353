"""Forward-only constrained decoding of K candidate futures.

Inference always runs the forward task, whatever mix the model was trained
on. The K candidates of one instance decode as one batch against a
key/value cache, one step per row of ``prompt.target_masks``; each row is
applied to the model's distribution before argmax/sampling, so every
candidate parses into exactly z (verb, noun) actions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySupport
from .model import Parameters, _forward_batch, _softmax
from .prompt import TokenSpace, decode_actions, encode_prompt, target_masks
from .sequence import FORWARD
from .vocab import ActionLabel

@dataclass
class GenerationConfig:
    """How many candidates to decode and how to randomize them: candidate 0
    is greedy, the other k - 1 are sampled at ``temperature``."""

    k: int = 5
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0 < self.temperature < np.inf:
            raise ConfigError("temperature must be > 0 and finite")


@dataclass
class CandidateSet:
    """Exactly k decoded futures for one instance, each of length z."""

    instance_id: str
    candidates: list[tuple[ActionLabel, ...]]

    def __post_init__(self) -> None:
        lengths = {len(c) for c in self.candidates}
        if len(lengths) > 1:
            raise ConfigError(f"candidates have mixed lengths: {sorted(lengths)}")


def renormalize_masked(dist: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Restrict each distribution (last axis) to the admitted tokens, rescaled to sum 1.

    A non-finite admitted total (a NaN or infinite logit) is EmptySupport too."""
    kept = np.where(mask, dist, 0.0)
    total = kept.sum(axis=-1, keepdims=True)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise EmptySupport("mask admits no token with finite nonzero probability")
    return kept / total


def _candidate_rng(seed: int, instance_id: str, index: int) -> np.random.Generator:
    """Stream keyed by (seed, instance id, candidate index): order independent."""
    digest = int.from_bytes(hashlib.sha256(instance_id.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, digest, index]))


def _decode_one(params: Parameters, space: TokenSpace, prompt: list[int], z: int,
                temperature: float, rngs: list[np.random.Generator | None]) -> np.ndarray:
    """Emit one grammar-masked target region per entry of ``rngs`` (None:
    greedy) as one batch; returns the (len(rngs), 3z) emitted tokens. One
    prefill of the shared prompt fills a key/value cache that every row then
    extends by one token per row of the grammar schedule.

    A sampled row draws exactly what ``Generator.choice`` with ``p=dist[row]``
    would at each step: one uniform u per step, forced SEP/EOS steps
    included, and the token is the count of ``cumsum(p) / cumsum(p)[-1] <= u``."""
    schedule = target_masks(space, z)
    sampled = [row for row, rng in enumerate(rngs) if rng is not None]
    draws = np.array([rngs[row].random(3 * z) for row in sampled])
    kv: list = []
    logits = _forward_batch(params, np.asarray([prompt], dtype=np.int64), kv=kv)
    n = len(rngs)
    kv = [(np.repeat(k, n, axis=0), np.repeat(v, n, axis=0)) for k, v in kv]
    logits = np.repeat(logits[:, -1], n, axis=0)
    emitted = np.zeros((n, 3 * z), dtype=np.int64)
    for step, mask in enumerate(schedule):
        if step:
            logits = _forward_batch(params, emitted[:, step - 1 : step], kv=kv)[:, -1]
        # Mask before the softmax: at tiny temperatures the full-vocab softmax
        # underflows to a one-hot that may lie outside the grammar.
        scores = np.where(mask, logits / temperature, -np.inf)
        dist = renormalize_masked(_softmax(scores), mask)
        emitted[:, step] = dist.argmax(axis=1)
        if sampled:
            cdf = dist[sampled].cumsum(axis=1)
            emitted[sampled, step] = (cdf / cdf[:, -1:] <= draws[:, step, None]).sum(axis=1)
    return emitted


def generate_candidates(
    params: Parameters,
    space: TokenSpace,
    observed,
    z: int,
    cfg: GenerationConfig,
    mode: str,
    instance_id: str = "",
) -> CandidateSet:
    """Decode k constrained candidates from an observed action prefix."""
    prompt = encode_prompt(space, mode, FORWARD, observed)
    rngs = [None] + [_candidate_rng(cfg.seed, instance_id, i) for i in range(1, cfg.k)]
    emitted = _decode_one(params, space, prompt, z, cfg.temperature, rngs)
    return CandidateSet(instance_id, [tuple(decode_actions(space, row)) for row in emitted])

