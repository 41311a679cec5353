"""A small causal next-token model with exact analytic gradients.

One block of multi-head self-attention plus a GELU MLP over learned token
and position embeddings, all in float64 numpy. The backward pass is written
by hand so it can be checked against central finite differences to tight
tolerance; training is bitwise deterministic given the seeds.

An instance's targets are its tokens from ``prompt_len`` on. Per-instance
losses are teacher-forced cross-entropies summed over them; forward and
backward anticipation instances use the same loss, weighted alpha and beta
respectively in the joint objective. A training batch is a rectangle: its
instances all have the same length and differ only in prompt length.

Training and decoding share one trunk (embeddings plus blocks; decoding
steps it against a key/value cache). Decoding applies the output head at
every position; the loss and its gradient apply it only at the target
positions. Training also runs the last block only where it can reach a
target: a batch is split into groups of equal prompt length p, and each
group's last block computes queries, attention rows, output projection and
MLP from row p - 1, the first that predicts a target (its keys and values,
and every lower block, still cover all positions). Each group's weight
gradients are 2-D matmuls over its positions, added in prompt-length order.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContextOverflow,
    NumericalDivergence,
    ParseError,
    ShapeMismatch,
    load_json,
)
from .prompt import EncodedInstance
from .sequence import BACKWARD, FORWARD

INIT_STD = 0.02
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FD_EPSILON = 1e-4  # central-difference step of the gradient check
_GELU_C = math.sqrt(2.0 / math.pi)

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 2**20  # the largest value glibc's dynamic rule picks


def _keep_freed_memory_in_heap() -> None:
    """Let the next training step reuse the memory the last one freed.

    A training step allocates tens of MB of numpy temporaries and frees them
    at its end. glibc's default policy returns that memory to the kernel, so
    the next step page-faults it all in again. Fixing the mmap threshold and
    the trim threshold (twice it, the ratio glibc's dynamic rule keeps)
    stops that; both must be set, because setting either one turns the
    dynamic rule off for both. Process-wide; does nothing where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


_keep_freed_memory_in_heap()


@dataclass
class ModelConfig:
    """Shape and seed of the autoregressive model."""

    vocab_size: int
    context_len: int = 96
    embed_dim: int = 32
    num_heads: int = 2
    num_layers: int = 1
    mlp_hidden: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        dims = (self.vocab_size, self.context_len, self.embed_dim,
                self.num_heads, self.num_layers, self.mlp_hidden)
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (*dims, self.seed)):
            raise ConfigError("model dimensions and seed must be integers")
        if min(dims) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.seed < 0:
            raise ConfigError("model seed must be >= 0")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim={self.embed_dim} not divisible by num_heads={self.num_heads}"
            )


@dataclass
class LossWeights:
    """Weighting coefficients for the forward and backward task losses."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf
                and self.alpha + self.beta > 0):
            raise ConfigError("need finite alpha >= 0, beta >= 0, alpha + beta > 0")

    def for_direction(self, direction: str) -> float:
        return self.alpha if direction == FORWARD else self.beta


@dataclass
class Parameters:
    """Named dense float64 arrays plus the config they were shaped from."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    @property
    def num_params(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def copy(self) -> "Parameters":
        return Parameters(self.config, {k: v.copy() for k, v in self.arrays.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}


def _param_shapes(cfg: ModelConfig):
    """(name, shape) of every parameter, in init order; 2-D shapes are
    weights, 1-D shapes biases."""
    d, m, v = cfg.embed_dim, cfg.mlp_hidden, cfg.vocab_size
    yield "tok_emb", (v, d)
    yield "pos_emb", (cfg.context_len, d)
    for i in range(cfg.num_layers):
        # No key bias: softmax scores are invariant to a constant shift per
        # query row, so a key bias would be an unidentifiable direction.
        for name, shape in (("wq", (d, d)), ("bq", (d,)), ("wk", (d, d)), ("wv", (d, d)),
                            ("bv", (d,)), ("wo", (d, d)), ("bo", (d,)), ("w1", (d, m)),
                            ("b1", (m,)), ("w2", (m, d)), ("b2", (d,))):
            yield f"l{i}.{name}", shape
    yield "w_out", (d, v)
    yield "b_out", (v,)


def init_params(cfg: ModelConfig) -> Parameters:
    """Deterministic init: weights ~ N(0, 0.02), biases zero."""
    rng = np.random.default_rng(cfg.seed)
    return Parameters(cfg, {name: rng.normal(0.0, INIT_STD, shape) if len(shape) == 2
                            else np.zeros(shape) for name, shape in _param_shapes(cfg)})


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x2)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _wgrad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over all batch positions of outer(a, b), as one 2-D matmul."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _trunk(params: Parameters, tokens: np.ndarray, keep_cache: bool, kv=None, first: int = 0):
    """Embeddings plus blocks on an int (B, T) batch: the final hidden states,
    and each layer's activations for the backward pass if keep_cache. The
    last block computes only rows ``first`` on, so the hidden states are
    (B, T - first, d); its keys and values, and every lower block, cover all
    positions. With ``kv``, a list of per-layer (keys, values) (empty to
    start one), the batch continues the cached positions and appends its
    keys and values."""
    cfg = params.config
    p = params.arrays
    b, t = tokens.shape
    past = kv[0][0].shape[2] if kv else 0
    if past + t > cfg.context_len:
        raise ContextOverflow(f"sequence length {past + t} exceeds context length {cfg.context_len}")
    scale = 1.0 / math.sqrt(cfg.embed_dim // cfg.num_heads)
    causal_bias = np.triu(np.full((t, past + t), -np.inf), k=past + 1)

    x = p["tok_emb"][tokens] + p["pos_emb"][past : past + t]
    layers = []
    for i in range(cfg.num_layers):
        f = first if i == cfg.num_layers - 1 else 0
        x_in = x
        x_rows = x_in[:, f:]
        q = x_rows @ p[f"l{i}.wq"] + p[f"l{i}.bq"]
        k = x_in @ p[f"l{i}.wk"]
        v = x_in @ p[f"l{i}.wv"] + p[f"l{i}.bv"]
        qh = _split_heads(q, cfg.num_heads)
        kh = _split_heads(k, cfg.num_heads)
        vh = _split_heads(v, cfg.num_heads)
        if kv is not None:  # replace layer i's cache entry, or append it
            if past:
                kh, vh = np.concatenate((kv[i][0], kh), 2), np.concatenate((kv[i][1], vh), 2)
            kv[i : i + 1] = [(kh, vh)]
        attn = _softmax(qh @ kh.transpose(0, 1, 3, 2) * scale + causal_bias[f:])
        ctx = _merge_heads(attn @ vh)
        x_mid = x_rows + ctx @ p[f"l{i}.wo"] + p[f"l{i}.bo"]
        h_pre = x_mid @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
        h = _gelu(h_pre)
        x = x_mid + h @ p[f"l{i}.w2"] + p[f"l{i}.b2"]
        if keep_cache:
            layers.append((x_in, qh, kh, vh, attn, ctx, x_mid, h_pre, h))
    return x, (layers if keep_cache else None)


def _forward_batch(params: Parameters, tokens: np.ndarray, kv=None) -> np.ndarray:
    """Full-vocabulary logits at every position of an int (B, T) batch
    (after the ``kv`` cache's positions, if given; see ``_trunk``)."""
    x, _ = _trunk(params, tokens, keep_cache=False, kv=kv)
    return x @ params.arrays["w_out"] + params.arrays["b_out"]


def forward(params: Parameters, tokens) -> np.ndarray:
    """Per-position next-token distributions; row i conditions on tokens 0..i."""
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D token sequence, got shape {arr.shape}")
    return _softmax(_forward_batch(params, arr[None, :])[0])


def _stack_batch(batch: list[EncodedInstance]) -> tuple[np.ndarray, np.ndarray]:
    """The batch's tokens as one (B, T) array, and each instance's prompt
    length; every instance must have T tokens, and its targets are the
    tokens from its prompt length on."""
    if not batch:
        raise ShapeMismatch("empty batch")
    lengths = sorted({len(e.tokens) for e in batch})
    if len(lengths) > 1:
        raise ShapeMismatch(f"a batch needs instances of one length, got lengths {lengths}")
    prompt_lens = np.array([e.prompt_len for e in batch])
    if not ((1 <= prompt_lens) & (prompt_lens <= lengths[0])).all():
        raise ShapeMismatch(f"prompt lengths must lie in [1, {lengths[0]}] (no position "
                            f"predicts token 0), got {sorted(set(prompt_lens.tolist()))}")
    return np.stack([e.tokens for e in batch]), prompt_lens


@dataclass
class BatchLosses:
    """Per-instance loss sums, plus the optimized objective."""

    objective: float
    per_instance: np.ndarray


def batch_objective(params: Parameters, batch: list[EncodedInstance], w: LossWeights) -> float:
    """Mean over the batch of the direction-weighted per-instance losses."""
    return _batch_losses(params, batch, w).objective


def _target_losses(params, hidden, targets) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of the output head, applied only to the (N, d) hidden
    states that predict the N ``targets``: each one's NLL, and the head's
    softmax (N, V)."""
    shifted = hidden @ params.arrays["w_out"] + params.arrays["b_out"]
    shifted -= shifted.max(axis=1, keepdims=True)
    target_logits = shifted[np.arange(len(targets)), targets]
    probs = np.exp(shifted, out=shifted)
    total = probs.sum(axis=1)
    probs /= total[:, None]
    return np.log(total) - target_logits, probs


def _batch_losses(params, batch, w, grads=None) -> BatchLosses:
    """The batch's losses, computed one group of equal prompt length p at a
    time: the group's last block starts at row p - 1, the first row that
    predicts a target (see ``_trunk``). An instance whose prompt is all of
    its tokens has no target and is in no group. With ``grads``, adds each
    group's gradient of the batch objective into it as well."""
    tokens, prompt_lens = _stack_batch(batch)
    b, t = tokens.shape
    weights = np.array([w.for_direction(e.direction) for e in batch])
    per_instance = np.zeros(b)
    for p in np.unique(prompt_lens[prompt_lens < t]):
        idx = np.flatnonzero(prompt_lens == p)
        group_tokens = tokens[idx]
        x, layers = _trunk(params, group_tokens, keep_cache=grads is not None, first=p - 1)
        # Row r of x predicts token p + r; the last row predicts nothing.
        hidden = x[:, :-1].reshape(-1, x.shape[-1])
        targets = group_tokens[:, p:].reshape(-1)
        owner = np.repeat(idx, t - p)
        nll, dlog = _target_losses(params, hidden, targets)
        per_instance += np.bincount(owner, weights=nll, minlength=b)
        if grads is None:
            continue
        if not np.isfinite(nll).all():
            raise NumericalDivergence("non-finite loss")
        # d objective / d logits at the target positions: softmax minus
        # one-hot, scaled in place so no second (N, V) array is allocated.
        coeff = weights[owner] / b
        dlog *= coeff[:, None]
        dlog[np.arange(len(targets)), targets] -= coeff
        grads["w_out"] += hidden.T @ dlog
        grads["b_out"] += dlog.sum(0)
        dx = np.zeros_like(x)
        dx[:, :-1] = (dlog @ params.arrays["w_out"].T).reshape(len(idx), t - p, -1)
        del dlog  # freed before the backward pass allocates its own
        _trunk_backward(params, layers, dx, group_tokens, p - 1, grads)
    objective = float((weights * per_instance).mean())
    return BatchLosses(objective, per_instance)


def gradient(
    params: Parameters, batch: list[EncodedInstance], w: LossWeights
) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradient of the batch objective; returns (grads, objective)."""
    grads, losses = _gradient_detailed(params, batch, w)
    return grads, losses.objective


def _gradient_detailed(params, batch, w) -> tuple[dict[str, np.ndarray], BatchLosses]:
    grads = params.zeros_like()
    return grads, _batch_losses(params, batch, w, grads)


def _trunk_backward(params, layers, dx, tokens, first, grads) -> None:
    """Adds to ``grads`` the gradients of every block and both embeddings,
    given ``dx``, the gradient at the (B, T - first, d) hidden states that
    ``_trunk`` returned for ``tokens`` with ``first`` and its cache ``layers``."""
    cfg = params.config
    p = params.arrays
    scale = 1.0 / math.sqrt(cfg.embed_dim // cfg.num_heads)
    for i in reversed(range(cfg.num_layers)):
        f = first if i == cfg.num_layers - 1 else 0
        x_in, qh, kh, vh, attn, ctx, x_mid, h_pre, h = layers[i]
        # MLP branch: x = x_mid + gelu(x_mid @ w1 + b1) @ w2 + b2
        grads[f"l{i}.w2"] += _wgrad(h, dx)
        grads[f"l{i}.b2"] += dx.sum((0, 1))
        dh_pre = (dx @ p[f"l{i}.w2"].T) * _gelu_grad(h_pre)
        grads[f"l{i}.w1"] += _wgrad(x_mid, dh_pre)
        grads[f"l{i}.b1"] += dh_pre.sum((0, 1))
        dx_mid = dx + dh_pre @ p[f"l{i}.w1"].T
        # Attention branch: x_mid = x_in[:, f:] + (attn @ v) @ wo + bo
        grads[f"l{i}.wo"] += _wgrad(ctx, dx_mid)
        grads[f"l{i}.bo"] += dx_mid.sum((0, 1))
        dctx = _split_heads(dx_mid @ p[f"l{i}.wo"].T, cfg.num_heads)
        dattn = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(-1, keepdims=True))
        dq = _merge_heads(dscores @ kh * scale)
        dk = _merge_heads(dscores.transpose(0, 1, 3, 2) @ qh * scale)
        dv = _merge_heads(dvh)
        grads[f"l{i}.wq"] += _wgrad(x_in[:, f:], dq)
        grads[f"l{i}.bq"] += dq.sum((0, 1))
        grads[f"l{i}.wk"] += _wgrad(x_in, dk)
        grads[f"l{i}.wv"] += _wgrad(x_in, dv)
        grads[f"l{i}.bv"] += dv.sum((0, 1))
        # Rows before f reach the block's output only through keys and values.
        dx = np.zeros_like(x_in)
        dx[:, f:] = dx_mid + dq @ p[f"l{i}.wq"].T
        dx += dk @ p[f"l{i}.wk"].T
        dx += dv @ p[f"l{i}.wv"].T
    grads["pos_emb"][: tokens.shape[1]] += dx.sum(0)
    np.add.at(grads["tok_emb"], tokens.reshape(-1), dx.reshape(-1, cfg.embed_dim))


def finite_difference_gradient(
    params: Parameters, batch: list[EncodedInstance], w: LossWeights
) -> dict[str, np.ndarray]:
    """Central-difference gradient of the batch objective (the slow oracle)."""
    out = {}
    for name, arr in params.arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_EPSILON
            up = batch_objective(params, batch, w)
            flat[j] = orig - FD_EPSILON
            down = batch_objective(params, batch, w)
            flat[j] = orig
            g.reshape(-1)[j] = (up - down) / (2.0 * FD_EPSILON)
        out[name] = g
    return out


def gradient_check(params: Parameters, batch: list[EncodedInstance], w: LossWeights) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    analytic, _ = gradient(params, batch, w)
    numeric = finite_difference_gradient(params, batch, w)
    worst = 0.0
    for name in params.arrays:
        a, f = analytic[name], numeric[name]
        rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def make_gradcheck_case(seed: int = 0) -> tuple[Parameters, list[EncodedInstance], LossWeights]:
    """Tiny-model setup for the finite-difference check (vocab 12, embed 8).

    Parameters are drawn at a generic scale rather than the training init:
    near N(0, 0.02) the query/key gradients sit below the finite-difference
    noise floor and the relative-error criterion would measure noise.
    """
    cfg = ModelConfig(vocab_size=12, context_len=16, embed_dim=8,
                      num_heads=2, num_layers=1, mlp_hidden=16, seed=seed)
    params = init_params(cfg)
    rng = np.random.default_rng(seed + 1)
    for name, arr in params.arrays.items():
        scale = 0.1 if name.endswith(("bq", "bv", "bo", "b1", "b2", "b_out")) else 0.5
        params.arrays[name] = rng.normal(0.0, scale, arr.shape)
    batch = [EncodedInstance(tokens=rng.integers(0, cfg.vocab_size, 12).astype(np.int64),
                             prompt_len=prompt_len, direction=direction,
                             instance_id=f"gradcheck:{direction}")
             for direction, prompt_len in ((FORWARD, 6), (BACKWARD, 4))]
    return params, batch, LossWeights(1.0, 0.5)


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: Parameters) -> AdamState:
    return AdamState(m=params.zeros_like(), v=params.zeros_like(), step=0)


def optimizer_step(
    params: Parameters, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> tuple[Parameters, AdamState]:
    """One deterministic Adam update; returns fresh params and state."""
    if set(grads) != set(params.arrays):
        raise ShapeMismatch("gradient keys do not match parameter keys")
    step = state.step + 1
    new_arrays: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, arr in params.arrays.items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != param shape {arr.shape} for {name}")
        m = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**step)
        v_hat = v / (1 - ADAM_BETA2**step)
        new_arrays[name] = arr - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return Parameters(params.config, new_arrays), AdamState(new_m, new_v, step)


CHECKPOINT_VERSION = 1


def save_checkpoint(params: Parameters, path: str | Path, meta: dict | None = None) -> None:
    """Write params + config as JSON; float64 repr round-trips bitwise."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(params.config),
        "meta": meta or {},
        "arrays": {name: arr.tolist() for name, arr in params.arrays.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[Parameters, dict]:
    """Parameters and meta; ParseError unless the file holds a model config,
    every array at its configured shape with only finite values, and an
    object as meta."""
    try:
        doc = load_json(path)
        version = doc.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ParseError(f"unsupported checkpoint version: {version!r}")
        cfg = ModelConfig(**doc["model_config"])
        arrays = {}
        for name, shape in _param_shapes(cfg):
            values = np.asarray(doc["arrays"][name], dtype=object)
            if values.shape != shape:
                raise ParseError(f"array {name!r} has shape {values.shape}, expected {shape}")
            # Only JSON numbers; a bool would otherwise load as 0.0 or 1.0.
            if not set(map(type, values.flat)) <= {int, float}:
                raise ParseError(f"array {name!r} holds a value that is not a number")
            arr = arrays[name] = values.astype(np.float64)
            if not np.isfinite(arr).all():
                raise ParseError(f"array {name!r} has non-finite values")
    except (ConfigError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise ParseError(f"malformed checkpoint {path}: {type(err).__name__}: {err}") from err
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint {path}: meta must be an object")
    return Parameters(cfg, arrays), meta
