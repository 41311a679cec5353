"""Slow-path oracles for the test suite.

Edit distance: a full-matrix dynamic program and, for tiny inputs,
breadth-first search over single-edit scripts. Neither shares code with the
package; ``edit_distance`` is the one-pair adapter over the package's
batched recurrence that they are compared against.

Corpus statistic: ``ref_early_late_agreement`` guesses each video's scene
from the actions of its early third instead of reading the scene the
generator drew.

Gradient: the model's original training step, which runs every block and
the output head at every position, to dense (B, T, V) logits, and sums
weight gradients with einsum. It builds its own target mask, true from each
instance's ``prompt_len`` on, and shares only ``BatchLosses`` with the
package; the trunk, the head, the loss and the whole backward pass are its
own.

Decoding: the original decoder, which reruns the full forward over the
whole prefix for every emitted token, one candidate at a time, and tracks
the output grammar with a state machine. It shares only ``_forward_batch``
with the package; the grammar, the masked softmax, the preamble and the
per-candidate random streams are its own.
"""

import hashlib
import math
from collections import deque

import numpy as np

from biant.evaluation import _edit_distances
from biant.model import BatchLosses, _forward_batch
from biant.prompt import BOS, CTRL_FWD, DESC_LEN, EOS, SEP, SPECIAL_TOKEN
from biant.vocab import ActionLabel


def edit_distance(a, b) -> int:
    """The package's edit distance of one pair: insert/delete/substitute count."""
    a, b = list(a), list(b)
    eq = np.array([[x == y for y in b] for x in a], dtype=bool).reshape(1, len(a), len(b))
    return int(_edit_distances(eq)[0])


def ref_edit_distance(a, b):
    """Full (m+1) x (n+1) table."""
    a, b = list(a), list(b)
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = int(a[i - 1] != b[j - 1])
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def bfs_edit_distance(a, b, max_len=None):
    """Shortest single-edit script from a to b, found by breadth-first search.

    Exact but exponential; only for tiny inputs. Moves are insert, delete
    and substitute.
    """
    start, target = tuple(a), tuple(b)
    alphabet = sorted(set(start) | set(target))
    cap = max(len(start), len(target)) + 1 if max_len is None else max_len
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        s, dist = queue.popleft()
        if s == target:
            return dist
        neighbors = []
        for i in range(len(s)):
            neighbors.append(s[:i] + s[i + 1 :])
            for c in alphabet:
                if c != s[i]:
                    neighbors.append(s[:i] + (c,) + s[i + 1 :])
        if len(s) < cap:
            for i in range(len(s) + 1):
                for c in alphabet:
                    neighbors.append(s[:i] + (c,) + s[i:])
        for nxt in neighbors:
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    raise AssertionError("target unreachable; max_len cap too small")


def ref_early_late_agreement(videos, scene_motifs, video_len) -> float:
    """Mean fraction of late-third actions drawn from the early-dominant scene."""
    action_to_scene = {}
    for s, motifs in enumerate(scene_motifs):
        for motif in motifs:
            for a in motif:
                action_to_scene[a] = s
    third = video_len // 3
    agreements = []
    for v in videos:
        early = [action_to_scene.get(a) for a in v.segments[:third]]
        counts = {}
        for s in early:
            if s is not None:
                counts[s] = counts.get(s, 0) + 1
        if not counts:
            continue
        dominant = max(counts, key=counts.get)
        late = v.segments[2 * third :]
        agreements.append(
            sum(1 for a in late if action_to_scene.get(a) == dominant) / len(late)
        )
    return float(np.mean(agreements)) if agreements else 0.0


_GELU_C = math.sqrt(2.0 / math.pi)


def _ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _ref_gelu_grad(x):
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def _ref_heads(x, num_heads):
    """(B, T, d) -> (B, H, T, d / H)."""
    return np.stack(np.split(x, num_heads, axis=2), axis=1)


def _ref_unheads(x):
    """(B, H, T, d / H) -> (B, T, d)."""
    return np.concatenate(list(np.moveaxis(x, 1, 0)), axis=2)


def _ref_trunk(params, tokens):
    """Every block at every position: the final (B, T, d) hidden states and
    each layer's activations."""
    cfg = params.config
    p = params.arrays
    t = tokens.shape[1]
    scale = 1.0 / math.sqrt(cfg.embed_dim // cfg.num_heads)
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    x = p["tok_emb"][tokens] + p["pos_emb"][:t]
    layers = []
    for i in range(cfg.num_layers):
        x_in = x
        qh = _ref_heads(x_in @ p[f"l{i}.wq"] + p[f"l{i}.bq"], cfg.num_heads)
        kh = _ref_heads(x_in @ p[f"l{i}.wk"], cfg.num_heads)
        vh = _ref_heads(x_in @ p[f"l{i}.wv"] + p[f"l{i}.bv"], cfg.num_heads)
        scores = np.where(future, -np.inf, np.einsum("bhqe,bhke->bhqk", qh, kh) * scale)
        attn = np.exp(scores - scores.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        ctx = _ref_unheads(np.einsum("bhqk,bhke->bhqe", attn, vh))
        x_mid = x_in + ctx @ p[f"l{i}.wo"] + p[f"l{i}.bo"]
        h_pre = x_mid @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
        h = _ref_gelu(h_pre)
        x = x_mid + h @ p[f"l{i}.w2"] + p[f"l{i}.b2"]
        layers.append((x_in, qh, kh, vh, attn, ctx, x_mid, h_pre, h))
    return x, layers


def _ref_logsumexp(logits):
    m = logits.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def _ref_target_mask(batch):
    """(B, T) bool: true at each instance's targets, from its prompt_len on."""
    return np.array([[i >= e.prompt_len for i in range(len(e.tokens))] for e in batch])


def _ref_weights(batch, w):
    return np.array([w.for_direction(e.direction) for e in batch])


def ref_losses_from_logits(logits, batch, w):
    """Per-instance NLL from the batch's full (B, T, V) logits; weighted mean
    as objective."""
    tokens = np.array([e.tokens for e in batch])
    logp = logits - _ref_logsumexp(logits)
    rows, cols = np.nonzero(_ref_target_mask(batch))
    nll = -logp[rows, cols - 1, tokens[rows, cols]]
    per_instance = np.zeros(len(batch))
    np.add.at(per_instance, rows, nll)
    objective = float((_ref_weights(batch, w) * per_instance).mean())
    return BatchLosses(objective, per_instance)


def ref_gradient_detailed(params, batch, w):
    """Exact gradient through the full-vocabulary head: (grads, BatchLosses)."""
    cfg = params.config
    p = params.arrays
    tokens = np.array([e.tokens for e in batch])
    b, t = tokens.shape
    x_final, layers = _ref_trunk(params, tokens)
    logits = x_final @ p["w_out"] + p["b_out"]
    losses = ref_losses_from_logits(logits, batch, w)
    scale = 1.0 / math.sqrt(cfg.embed_dim // cfg.num_heads)

    probs = np.exp(logits - _ref_logsumexp(logits))
    rows, cols = np.nonzero(_ref_target_mask(batch))
    coeff = _ref_weights(batch, w)[rows] / b
    dlogits = np.zeros_like(logits)
    dlogits[rows, cols - 1, :] = probs[rows, cols - 1, :] * coeff[:, None]
    dlogits[rows, cols - 1, tokens[rows, cols]] -= coeff

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["w_out"] = np.einsum("btd,btv->dv", x_final, dlogits)
    grads["b_out"] = dlogits.sum((0, 1))
    dx = dlogits @ p["w_out"].T

    for i in reversed(range(cfg.num_layers)):
        x_in, qh, kh, vh, attn, ctx, x_mid, h_pre, h = layers[i]
        grads[f"l{i}.w2"] = np.einsum("btm,btd->md", h, dx)
        grads[f"l{i}.b2"] = dx.sum((0, 1))
        dh_pre = (dx @ p[f"l{i}.w2"].T) * _ref_gelu_grad(h_pre)
        grads[f"l{i}.w1"] = np.einsum("btd,btm->dm", x_mid, dh_pre)
        grads[f"l{i}.b1"] = dh_pre.sum((0, 1))
        dx_mid = dx + dh_pre @ p[f"l{i}.w1"].T
        grads[f"l{i}.wo"] = np.einsum("btd,bte->de", ctx, dx_mid)
        grads[f"l{i}.bo"] = dx_mid.sum((0, 1))
        dctx = _ref_heads(dx_mid @ p[f"l{i}.wo"].T, cfg.num_heads)
        dattn = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(-1, keepdims=True))
        dq = _ref_unheads(dscores @ kh * scale)
        dk = _ref_unheads(dscores.transpose(0, 1, 3, 2) @ qh * scale)
        dv = _ref_unheads(dvh)
        grads[f"l{i}.wq"] = np.einsum("btd,bte->de", x_in, dq)
        grads[f"l{i}.bq"] = dq.sum((0, 1))
        grads[f"l{i}.wk"] = np.einsum("btd,bte->de", x_in, dk)
        grads[f"l{i}.wv"] = np.einsum("btd,bte->de", x_in, dv)
        grads[f"l{i}.bv"] = dv.sum((0, 1))
        dx = dx_mid + dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T

    grads["pos_emb"][:t] = dx.sum(0)
    np.add.at(grads["tok_emb"], tokens.reshape(-1), dx.reshape(-1, cfg.embed_dim))
    return grads, losses


def _ref_decode_one(params, space, prompt, z, greedy, temperature, rng):
    """One candidate: a full forward over the prefix per emitted token, with
    the grammar state (expected verb, noun, or separator) tracked by hand."""
    tokens = list(prompt)
    actions = []
    state = "verb"
    while True:
        logits = _forward_batch(params, np.asarray([tokens], dtype=np.int64))
        mask = np.zeros(space.size, dtype=bool)
        if state == "verb":
            mask[space.verb_start : space.noun_start] = True
        elif state == "noun":
            mask[space.noun_start : space.size] = True
        else:
            mask[SEP if len(actions) < z else EOS] = True
        scores = np.where(mask, logits[0, -1] / temperature, -np.inf)
        e = np.exp(scores - scores.max())
        dist = np.where(mask, e / e.sum(), 0.0)
        dist = dist / dist.sum()
        tok = int(np.argmax(dist)) if greedy else int(rng.choice(dist.size, p=dist))
        tokens.append(tok)
        if state == "verb":
            verb, state = tok - space.verb_start, "noun"
        elif state == "noun":
            actions.append(ActionLabel(verb, tok - space.noun_start))
            state = "sep"
        elif tok == EOS:
            return tuple(actions)
        else:
            state = "verb"


def ref_generate_candidates(params, space, observed, z, cfg, mode, instance_id=""):
    """The k candidate futures, decoded one at a time on their own streams;
    candidate 0 is greedy."""
    if mode == SPECIAL_TOKEN:
        preamble = [CTRL_FWD]
    else:
        preamble = list(range(space.fwd_desc_start, space.fwd_desc_start + DESC_LEN))
    prompt = [BOS] + preamble
    for a in observed:
        prompt.extend((space.verb_start + a.verb, space.noun_start + a.noun, SEP))
    digest = int.from_bytes(hashlib.sha256(instance_id.encode("utf-8")).digest()[:8], "big")
    candidates = []
    for index in range(cfg.k):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, digest, index]))
        candidates.append(_ref_decode_one(params, space, prompt, z, index == 0,
                                          cfg.temperature, rng))
    return candidates
