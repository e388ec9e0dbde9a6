"""Float64 reference forward pass, independent of the instrumented kernels.

Recomputes the exact architecture of :mod:`multiprompt.model` in plain
numpy at double precision: no counters, no caches, full causal forward.
It exists to cross-check the float32 engine paths and to give finite
differences enough precision for gradient verification.  The forward is
written once: :func:`encoder` and :func:`decoder_full` share the embedding
and feed-forward helpers, and :func:`relu_pattern` runs that same forward,
collecting each feed-forward pre-activation's sign on the way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import LN_EPS
from .model import WeightSet


def _ln(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain


def _softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _mha(q_in, kv_in, w, n_heads: int, causal: bool) -> np.ndarray:
    """Multi-head attention; ``w`` holds the projections, inputs are pre-normed."""
    q = q_in @ w.w_q.astype(np.float64)
    k = kv_in @ w.w_k.astype(np.float64)
    v = kv_in @ w.w_v.astype(np.float64)
    n, d = q.shape
    m = k.shape[0]
    dh = d // n_heads
    out = np.empty((n, d))
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        if causal:
            scores = np.where(np.tril(np.ones((n, m), dtype=bool)), scores, -np.inf)
        out[:, sl] = _softmax(scores) @ v[:, sl]
    return out @ w.w_o.astype(np.float64)


def _embed(weights: WeightSet, tokens: np.ndarray) -> np.ndarray:
    """Scaled token embeddings plus positions."""
    tokens = np.asarray(tokens, dtype=np.int64)
    x = weights.embedding.astype(np.float64)[tokens] * np.sqrt(weights.config.d_model)
    return x + weights.positions.astype(np.float64)[: tokens.size]


def _ffn(x: np.ndarray, ffn, signs: list | None) -> np.ndarray:
    """Pre-norm relu feed-forward block plus its residual."""
    normed = _ln(x, ffn.gain.astype(np.float64))
    pre = normed @ ffn.w_in.astype(np.float64)
    if signs is not None:
        signs.append(pre > 0)
    return x + np.maximum(pre, 0.0) @ ffn.w_out.astype(np.float64)


def encoder(weights: WeightSet, tokens: np.ndarray, signs: list | None = None) -> np.ndarray:
    """Encoder forward; returns contextual embeddings [L, d] in float64.

    ``signs``, when given, collects each feed-forward block's ``pre > 0``.
    """
    cfg = weights.config
    x = _embed(weights, tokens)
    for layer in weights.enc_layers:
        normed = _ln(x, layer.attn.gain.astype(np.float64))
        x = x + _mha(normed, normed, layer.attn, cfg.n_heads, causal=False)
        x = _ffn(x, layer.ffn, signs)
    return _ln(x, weights.enc_final_gain.astype(np.float64))


def decoder_full(
    weights: WeightSet, memory: np.ndarray, tokens: np.ndarray, signs: list | None = None
) -> np.ndarray:
    """Full causal decoder forward; returns logits [T, vocab] in float64.

    ``signs``, when given, collects each feed-forward block's ``pre > 0``.
    """
    cfg = weights.config
    x = _embed(weights, tokens)
    for layer in weights.dec_layers:
        normed = _ln(x, layer.self_attn.gain.astype(np.float64))
        x = x + _mha(normed, normed, layer.self_attn, cfg.n_heads, causal=True)
        normed = _ln(x, layer.cross_attn.gain.astype(np.float64))
        x = x + _mha(normed, memory, layer.cross_attn, cfg.n_heads, causal=False)
        x = _ffn(x, layer.ffn, signs)
    x = _ln(x, weights.dec_final_gain.astype(np.float64))
    return x @ weights.head.astype(np.float64)


def relu_pattern(weights: WeightSet, enc_tokens: np.ndarray, dec_tokens: np.ndarray) -> np.ndarray:
    """Sign pattern of every feed-forward pre-activation for one example.

    Finite differences are invalid across the relu kink; gradient checks
    compare this pattern at the two evaluation points and skip coordinates
    where it changes.
    """
    signs: list[np.ndarray] = []
    decoder_full(weights, encoder(weights, enc_tokens, signs), dec_tokens, signs)
    return np.concatenate([s.ravel() for s in signs])


def batch_loss(
    weights: WeightSet,
    examples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> float:
    """Mean cross-entropy over the counted positions of a batch.

    Each example is ``(enc_tokens, dec_tokens, targets, loss_mask)``;
    positions with a False mask contribute nothing.  Matches the float32
    training loss up to precision.
    """
    total = 0.0
    count = 0
    for enc_tokens, dec_tokens, targets, loss_mask in examples:
        memory = encoder(weights, enc_tokens)
        logits = decoder_full(weights, memory, dec_tokens)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        log_probs = shifted[np.arange(len(dec_tokens)), np.asarray(targets)] - log_z
        mask = np.asarray(loss_mask, dtype=bool)
        total -= log_probs[mask].sum()
        count += int(mask.sum())
    return float(total / max(count, 1))
