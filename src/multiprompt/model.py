"""Toy encoder-decoder transformer over the instrumented kernels.

Architecture: token embeddings plus sinusoidal absolute positions,
pre-layer-norm residual blocks, multi-head attention with the head
dimension ``d/h`` and all heads projected jointly through ``d x d``
matrices, ReLU feed-forward sublayers, a final layer norm per stack, and
a linear vocabulary head.

Each sublayer body (pre-norm attention, pre-norm feed-forward) is written
once and shared by the encoder and decoder stacks.  The decoder has one
pass, :func:`decoder_prefill` of ``p`` new positions per stream (a step is
``p = 1``), against a :class:`KVCacheSet`: self-attention keys/values are
appended at the new positions, cross-attention keys/values are projected
once from the encoder output ``M`` and owned per stream or per instance
(the latter lets several decode streams share one broadcast cache).
Both passes embed a token block (``[b, L]`` encoder, ``[S, p]`` decoder)
through one ``_embed``, whose lookup checks the ids before anything counts.

Training runs this same forward: ``encode_batch`` and ``decoder_prefill``
take an optional activation ``tape`` (a list the sublayers append their
inputs and intermediates to), and :mod:`multiprompt.training` holds only
the loss and the exact backward over that tape.  Without a tape nothing
is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, LengthError, ShapeError
from .kernels import CounterSink, F32

# Reserved vocabulary ids, in every model regardless of size.
PAD, BOS, EOS, SEP = 0, 1, 2, 3
N_RESERVED = 4


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the toy transformer."""

    d_model: int
    n_heads: int
    n_enc_layers: int
    n_dec_layers: int
    d_ff: int
    vocab_size: int
    max_len: int

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "n_enc_layers", "n_dec_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size <= N_RESERVED:
            raise ConfigError(f"vocab_size must exceed {N_RESERVED} reserved ids")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} is not divisible by n_heads={self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class AttentionWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gain: np.ndarray  # pre-sublayer layer-norm gain


@dataclass
class FeedForwardWeights:
    w_in: np.ndarray
    w_out: np.ndarray
    gain: np.ndarray


@dataclass
class EncoderLayerWeights:
    attn: AttentionWeights
    ffn: FeedForwardWeights


@dataclass
class DecoderLayerWeights:
    self_attn: AttentionWeights
    cross_attn: AttentionWeights
    ffn: FeedForwardWeights


@dataclass
class WeightSet:
    """All trainable arrays, plus the untrained sinusoid position table.

    Nothing checks the arrays on construction: the kernels check every
    operand's shape and dtype, and every output's finiteness, on each call.
    """

    config: ModelConfig
    embedding: np.ndarray  # [vocab, d]
    enc_layers: list[EncoderLayerWeights]
    dec_layers: list[DecoderLayerWeights]
    enc_final_gain: np.ndarray
    dec_final_gain: np.ndarray
    head: np.ndarray  # [d, vocab]
    positions: np.ndarray = field(init=False)  # sinusoid table, not trained

    def __post_init__(self) -> None:
        self.positions = sinusoid_table(self.config.max_len, self.config.d_model)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Trainable arrays in deterministic order (sinusoids excluded)."""
        out: list[tuple[str, np.ndarray]] = [("embedding", self.embedding)]

        def attn(prefix: str, a: AttentionWeights):
            out.extend(
                [
                    (f"{prefix}.w_q", a.w_q),
                    (f"{prefix}.w_k", a.w_k),
                    (f"{prefix}.w_v", a.w_v),
                    (f"{prefix}.w_o", a.w_o),
                    (f"{prefix}.gain", a.gain),
                ]
            )

        for i, layer in enumerate(self.enc_layers):
            attn(f"enc.{i}.attn", layer.attn)
            out.extend(
                [
                    (f"enc.{i}.ffn.w_in", layer.ffn.w_in),
                    (f"enc.{i}.ffn.w_out", layer.ffn.w_out),
                    (f"enc.{i}.ffn.gain", layer.ffn.gain),
                ]
            )
        for i, layer in enumerate(self.dec_layers):
            attn(f"dec.{i}.self", layer.self_attn)
            attn(f"dec.{i}.cross", layer.cross_attn)
            out.extend(
                [
                    (f"dec.{i}.ffn.w_in", layer.ffn.w_in),
                    (f"dec.{i}.ffn.w_out", layer.ffn.w_out),
                    (f"dec.{i}.ffn.gain", layer.ffn.gain),
                ]
            )
        out.append(("enc_final_gain", self.enc_final_gain))
        out.append(("dec_final_gain", self.dec_final_gain))
        out.append(("head", self.head))
        return out


def sinusoid_table(max_len: int, d: int) -> np.ndarray:
    """Parameter-free absolute position encodings [max_len, d]."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(F32)


def init_weights(config: ModelConfig, seed: int) -> WeightSet:
    """Deterministic weights: identical (config, seed) gives identical bytes.

    Matrix entries are drawn uniformly from [-0.05, 0.05] by a PCG64
    generator (``numpy.random.default_rng``) in a fixed order; layer-norm
    gains start at one (the multiplicative identity).
    """
    rng = np.random.default_rng(seed)
    d, dff, v = config.d_model, config.d_ff, config.vocab_size

    def mat(*shape: int) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=shape).astype(F32)

    def attn() -> AttentionWeights:
        return AttentionWeights(mat(d, d), mat(d, d), mat(d, d), mat(d, d), np.ones(d, dtype=F32))

    def ffn() -> FeedForwardWeights:
        return FeedForwardWeights(mat(d, dff), mat(dff, d), np.ones(d, dtype=F32))

    embedding = mat(v, d)
    enc_layers = [EncoderLayerWeights(attn(), ffn()) for _ in range(config.n_enc_layers)]
    dec_layers = [
        DecoderLayerWeights(attn(), attn(), ffn()) for _ in range(config.n_dec_layers)
    ]
    return WeightSet(
        config=config,
        embedding=embedding,
        enc_layers=enc_layers,
        dec_layers=dec_layers,
        enc_final_gain=np.ones(d, dtype=F32),
        dec_final_gain=np.ones(d, dtype=F32),
        head=mat(d, v),
    )


# -- embedding and attention ---------------------------------------------------


def _embed(weights: WeightSet, block: np.ndarray, start: int, sink: CounterSink) -> np.ndarray:
    """``[S*p, d]`` rows of a ``[S, p]`` token block at positions ``start ..
    start+p-1``; the lookup checks the ids before anything counts."""
    positions = weights.positions[start : start + block.shape[1]]
    # embeddings are scaled by sqrt(d) before the position add so token
    # identity is not drowned out by the unit-magnitude sinusoids
    with sink.scope("embedding"):
        return kernels.embed_rows(
            weights.embedding, block, math.sqrt(weights.config.d_model), positions, sink
        )


def _fold_heads(rows: np.ndarray, groups: int, n_heads: int) -> np.ndarray:
    """``[groups * n, d]`` rows to head-major ``[groups * h, n, d/h]``."""
    n = rows.shape[0] // groups
    dh = rows.shape[1] // n_heads
    x = rows.reshape(groups, n, n_heads, dh).transpose(0, 2, 1, 3)
    return x.reshape(groups * n_heads, n, dh)


def _unfold_heads(x4: np.ndarray, n_heads: int) -> np.ndarray:
    """Inverse of :func:`_fold_heads`: ``[groups * h, n, dh]`` to ``[groups * n, h * dh]``."""
    gh, n, dh = x4.shape
    groups = gh // n_heads
    x = x4.reshape(groups, n_heads, n, dh).transpose(0, 2, 1, 3)
    return x.reshape(groups * n, n_heads * dh)


# -- sublayers ----------------------------------------------------------------


def _attention_sublayer(
    config: ModelConfig,
    attn: AttentionWeights,
    x: np.ndarray,
    n_seq: int,
    component: str,
    sink: CounterSink,
    *,
    kv: tuple[np.ndarray, np.ndarray] | None = None,
    kv_group: int = 1,
    cache: tuple[np.ndarray, np.ndarray, int] | None = None,
    mask_rows: np.ndarray | None = None,
    tape: list[dict] | None = None,
) -> np.ndarray:
    """Pre-norm attention sublayer ``x + attend(LN(x) W_q, K, V) W_o``.

    ``x`` is ``[n_seq * nq, d]``, ``nq`` rows per sequence.  The queries
    are scaled by ``1/sqrt(dh)`` (``n_seq * nq * d`` elements, not one per
    score).  Without ``kv`` the sublayer attends to itself: K/V are
    projected from the same normed rows, and with ``cache = (k_cache,
    v_cache, start)`` (head-major ``[n_seq*h, dh, capacity]`` and
    ``[n_seq*h, capacity, dh]``) they are first written at ``start``, then
    every cached position up to them is attended in place.  Cross-attention
    passes precomputed head-major ``kv`` (``[owners*h, dh, m]``,
    ``[owners*h, m, dh]``), each owner shared by ``kv_group`` consecutive
    sequences.  A ``tape`` receives the activations the exact backward
    needs (``q4``/``k4``/``v4`` and ``mask_rows`` among them, from which it
    recomputes the probabilities); without one nothing is recorded.

    The attention core is one fused :func:`kernels.attention` call on
    head-folded tensors: ``q4`` is ``[O*h, r, dh]``, for each of ``O``
    key/value owners and each head the ``r`` query rows of every sequence
    that owner serves, already scaled.  The keys ``[O*h, dh, m]`` (stored
    transposed) and values ``[O*h, m, dh]`` may be strided views of a
    cache, which the products read in place.  A slice shared by several
    sequences is therefore read once per owner rather than once per
    stream (the broadcast at the heart of the shared-cache path).
    ``mask_rows`` is an optional bool ``[r, m]`` mask applied to the
    ``r`` query rows of every slice; only decoder self-attention passes
    one, at ``kv_group = 1``, so ``r = nq``, the new positions.
    """
    h, dh = config.n_heads, config.head_dim
    nq = x.shape[0] // n_seq
    with sink.scope(component):
        normed = kernels.layer_norm(x, attn.gain, sink)
        q = kernels.matmul(normed, attn.w_q, sink, scale=1.0 / math.sqrt(dh))
        if kv is None:
            k = kernels.matmul(normed, attn.w_k, sink).reshape(n_seq, nq, h, dh)
            v = kernels.matmul(normed, attn.w_v, sink).reshape(n_seq, nq, h, dh)
            # head-major [S, h, dh, nq] keys and [S, h, nq, dh] values
            k, v = k.transpose(0, 2, 3, 1), v.transpose(0, 2, 1, 3)
            if cache is None:
                kv = (k.reshape(n_seq * h, dh, nq), v.reshape(n_seq * h, nq, dh))
            else:
                k_cache, v_cache, start = cache
                end = start + nq
                k_cache.reshape(n_seq, h, dh, -1)[..., start:end] = k
                v_cache.reshape(n_seq, h, -1, dh)[:, :, start:end] = v
                kv = (k_cache[:, :, :end], v_cache[:, :end])
        q4 = _fold_heads(q, n_seq // kv_group, h)
        ctx = _unfold_heads(kernels.attention(q4, *kv, sink, mask_rows), h)
        out = kernels.matmul(ctx, attn.w_o, sink, residual=x)
    if tape is not None:
        tape.append(
            dict(q4=q4, k4=kv[0], v4=kv[1], mask_rows=mask_rows, x_in=x, normed=normed, ctx=ctx)
        )
    return out


def _ffn_sublayer(
    ffn: FeedForwardWeights, x: np.ndarray, sink: CounterSink, tape: list[dict] | None
) -> np.ndarray:
    """Pre-norm feed-forward sublayer ``x + relu(LN(x) W_in) W_out``."""
    with sink.scope("feed_forward"):
        normed = kernels.layer_norm(x, ffn.gain, sink)
        hid = kernels.relu(kernels.matmul(normed, ffn.w_in, sink), sink)
        out = kernels.matmul(hid, ffn.w_out, sink, residual=x)
    if tape is not None:
        tape.append(dict(x_in=x, normed=normed, hid=hid))
    return out


def _final_norm(
    x: np.ndarray, gain: np.ndarray, sink: CounterSink, tape: list[dict] | None
) -> np.ndarray:
    with sink.scope("other"):
        normed = kernels.layer_norm(x, gain, sink)
    if tape is not None:
        tape.append(dict(x_in=x, normed=normed))
    return normed


# -- encoder ------------------------------------------------------------------


def encode_batch(
    config: ModelConfig,
    weights: WeightSet,
    tokens: np.ndarray,
    sink: CounterSink,
    tape: list[dict] | None = None,
) -> np.ndarray:
    """Encoder forward over a ``[b, L]`` token block; returns ``[b, L, d]``.

    A list of equal-length sequences is the block of its rows.  An empty,
    non-2-D or over-long block raises :class:`LengthError` before any kernel
    counts, as the lookup does :class:`ShapeError` for an unknown id.
    Projections and norms are row-stacked across the batch so each weight
    matrix is read once per call; attention mixes positions only within a
    sequence, so batching never changes any instance's output.  With a
    ``tape``, records one entry per sublayer (attention, feed-forward per
    layer) and a last one for the final norm.

    Every engine run, the oracle and every training step encode first, so
    this is where glibc's malloc thresholds are raised
    (:func:`kernels.raise_malloc_thresholds`, once per process): a run's
    freed arrays then stay in the heap for the next run, with their pages
    in place.
    """
    kernels.raise_malloc_thresholds()
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2 or not tokens.size or tokens.shape[1] > config.max_len:
        raise LengthError(f"encoder block has shape {tokens.shape}; max_len is {config.max_len}")
    b, n = tokens.shape
    x = _embed(weights, tokens, 0, sink)  # [b*n, d]
    for layer in weights.enc_layers:
        x = _attention_sublayer(config, layer.attn, x, b, "encoder_self", sink, tape=tape)
        x = _ffn_sublayer(layer.ffn, x, sink, tape)
    x = _final_norm(x, weights.enc_final_gain, sink, tape)
    return x.reshape(b, n, config.d_model)


# -- decoder state -----------------------------------------------------------


@dataclass
class KVCacheSet:
    """Per-run decoder caches for ``n_streams`` lockstep streams.

    Every cache is head-major, in the layout the attention products
    consume, so decoding never re-lays one out: slice ``i * h + j`` holds
    head ``j`` of stream (or owner) ``i``, keys are stored transposed.
    ``self_k`` holds one ``[S*h, dh, capacity]`` and ``self_v`` one
    ``[S*h, capacity, dh]`` array per decoder layer; ``length`` positions
    are filled.  ``cross_k`` (``[owners*h, dh, m]``) and ``cross_v``
    (``[owners*h, m, dh]``) hold the encoder-side projections, one array
    per layer: ``owners == n_streams`` when every stream carries its own
    copy, and ``owners == n_streams / kv_group`` when ``kv_group``
    consecutive streams share (and broadcast) one slice.
    """

    n_streams: int
    capacity: int
    kv_group: int
    self_k: list[np.ndarray]
    self_v: list[np.ndarray]
    cross_k: list[np.ndarray]
    cross_v: list[np.ndarray]
    length: int = 0


def init_decode_state(
    config: ModelConfig,
    weights: WeightSet,
    memories: np.ndarray,
    streams_per_memory: int,
    capacity: int,
    sink: CounterSink,
) -> KVCacheSet:
    """Project cross-attention K/V from encoder outputs and allocate caches.

    ``memories`` is ``[owners, m, d]``; each memory serves
    ``streams_per_memory`` consecutive streams through one shared slice.
    Pass ``streams_per_memory=1`` with one memory per stream for fully
    replicated caches.  Heads are folded here, once per run: cross K is
    stored as ``[owners*h, dh, m]`` and cross V as ``[owners*h, m, dh]``;
    the self caches are allocated as ``[S*h, dh, capacity]`` and
    ``[S*h, capacity, dh]`` (see :class:`KVCacheSet`).
    """
    owners, m, d = memories.shape
    h, dh = config.n_heads, config.head_dim
    n_streams = owners * streams_per_memory
    if capacity > config.max_len:
        raise LengthError(f"decoder capacity {capacity} exceeds max_len {config.max_len}")
    # one stacked matmul per weight: each matrix is read once for all owners
    rows = memories.reshape(owners * m, d)
    cross_k, cross_v = [], []
    with sink.scope("decoder_cross"):
        for layer in weights.dec_layers:
            k = kernels.matmul(rows, layer.cross_attn.w_k, sink).reshape(owners, m, h, dh)
            k4 = k.transpose(0, 2, 3, 1).reshape(owners * h, dh, m)
            cross_k.append(np.ascontiguousarray(k4))  # one owner: strided k4 rounds differently
            cross_v.append(_fold_heads(kernels.matmul(rows, layer.cross_attn.w_v, sink), owners, h))
    return KVCacheSet(
        n_streams=n_streams,
        capacity=capacity,
        kv_group=streams_per_memory,
        self_k=[np.zeros((n_streams * h, dh, capacity), dtype=F32) for _ in weights.dec_layers],
        self_v=[np.zeros((n_streams * h, capacity, dh), dtype=F32) for _ in weights.dec_layers],
        cross_k=cross_k,
        cross_v=cross_v,
    )


def decoder_prefill(
    config: ModelConfig,
    weights: WeightSet,
    state: KVCacheSet,
    token_block: np.ndarray,
    sink: CounterSink,
    return_all_logits: bool = False,
    tape: list[dict] | None = None,
) -> np.ndarray:
    """The decoder pass: ``p >= 1`` new positions per stream, ``token_block [S, p]``.

    Writes self-attention K/V at cache positions ``length .. length+p-1``;
    new row ``i`` sees every cached position and the new ones up to its
    own, so only ``p > 1`` passes (and counts) a causal mask.  Token ids
    are checked by the embedding lookup before anything is counted or
    cached.  Returns the last position's logits ``[S, vocab]`` (or all
    ``[S, p, vocab]``).  A ``tape`` gets one entry per sublayer (self,
    cross, feed-forward per layer) and a last one for the final norm.
    """
    token_block = np.asarray(token_block, dtype=np.int64)
    s, start = state.n_streams, state.length
    if token_block.ndim != 2 or len(token_block) != s or not token_block.shape[1]:
        raise ShapeError(f"decoder block has shape {token_block.shape}, want ({s}, p >= 1)")
    p = token_block.shape[1]
    if start + p > state.capacity:
        raise LengthError(f"cache overflow: {start} + {p} exceeds capacity {state.capacity}")
    x = _embed(weights, token_block, start, sink)
    causal = np.tri(p, start + p, start, dtype=bool) if p > 1 else None
    for li, layer in enumerate(weights.dec_layers):
        x = _attention_sublayer(
            config, layer.self_attn, x, s, "decoder_self", sink, mask_rows=causal,
            cache=(state.self_k[li], state.self_v[li], start), tape=tape,
        )
        x = _attention_sublayer(
            config, layer.cross_attn, x, s, "decoder_cross", sink,
            kv=(state.cross_k[li], state.cross_v[li]), kv_group=state.kv_group, tape=tape,
        )
        x = _ffn_sublayer(layer.ffn, x, sink, tape)
    state.length += p
    x = _final_norm(x, weights.dec_final_gain, sink, tape)
    with sink.scope("embedding"):
        if return_all_logits:
            logits = kernels.matmul(x, weights.head, sink)
            return logits.reshape(s, p, config.vocab_size)
        return kernels.matmul(x[p - 1 :: p], weights.head, sink)  # each stream's last row


def decoder_step(
    config: ModelConfig,
    weights: WeightSet,
    state: KVCacheSet,
    new_tokens: np.ndarray,
    sink: CounterSink,
) -> np.ndarray:
    """Advance every stream by one position: a one-position :func:`decoder_prefill`
    of ``new_tokens [S]``; returns logits ``[S, vocab]``.  Streams are
    independent: no stream's logits depend on another stream's tokens.
    """
    new_tokens = np.asarray(new_tokens, dtype=np.int64)
    if new_tokens.shape != (state.n_streams,):
        raise ShapeError(f"step tokens have shape {new_tokens.shape}, want ({state.n_streams},)")
    return decoder_prefill(config, weights, state, new_tokens[:, None], sink)
