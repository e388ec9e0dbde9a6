"""Model-level contracts: init determinism, attention math, decode caching."""

import math
from collections import Counter

import numpy as np
import pytest

from multiprompt import kernels, model, reference
from multiprompt.bench import traced_peak_bytes
from multiprompt.costmodel import MODEL_PRESETS
from multiprompt.errors import ConfigError, LengthError, MaskError, ShapeError
from multiprompt.kernels import CounterSink
from multiprompt.model import (
    BOS,
    N_RESERVED,
    ModelConfig,
    _fold_heads,
    _unfold_heads,
    decoder_prefill,
    decoder_step,
    encode_batch,
    init_decode_state,
    init_weights,
)

F32 = np.float32


def random_tokens(rng, n, vocab_size):
    """Content tokens only (ids past the reserved range)."""
    return rng.integers(4, vocab_size, size=n, dtype=np.int64)


def attend(q, k, v, w_o, mask_rows, n_heads, sink):
    """One sequence through the engines' attention core, then ``@ w_o``.

    Queries are scaled by ``1/sqrt(dh)`` and heads folded exactly as the
    attention sublayer does before it calls the core.
    """
    dh = q.shape[1] // n_heads
    q4 = _fold_heads(q * F32(1.0 / math.sqrt(dh)), 1, n_heads)
    k4 = _fold_heads(k, 1, n_heads).transpose(0, 2, 1)
    v4 = _fold_heads(v, 1, n_heads)
    return _unfold_heads(kernels.attention(q4, k4, v4, sink, mask_rows), n_heads) @ w_o


# -- init_weights -----------------------------------------------------------


def test_init_weights_deterministic(tiny_config, weights_checksum):
    a, b = (weights_checksum(init_weights(tiny_config, 7)) for _ in range(2))
    assert a == b


def test_init_weights_seed_sensitivity(tiny_config, weights_checksum):
    assert weights_checksum(init_weights(tiny_config, 1)) != weights_checksum(
        init_weights(tiny_config, 2)
    )


def test_init_weights_range(tiny_weights):
    for name, arr in tiny_weights.named_arrays():
        if name.endswith("gain"):
            np.testing.assert_array_equal(arr, np.ones_like(arr))
        else:
            assert arr.dtype == F32
            assert float(np.abs(arr).max()) <= 0.05


def test_config_divisibility_error():
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(d_model=8, n_heads=3, n_enc_layers=1, n_dec_layers=1,
                    d_ff=16, vocab_size=10, max_len=8)


# -- attention ---------------------------------------------------------------


def test_attention_single_key_ignores_query(sink):
    # softmax over one key is 1, so the output is V @ W_O for any Q
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, (1, 4)).astype(F32)
    w_o = rng.uniform(-1, 1, (4, 4)).astype(F32)
    for qscale in (0.0, 1.0, 50.0):
        q = np.full((1, 4), qscale, dtype=F32)
        out = attend(q, np.ones((1, 4), dtype=F32), v, w_o, None, 1, sink)
        np.testing.assert_allclose(out, v @ w_o, atol=1e-6)


def test_attention_scalar_oracle(sink):
    # h=1, d=2: weight on key 1 is softmax(100/sqrt(2), 0) evaluated exactly
    q = np.array([[10.0, 0.0]], dtype=F32)
    k = np.array([[10.0, 0.0], [0.0, 10.0]], dtype=F32)
    v = np.eye(2, dtype=F32)
    out = attend(q, k, v, np.eye(2, dtype=F32), None, 1, sink)
    z = 100.0 / math.sqrt(2.0)
    w1 = 1.0 / (1.0 + math.exp(-z))
    np.testing.assert_allclose(out, [[w1, 1.0 - w1]], atol=1e-6)
    np.testing.assert_allclose(out, [[0.9999, 0.0001]], atol=1e-4)


def test_attention_fully_masked_row_errors(sink):
    q = np.zeros((2, 4), dtype=F32)
    kv = np.ones((3, 4), dtype=F32)
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(MaskError):
        attend(q, kv, kv, np.eye(4, dtype=F32), mask, 2, sink)


def test_attention_rows_sum_to_one_under_causal_mask(sink):
    # masked softmax rows remain probability vectors over visible keys
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, (5, 8)).astype(F32)
    mask = np.tril(np.ones((5, 5), dtype=bool))
    out = attend(x, x, x, np.eye(8, dtype=F32), mask, 2, sink)
    assert np.isfinite(out).all()


# -- encoder ------------------------------------------------------------------


def test_encoder_rejects_empty_and_overlength(tiny_config, tiny_weights, sink):
    # every bad input raises before any kernel counts; ids are checked by the lookup
    vocab, max_len = tiny_config.vocab_size, tiny_config.max_len
    cases = [
        ([np.array([], dtype=np.int64)], LengthError, "encoder block"),
        ([np.zeros(max_len + 1, dtype=np.int64)], LengthError, "encoder block"),
        (np.array([5, 6, 7]), LengthError, "encoder block"),  # 1-D
        (np.zeros((2, 0), dtype=np.int64), LengthError, "encoder block"),
        (np.full((2, max_len + 1), 5), LengthError, "encoder block"),
        ([[5, 6, vocab]], ShapeError, "gather"),
        ([[5, -1, 6]], ShapeError, "gather"),
        ([[5, 6], [7]], ValueError, None),  # ragged: NumPy refuses the block
    ]
    for tokens, error, match in cases:
        with pytest.raises(error, match=match):
            encode_batch(tiny_config, tiny_weights, tokens, sink)
        assert sink.kind_totals() == {}


def test_encoder_block_and_the_list_of_its_rows_agree_bit_for_bit(tiny_config, tiny_weights):
    block = np.random.default_rng(6).integers(4, tiny_config.vocab_size, size=(3, 7))
    block_sink, list_sink = CounterSink(), CounterSink()
    a = encode_batch(tiny_config, tiny_weights, block, block_sink)
    b = encode_batch(tiny_config, tiny_weights, list(block), list_sink)
    assert (a.dtype, a.shape) == (b.dtype, b.shape) == (F32, (3, 7, tiny_config.d_model))
    assert a.tobytes() == b.tobytes()
    assert block_sink.kind_totals() == list_sink.kind_totals()


def test_encoder_deterministic(tiny_config, tiny_weights):
    toks = random_tokens(np.random.default_rng(0), 9, tiny_config.vocab_size)
    a = encode_batch(tiny_config, tiny_weights, [toks], CounterSink())
    b = encode_batch(tiny_config, tiny_weights, [toks], CounterSink())
    np.testing.assert_array_equal(a, b)


def test_encoder_batch_duplicate_instances_replicate_rows(tiny_config, tiny_weights, sink):
    rng = np.random.default_rng(3)
    s1 = random_tokens(rng, 7, tiny_config.vocab_size)
    s2 = random_tokens(rng, 7, tiny_config.vocab_size)
    out = encode_batch(tiny_config, tiny_weights, [s1, s2, s1, s2], sink)
    np.testing.assert_array_equal(out[0], out[2])
    np.testing.assert_array_equal(out[1], out[3])


def test_encoder_batch_matches_per_instance(tiny_config, tiny_weights):
    rng = np.random.default_rng(4)
    seqs = [random_tokens(rng, 6, tiny_config.vocab_size) for _ in range(3)]
    batched = encode_batch(tiny_config, tiny_weights, seqs, CounterSink())
    for i, s in enumerate(seqs):
        single = encode_batch(tiny_config, tiny_weights, [s], CounterSink())
        np.testing.assert_allclose(batched[i], single[0], atol=1e-6)


#: one layer's [2*h, 384, 384] scores in toy's encoder on 2 x 384 tokens: 4.5 MiB
PEAK_SCORES = 4 * 2 * MODEL_PRESETS["toy"].n_heads * 384**2


def encode_peak(tape, chunk_bytes, monkeypatch):
    """That encoder's ``tracemalloc`` peak in ``chunk_bytes`` chunks above the
    bytes of the ``tape``'s distinct base buffers, and the largest buffer."""
    config = MODEL_PRESETS["toy"]
    weights = init_weights(config, seed=0)
    tokens = np.random.default_rng(0).integers(N_RESERVED, config.vocab_size, size=(2, 384))
    monkeypatch.setattr(kernels, "ATTENTION_CHUNK_BYTES", chunk_bytes)
    held = traced_peak_bytes(lambda: encode_batch(config, weights, tokens, CounterSink(), tape=tape))
    buffers = {}
    for a in (a for entry in tape or () for a in entry.values() if a is not None):
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a.nbytes
    return held - sum(buffers.values()), max(buffers.values(), default=0)


def test_untaped_encoder_holds_less_than_one_layers_scores(monkeypatch):
    # in 64 KiB chunks the encoder holds one chunk of scores at a time; the
    # negative control, a budget that one chunk of every slice fits, holds
    # a whole layer's scores
    assert encode_peak(None, 1 << 16, monkeypatch)[0] < PEAK_SCORES
    assert encode_peak(None, PEAK_SCORES, monkeypatch)[0] > PEAK_SCORES


def test_taped_encoder_holds_no_layers_scores(monkeypatch):
    # the tape keeps no probabilities, and the encoder holds one chunk of
    # scores besides it.  The bound is half a layer's scores: the tape's
    # last 1.7 MiB (the last layer's context, feed-forward and final norm)
    # is not yet held when the one-chunk control peaks, which reads 3.6 MiB
    held, largest = encode_peak([], 1 << 16, monkeypatch)
    assert held < PEAK_SCORES // 2 and largest < PEAK_SCORES, (held, largest)
    assert encode_peak([], PEAK_SCORES, monkeypatch)[0] > PEAK_SCORES // 2


#: one [768, d_ff] float32 feed-forward activation of toy's encoder on 2 x 384 tokens
FFN_ACTIVATION = 4 * 768 * MODEL_PRESETS["toy"].d_ff


def test_taped_encoder_frees_the_feed_forward_pre_activation(monkeypatch):
    # with one chunk of scores, the pre-activation is the largest transient
    # besides the tape, which holds relu's output; freed before the output
    # projection, the encoder holds under 3/4 of one activation
    assert encode_peak([], 1 << 16, monkeypatch)[0] < 3 * FFN_ACTIVATION // 4
    # the negative control keeps the pre-activation alive through the
    # output projection, as the sublayer once did
    def keeps_pre(ffn, x, sink, tape):
        with sink.scope("feed_forward"):
            normed = kernels.layer_norm(x, ffn.gain, sink)
            pre = kernels.matmul(normed, ffn.w_in, sink)
            hid = kernels.relu(pre, sink)
            out = kernels.matmul(hid, ffn.w_out, sink, residual=x)
        tape.append(dict(x_in=x, normed=normed, hid=hid))
        return out

    monkeypatch.setattr(model, "_ffn_sublayer", keeps_pre)
    assert encode_peak([], 1 << 16, monkeypatch)[0] > 3 * FFN_ACTIVATION // 4


def test_encoder_matches_float64_reference(tiny_config, tiny_weights):
    toks = random_tokens(np.random.default_rng(5), 10, tiny_config.vocab_size)
    got = encode_batch(tiny_config, tiny_weights, [toks], CounterSink())[0]
    want = reference.encoder(tiny_weights, toks)
    np.testing.assert_allclose(got, want, atol=1e-4)


# -- decoder -------------------------------------------------------------------


def _fresh_state(config, weights, memory, sink, capacity=32, group=1):
    return init_decode_state(config, weights, memory, group, capacity, sink)


def test_decoder_step_on_fresh_state_equals_full_forward(tiny_config, tiny_weights):
    toks = random_tokens(np.random.default_rng(6), 8, tiny_config.vocab_size)
    memory = encode_batch(tiny_config, tiny_weights, [toks], CounterSink())
    # a step is a one-position prefill: the same bits, counted the same way
    # (no causal mask on a single position)
    s1 = _fresh_state(tiny_config, tiny_weights, memory, CounterSink())
    step_sink, prefill_sink = CounterSink(), CounterSink()
    step_logits = decoder_step(tiny_config, tiny_weights, s1, np.array([BOS]), step_sink)
    s2 = _fresh_state(tiny_config, tiny_weights, memory, CounterSink())
    prefill_logits = decoder_prefill(tiny_config, tiny_weights, s2, np.array([[BOS]]), prefill_sink)
    assert step_logits.dtype == prefill_logits.dtype and step_logits.shape == prefill_logits.shape
    assert step_logits.tobytes() == prefill_logits.tobytes()
    assert step_sink.kind_totals() == prefill_sink.kind_totals()


def test_decode_step_kernel_calls(tiny_config, tiny_weights, monkeypatch):
    # per decoder layer, 14 calls: self-attention 6 (norm, Q projection with
    # its scale, K, V, attention core, output projection with its residual),
    # cross-attention 4 and feed-forward 4; then the embedding (gather, scale
    # and position add in one kernel), the final norm and the head
    memory = encode_batch(tiny_config, tiny_weights, [np.array([5, 6, 7])], CounterSink())
    state = _fresh_state(tiny_config, tiny_weights, memory, CounterSink())
    calls = Counter()
    for name in ("matmul", "bmm", "attention", "softmax_rows", "layer_norm", "add", "scale",
                 "relu", "gather_rows", "embed_rows"):
        def counted(*args, _name=name, _kernel=getattr(kernels, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    decoder_step(tiny_config, tiny_weights, state, np.array([BOS]), CounterSink())
    layers = tiny_config.n_dec_layers
    assert calls == Counter(
        embed_rows=1, layer_norm=3 * layers + 1, matmul=8 * layers + 1,
        attention=2 * layers, relu=layers,
    )
    assert sum(calls.values()) == 14 * layers + 3 == 31


def test_decoder_full_forward_matches_float64_reference(tiny_config, tiny_weights):
    rng = np.random.default_rng(7)
    enc_toks = random_tokens(rng, 8, tiny_config.vocab_size)
    dec_toks = random_tokens(rng, 5, tiny_config.vocab_size)
    memory = encode_batch(tiny_config, tiny_weights, [enc_toks], CounterSink())
    state = _fresh_state(tiny_config, tiny_weights, memory, CounterSink())
    got = decoder_prefill(
        tiny_config, tiny_weights, state, dec_toks[None, :], CounterSink(), return_all_logits=True
    )[0]
    mem64 = reference.encoder(tiny_weights, enc_toks)
    want = reference.decoder_full(tiny_weights, mem64, dec_toks)
    np.testing.assert_allclose(got, want, atol=1e-4)


def test_cache_overflow_raises(tiny_config, tiny_weights):
    toks = random_tokens(np.random.default_rng(8), 4, tiny_config.vocab_size)
    memory = encode_batch(tiny_config, tiny_weights, [toks], CounterSink())
    state = _fresh_state(tiny_config, tiny_weights, memory, CounterSink(), capacity=2)
    decoder_step(tiny_config, tiny_weights, state, np.array([BOS]), CounterSink())
    decoder_step(tiny_config, tiny_weights, state, np.array([5]), CounterSink())
    with pytest.raises(LengthError, match="overflow"):
        decoder_step(tiny_config, tiny_weights, state, np.array([6]), CounterSink())


@pytest.mark.parametrize(
    "call, tokens, error",
    [
        ("prefill", [[5, 23]], ShapeError),  # token id out of range (vocab_size 23)
        ("step", [-1], ShapeError),  # negative token id
        ("prefill", [[5], [6]], ShapeError),  # two streams' block for a one-stream state
        ("prefill", np.zeros((1, 0), dtype=np.int64), ShapeError),  # no new position
        ("step", [[5]], ShapeError),  # 2-D step tokens
        ("prefill", [[5, 6, 7]], LengthError),  # cache overflow: 1 + 3 > capacity 3
    ],
    ids=["token_id", "negative_token_id", "streams", "empty_block", "step_2d", "overflow"],
)
def test_decoder_pass_rejects_bad_input_before_counting_or_caching(
    tiny_config, tiny_weights, call, tokens, error
):
    memory = encode_batch(tiny_config, tiny_weights, [np.array([5, 6, 7])], CounterSink())
    state = _fresh_state(tiny_config, tiny_weights, memory, CounterSink(), capacity=3)
    decoder_step(tiny_config, tiny_weights, state, np.array([BOS]), CounterSink())
    caches = [a.copy() for a in state.self_k + state.self_v]
    sink = CounterSink()
    fn = decoder_prefill if call == "prefill" else decoder_step
    with pytest.raises(error):
        fn(tiny_config, tiny_weights, state, np.asarray(tokens), sink)
    assert sink.kind_totals() == {}
    assert state.length == 1
    for before, after in zip(caches, state.self_k + state.self_v):
        assert before.tobytes() == after.tobytes()


def test_init_decode_state_reads_each_cross_weight_once(tiny_config, tiny_weights):
    # one stacked projection per weight: 2 matmuls per layer, each reading
    # all owners' memory rows plus the d x d weight exactly once
    owners, m, d = 3, 5, tiny_config.d_model
    memories = np.ones((owners, m, d), dtype=F32)
    sink = CounterSink()
    init_decode_state(tiny_config, tiny_weights, memories, 2, 8, sink)
    layers = tiny_config.n_dec_layers
    _, bytes_read, _ = sink.component_totals()["decoder_cross"]
    assert bytes_read == 8 * layers * (owners * m * d + d * d)


@pytest.mark.parametrize("group", [1, 3])
def test_attention_reads_caches_in_place(tiny_config, tiny_weights, group):
    # the taped K/V operands are the caches themselves, not re-laid-out
    # copies; with shared cross K/V (group > 1, the prompt-in-decoder case)
    # one batched product per owner reads each owner's slice once
    rng = np.random.default_rng(12)
    b, h = 2, tiny_config.n_heads
    seqs = [random_tokens(rng, 7, tiny_config.vocab_size) for _ in range(b)]
    memory = encode_batch(tiny_config, tiny_weights, seqs, CounterSink())
    state = init_decode_state(tiny_config, tiny_weights, memory, group, 6, CounterSink())
    block = random_tokens(rng, b * group * 3, tiny_config.vocab_size).reshape(b * group, 3)
    tape: list[dict] = []
    decoder_prefill(tiny_config, tiny_weights, state, block, CounterSink(), tape=tape)
    for li in range(tiny_config.n_dec_layers):
        t_self, t_cross = tape[3 * li], tape[3 * li + 1]
        assert np.shares_memory(t_self["k4"], state.self_k[li])
        assert np.shares_memory(t_self["v4"], state.self_v[li])
        assert np.shares_memory(t_cross["k4"], state.cross_k[li])
        assert np.shares_memory(t_cross["v4"], state.cross_v[li])
        assert t_cross["k4"].shape[0] == b * h
        assert t_self["k4"].shape[0] == b * group * h


@pytest.mark.parametrize("group", [1, 2])
def test_tape_changes_nothing(tiny_config, tiny_weights, group):
    rng = np.random.default_rng(11)
    seqs = [random_tokens(rng, 6, tiny_config.vocab_size) for _ in range(2)]
    block = random_tokens(rng, 2 * group * 4, tiny_config.vocab_size).reshape(2 * group, 4)

    def forward(enc_tape, dec_tape):
        sink = CounterSink()
        memory = encode_batch(tiny_config, tiny_weights, seqs, sink, tape=enc_tape)
        state = init_decode_state(tiny_config, tiny_weights, memory, group, 4, sink)
        logits = decoder_prefill(
            tiny_config, tiny_weights, state, block, sink, return_all_logits=True, tape=dec_tape
        )
        return memory, logits, state, sink

    memory, logits, state, sink = forward(None, None)
    enc_tape, dec_tape = [], []
    t_memory, t_logits, t_state, t_sink = forward(enc_tape, dec_tape)
    np.testing.assert_array_equal(memory, t_memory)
    np.testing.assert_array_equal(logits, t_logits)
    for a, b in zip(state.self_k + state.self_v, t_state.self_k + t_state.self_v):
        np.testing.assert_array_equal(a, b)
    assert sink.component_totals() == t_sink.component_totals()
    assert sink.kind_totals() == t_sink.kind_totals()
    # one entry per sublayer, then one for the final norm
    assert len(enc_tape) == 2 * tiny_config.n_enc_layers + 1
    assert len(dec_tape) == 3 * tiny_config.n_dec_layers + 1
