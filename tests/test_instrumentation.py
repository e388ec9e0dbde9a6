"""Counter aggregation and shared-KV byte accounting."""

import numpy as np

from multiprompt.kernels import CounterSink, Counts
from multiprompt.model import BOS, init_weights, encode_batch, init_decode_state, decoder_prefill, decoder_step


def sink_of(**components):
    sink = CounterSink()
    for label, counts in components.items():
        with sink.scope(label):
            sink.add("matmul", *counts)
    return sink


def test_merge_is_exact_addition():
    a = sink_of(encoder_self=(1, 2, 3), other=(10, 0, 0))
    b = sink_of(encoder_self=(5, 5, 5), decoder_self=(7, 8, 9))
    m = a.merge(b)
    assert m.component("encoder_self") == Counts(6, 7, 8)
    assert m.component("decoder_self") == Counts(7, 8, 9)
    assert m.component("other") == Counts(10, 0, 0)
    assert m.component("feed_forward") == Counts(0, 0, 0)
    assert a.component("encoder_self") == Counts(1, 2, 3)  # the operands are left alone


def test_component_totals_sum_to_run_totals():
    counters = sink_of(encoder_self=(1, 2, 3), feed_forward=(4, 5, 6), other=(7, 8, 9))
    assert counters.flops == 12
    assert counters.bytes_read == 15
    assert counters.bytes_written == 18
    assert sum(c.flops for c in counters.component_totals().values()) == counters.flops


# -- per-step shared-KV byte accounting ----------------------------------------------


def test_shared_kv_bytes_per_step_exact(tiny_config):
    """Per decode step the shared path reads encoder K/V once per instance.

    The replicated path reads them once per stream; the difference is
    exactly 8*(S-b)*d*m bytes per decoder layer and nothing else changes.
    """
    config = tiny_config
    weights = init_weights(config, seed=5)
    rng = np.random.default_rng(2)
    u, m, d, h = 4, 16, config.d_model, config.n_heads
    x = rng.integers(4, config.vocab_size, size=m, dtype=np.int64)
    memories = encode_batch(config, weights, [x], CounterSink())

    def one_step_cross_bytes(mem, group):
        state = init_decode_state(config, weights, mem, group, 8, CounterSink())
        decoder_prefill(config, weights, state, np.full((u, 1), BOS), CounterSink())
        sink = CounterSink()
        decoder_step(config, weights, state, np.full(u, 5), sink)
        return sink.component_totals()["decoder_cross"][1]

    shared = one_step_cross_bytes(memories, u)
    replicated = one_step_cross_bytes(np.repeat(memories, u, axis=0), 1)
    layers = config.n_dec_layers
    s_streams, b = u, 1
    assert replicated - shared == 8 * (s_streams - b) * d * m * layers
    # reconstruct the full closed form for the shared path; the 1/sqrt(dh)
    # scale reads the S*d query rows, softmax and P@V read the S*h*m scores
    expected_shared = layers * (
        28 * s_streams * d + 4 * d + 8 * d * d + 8 * b * d * m + 8 * s_streams * h * m
    )
    assert shared == expected_shared
