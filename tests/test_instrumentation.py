"""Counter aggregation, measured intensity, shared-KV byte accounting."""

import numpy as np
import pytest

from multiprompt.engines import PID, PIE, Instance, Workload, infer
from multiprompt.errors import IntensityError
from multiprompt.instrumentation import (
    ComponentCounters,
    CounterSet,
    measured_intensity,
)
from multiprompt.kernels import CounterSink
from multiprompt.model import BOS, init_weights, encode_batch, init_decode_state, decoder_prefill, decoder_step


def cs(**components):
    return CounterSet.from_totals(components)


def test_measured_intensity_direct_ratio():
    counters = cs(encoder_self=(100, 30, 20))
    assert measured_intensity(counters, "encoder_self") == 2.0
    assert measured_intensity(counters) == 2.0


def test_measured_intensity_total_uses_summed_numerators():
    counters = cs(encoder_self=(100, 30, 20), decoder_self=(10, 900, 70))
    assert measured_intensity(counters) == 110 / 1020


def test_empty_run_raises():
    with pytest.raises(IntensityError):
        measured_intensity(cs())
    with pytest.raises(IntensityError):
        measured_intensity(cs(encoder_self=(5, 1, 1)), "decoder_cross")


def test_merge_is_exact_addition():
    a = cs(encoder_self=(1, 2, 3), other=(10, 0, 0))
    b = cs(encoder_self=(5, 5, 5), decoder_self=(7, 8, 9))
    m = a.merge(b)
    assert m.component("encoder_self") == ComponentCounters(6, 7, 8)
    assert m.component("decoder_self") == ComponentCounters(7, 8, 9)
    assert m.component("other") == ComponentCounters(10, 0, 0)


def test_counterset_rejects_unknown_labels():
    with pytest.raises(ValueError, match="unknown component"):
        cs(nonsense=(1, 1, 1))


def test_component_totals_sum_to_run_totals():
    counters = cs(encoder_self=(1, 2, 3), feed_forward=(4, 5, 6), other=(7, 8, 9))
    assert counters.flops == 12
    assert counters.bytes_read == 15
    assert counters.bytes_written == 18


# -- measured intensity of engine runs ---------------------------------------------------------


def _measured_run(config, weights, rng, engine, u=2, n_s=12, n_t=4):
    instances = tuple(
        Instance(
            x=rng.integers(4, config.vocab_size, size=n_s, dtype=np.int64),
            prompts=tuple(
                rng.integers(4, config.vocab_size, size=0, dtype=np.int64) for _ in range(u)
            ),
        )
        for _ in range(1)
    )
    return infer(engine, config, weights, Workload(instances=instances, max_new_tokens=n_t))


def test_pid_cross_intensity_beats_pie(tiny_config):
    # decode-phase counters isolate per-step cache traffic from the one-time
    # K/V projections (which the replicated path performs U times as often)
    weights = init_weights(tiny_config, seed=11)
    rng = np.random.default_rng(1)
    res_pie = _measured_run(tiny_config, weights, rng, PIE, u=4, n_s=16, n_t=6)
    rng = np.random.default_rng(1)
    res_pid = _measured_run(tiny_config, weights, rng, PID, u=4, n_s=16, n_t=6)
    assert measured_intensity(res_pid.step_counters, "decoder_cross") > measured_intensity(
        res_pie.step_counters, "decoder_cross"
    )
    # per-step arithmetic is identical; only the byte traffic differs
    assert (
        res_pid.step_counters.component("decoder_cross").flops
        == res_pie.step_counters.component("decoder_cross").flops
    )


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
