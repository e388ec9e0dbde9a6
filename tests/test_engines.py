"""Engine contracts: sharing equivalence, counters, lifecycle, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from multiprompt.bench import random_workload
from multiprompt.costmodel import MODEL_PRESETS, ShapeParams, predict_run_counters
from multiprompt.engines import (
    ENGINES,
    PID,
    PIE,
    Instance,
    Workload,
    _layout,
    greedy_step,
    infer,
    reference_decode,
)
from multiprompt.errors import ConfigError, LengthError
from multiprompt.kernels import CounterSink
from multiprompt.model import (
    BOS,
    EOS,
    SEP,
    ModelConfig,
    decoder_prefill,
    decoder_step,
    encode_batch,
    init_decode_state,
    init_weights,
)
from multiprompt.verify import (
    FAULT_CORRUPT_SHARED_KV,
    check_broadcast_equivalence,
    mirror_mismatches,
)


def make_workload(rng, config, b=2, u=3, n_s=10, n_p=2, max_new=6):
    instances = []
    for _ in range(b):
        x = rng.integers(4, config.vocab_size, size=n_s, dtype=np.int64)
        prompts = tuple(
            rng.integers(4, config.vocab_size, size=n_p, dtype=np.int64) for _ in range(u)
        )
        instances.append(Instance(x=x, prompts=prompts))
    return Workload(instances=tuple(instances), max_new_tokens=max_new)


@pytest.fixture
def setup(tiny_config):
    rng = np.random.default_rng(42)
    weights = init_weights(tiny_config, seed=3)
    return tiny_config, weights, rng


# -- workload validation -------------------------------------------------------


def test_workload_rejects_mixed_prompt_counts():
    x = np.array([5, 6])
    with pytest.raises(ConfigError, match="prompt count"):
        Workload(
            instances=(
                Instance(x, (np.array([7]),)),
                Instance(x, (np.array([7]), np.array([8]))),
            ),
            max_new_tokens=4,
        )


def test_workload_rejects_mixed_prompt_lengths():
    x = np.array([5, 6])
    with pytest.raises(ConfigError, match="length"):
        Workload(
            instances=(Instance(x, (np.array([7]), np.array([7, 8]))),),
            max_new_tokens=4,
        )


# -- greedy ---------------------------------------------------------------------


def test_greedy_unique_argmax():
    assert greedy_step(np.array([[0.0, 0.0, 5.0]]))[0] == 2


def test_greedy_tie_breaks_low():
    assert greedy_step(np.array([[1.0, 1.0]]))[0] == 0


# -- structure and lifecycle ------------------------------------------------------


def test_outputs_terminate_with_eos_or_cap(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=2, u=2, max_new=5)
    for res in (infer(PIE, config, weights, wl), infer(PID, config, weights, wl)):
        for seq in res.flat_outputs():
            assert seq[-1] == EOS or len(seq) == wl.max_new_tokens


def test_max_new_zero_gives_empty_outputs(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, max_new=0)
    for res in (
        infer(PIE, config, weights, wl),
        infer(PID, config, weights, wl),
        reference_decode(config, weights, wl, "pie"),
        reference_decode(config, weights, wl, "pid"),
    ):
        assert res.steps_taken == 0
        assert all(seq == [] for seq in res.flat_outputs())


def test_encoder_pass_counts(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=3, u=4, max_new=2)
    assert infer(PIE, config, weights, wl).encoder_passes == 12
    assert infer(PID, config, weights, wl).encoder_passes == 3


def test_overlength_raises(setup):
    # encode_batch rejects an over-long encoder block before any kernel runs
    config, weights, rng = setup
    wl = make_workload(rng, config, n_s=config.max_len, n_p=2)  # only pie's x ‖ SEP ‖ z is too long
    wl2 = make_workload(rng, config, n_s=config.max_len + 1)
    sink = CounterSink()
    for engine, w in ((PIE, wl), (PIE, wl2), (PID, wl2)):
        with pytest.raises(LengthError):
            infer(engine, config, weights, w, sink=sink)
        with pytest.raises(LengthError):
            reference_decode(config, weights, w, engine, sink=sink)
        assert sink.kind_totals() == {}


@pytest.mark.parametrize("n_p", [0, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_layout_puts_every_token_where_its_engine_reads_it(setup, engine, n_p):
    config, _, rng = setup
    b, u = 2, 3
    wl = make_workload(rng, config, b=b, u=u, n_p=n_p)
    xs = [inst.x.tolist() for inst in wl.instances]
    zs = [z.tolist() for inst in wl.instances for z in inst.prompts]
    enc, prefix, kv_group = _layout(engine, wl)
    if engine == PIE:
        want_enc = [xs[s // u] + [SEP] + zs[s] if n_p else xs[s // u] for s in range(b * u)]
        want_prefix, want_group = [[BOS]] * (b * u), 1
    else:
        want_enc = xs
        want_prefix, want_group = (zs if n_p else [[BOS]] * (b * u)), u
    for got, want in ((enc, want_enc), (prefix, want_prefix)):
        assert got.dtype == np.int64
        assert got.tolist() == want
    assert kv_group == want_group


def test_pie_decode_longer_than_max_len_raises_before_any_kernel(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=1, u=2, n_p=2, max_new=config.max_len + 1)
    sink = CounterSink()
    with pytest.raises(LengthError):
        infer(PIE, config, weights, wl, sink=sink)
    with pytest.raises(LengthError):
        reference_decode(config, weights, wl, "pie", sink=sink)
    assert sink.kind_totals() == {}


def test_pid_prefix_plus_decode_past_max_len_raises_before_any_kernel(setup):
    config, weights, rng = setup
    n_p = 4
    wl = make_workload(rng, config, b=1, u=2, n_p=n_p, max_new=config.max_len - n_p + 2)
    sink = CounterSink()
    with pytest.raises(LengthError):
        infer(PID, config, weights, wl, sink=sink)
    with pytest.raises(LengthError):
        reference_decode(config, weights, wl, "pid", sink=sink)
    assert sink.kind_totals() == {}


def test_pid_decodes_at_the_exact_length_boundary(tiny_config, tiny_weights):
    # the last fed-back token sits at position n_p + n_t - 2, the last slot;
    # these weights decode to the cap, so that slot is really used
    n_p = 4
    wl = make_workload(
        np.random.default_rng(42), tiny_config, b=1, u=2, n_p=n_p,
        max_new=tiny_config.max_len - n_p + 1,
    )
    res = infer(PID, tiny_config, tiny_weights, wl)
    oracle = reference_decode(tiny_config, tiny_weights, wl, "pid")
    assert res.steps_taken == oracle.steps_taken == wl.max_new_tokens
    assert res.outputs == oracle.outputs


@pytest.mark.parametrize("run", ["infer", "reference_decode"])
def test_unknown_engine_raises_config_error_before_any_kernel(setup, run):
    config, weights, rng = setup
    wl = make_workload(rng, config)
    sink = CounterSink()
    with pytest.raises(ConfigError, match="unknown engine"):
        if run == "infer":
            infer("pix", config, weights, wl, sink=sink)
        else:
            reference_decode(config, weights, wl, "pix", sink=sink)
    assert sink.kind_totals() == {}


@pytest.mark.parametrize("engine", ["pie", "pid"])
def test_reference_encoder_passes_match_engine(setup, engine):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=3, u=2, max_new=2)
    cached = infer(engine, config, weights, wl)
    assert reference_decode(config, weights, wl, engine).encoder_passes == cached.encoder_passes


# -- determinism and equivariance ----------------------------------------------


def test_greedy_determinism_across_runs(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config)
    a = infer(PID, config, weights, wl)
    b = infer(PID, config, weights, wl)
    assert a.outputs == b.outputs
    c = infer(PIE, config, weights, wl)
    d = infer(PIE, config, weights, wl)
    assert c.outputs == d.outputs


def test_duplicate_prompts_decode_identically(setup):
    config, weights, rng = setup
    x = rng.integers(4, config.vocab_size, size=8, dtype=np.int64)
    z = rng.integers(4, config.vocab_size, size=2, dtype=np.int64)
    wl = Workload(instances=(Instance(x, (z, z)),), max_new_tokens=6)
    for res in (infer(PIE, config, weights, wl), infer(PID, config, weights, wl)):
        assert res.outputs[0][0] == res.outputs[0][1]


def test_prompt_order_permutes_outputs(setup):
    config, weights, rng = setup
    x = rng.integers(4, config.vocab_size, size=8, dtype=np.int64)
    prompts = tuple(
        rng.integers(4, config.vocab_size, size=2, dtype=np.int64) for _ in range(3)
    )
    perm = [2, 0, 1]
    wl = Workload(instances=(Instance(x, prompts),), max_new_tokens=5)
    wl_p = Workload(
        instances=(Instance(x, tuple(prompts[j] for j in perm)),), max_new_tokens=5
    )
    for engine in ENGINES:
        base = infer(engine, config, weights, wl).outputs[0]
        permuted = infer(engine, config, weights, wl_p).outputs[0]
        assert permuted == [base[j] for j in perm]


def test_batch_permutation_equivariance(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=3, u=2)
    perm = [1, 2, 0]
    wl_p = Workload(
        instances=tuple(wl.instances[i] for i in perm),
        max_new_tokens=wl.max_new_tokens,
    )
    for engine in ENGINES:
        base = infer(engine, config, weights, wl).outputs
        permuted = infer(engine, config, weights, wl_p).outputs
        assert permuted == [base[i] for i in perm]


# -- configurations coincide when there is nothing to share -----------------------


def test_u1_np0_pie_equals_pid(setup):
    config, weights, rng = setup
    wl = make_workload(rng, config, b=2, u=1, n_p=0, max_new=6)
    a = infer(PIE, config, weights, wl)
    b = infer(PID, config, weights, wl)
    assert a.outputs == b.outputs
    assert a.encode_counters.flops == b.encode_counters.flops
    assert a.encode_counters.component_totals() == b.encode_counters.component_totals()


# -- broadcast sharing --------------------------------------------------------------


def test_shared_cross_kv_reads_fewer_bytes(setup):
    # the same decode against pid's shared cache and against U repeated copies
    config, weights, rng = setup
    wl = make_workload(rng, config, b=1, u=4, n_s=16, n_p=0, max_new=4)
    encoder_inputs, prefix, kv_group = _layout(PID, wl)
    memories = encode_batch(config, weights, encoder_inputs, CounterSink())
    cross = {}
    for name, mem, group in (
        ("shared", memories, kv_group), ("copied", np.repeat(memories, kv_group, axis=0), 1)
    ):
        sink = CounterSink()
        state = init_decode_state(config, weights, mem, group, prefix.shape[1] + 3, sink)
        logits = decoder_prefill(config, weights, state, prefix, sink)
        for _ in range(3):
            logits = decoder_step(config, weights, state, greedy_step(logits), sink)
        cross[name] = sink.component_totals()["decoder_cross"]  # (flops, read, written)
    assert cross["shared"][1] < cross["copied"][1]
    # identical arithmetic on both paths per step; the copies also pay the
    # per-stream K/V projection flops
    assert cross["shared"][0] < cross["copied"][0]


def test_corrupt_shared_kv_breaks_equivalence():
    res = check_broadcast_equivalence(0, fault=FAULT_CORRUPT_SHARED_KV)
    assert not res.passed
    assert min(case["drift"] for case in res.details["cases"]) > 1e-6


def test_pid_cross_cache_storage_is_u_independent(setup):
    # the shared slices are per instance: the cross-K/V projection runs for
    # b owners whatever U is, 4·b·n_s·d² flops per decoder layer
    config, weights, rng = setup
    b, n_s = 2, 10
    expected = 4 * b * n_s * config.d_model**2 * config.n_dec_layers
    flops = []
    for u in (4, 8):
        wl = make_workload(rng, config, b=b, u=u, n_s=n_s, n_p=2, max_new=2)
        encoder_inputs, prefix, kv_group = _layout(PID, wl)
        memories = encode_batch(config, weights, encoder_inputs, CounterSink())
        sink = CounterSink()
        init_decode_state(config, weights, memories, kv_group, prefix.shape[1] + 1, sink)
        flops.append(sink.component("decoder_cross").flops)
    assert flops == [expected, expected]


# -- oracle agreement ----------------------------------------------------------------


def test_early_finishers_do_not_disturb_others(setup):
    # find a workload where streams finish at different steps, then check
    # each stream against its own single-stream run
    config, weights, _ = setup
    small_vocab = ModelConfig(
        d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=32, vocab_size=7, max_len=64,
    )
    for seed in range(40):
        rng = np.random.default_rng(seed)
        w = init_weights(small_vocab, seed=seed)
        wl = make_workload(rng, small_vocab, b=1, u=4, n_s=8, n_p=1, max_new=8)
        res = infer(PID, small_vocab, w, wl)
        lengths = {len(s) for s in res.flat_outputs()}
        ends_early = any(s[-1] == EOS and len(s) < 8 for s in res.flat_outputs())
        if len(lengths) > 1 and ends_early:
            for u, z in enumerate(wl.instances[0].prompts):
                solo = Workload(
                    instances=(Instance(wl.instances[0].x, (z,)),), max_new_tokens=8
                )
                solo_res = infer(PID, small_vocab, w, solo)
                assert solo_res.outputs[0][0] == res.outputs[0][u]
            assert res.wasted_stream_steps > 0
            return
    pytest.fail("no seed produced staggered stream finishes")


def per_step_loop(engine, config, weights, workload):
    """Lockstep greedy decode that appends each active stream's token and
    sums the finished streams step by step; returns (outputs, steps, wasted)."""
    encoder_inputs, prefix, kv_group = _layout(engine, workload)
    p, n_t = prefix.shape[1], workload.max_new_tokens
    sink = CounterSink()
    memories = encode_batch(config, weights, encoder_inputs, sink)
    state = init_decode_state(config, weights, memories, kv_group, p + n_t - 1, sink)
    logits = decoder_prefill(config, weights, state, prefix, sink)
    outputs = [[] for _ in range(len(prefix))]
    active = np.ones(len(prefix), dtype=bool)
    steps = wasted = 0
    for steps in range(1, n_t + 1):
        if steps > 1:
            wasted += int((~active).sum())
            logits = decoder_step(config, weights, state, chosen, sink)
        chosen = greedy_step(logits)
        for s in np.flatnonzero(active):
            outputs[s].append(int(chosen[s]))
        active &= chosen != EOS
        if not active.any():
            break
    return outputs, steps, wasted


def test_outputs_and_waste_equal_the_per_step_loop_on_early_finishers():
    toy = MODEL_PRESETS["toy"]
    wasted = {PIE: 0, PID: 0}
    stream_steps = {PIE: 0, PID: 0}
    for seed in range(8):
        weights = init_weights(toy, seed)
        wl = random_workload(np.random.default_rng(seed), toy.vocab_size, 8, 2, 64, 4, 16)
        for engine in ENGINES:
            res = infer(engine, toy, weights, wl)
            outputs, steps, waste = per_step_loop(engine, toy, weights, wl)
            assert res.flat_outputs() == outputs
            assert (res.steps_taken, res.wasted_stream_steps) == (steps, waste)
            total = res.steps_taken * len(outputs)
            assert res.wasted_stream_steps == total - sum(map(len, outputs))
            wasted[engine] += waste
            stream_steps[engine] += total
    # these weights let pid streams finish early, so waste is exercised
    assert (wasted[PID], stream_steps[PID]) == (109, 1840)
    assert wasted[PIE] == 0


# -- the benchmark's inference shapes ------------------------------------------------

# perfbench's two inference workloads, as its harness declares them
BENCH_SHAPES = {
    "long-decode": dict(U=4, b=2, n_s=128, n_p=6, n_t=64),
    "shared-input": dict(U=16, b=1, n_s=192, n_p=4, n_t=8),
}


@pytest.fixture(scope="module", params=sorted(BENCH_SHAPES))
def bench_runs(request):
    """Both engines on one benchmark shape: toy preset, weights seed 0, input seed 1."""
    toy = MODEL_PRESETS["toy"]
    weights = init_weights(toy, 0)
    s = BENCH_SHAPES[request.param]
    wl = random_workload(
        np.random.default_rng(1), toy.vocab_size, s["U"], s["b"], s["n_s"], s["n_p"], s["n_t"]
    )
    runs = {engine: infer(engine, toy, weights, wl) for engine in ENGINES}
    return toy, weights, wl, ShapeParams(d=toy.d_model, h=toy.n_heads, **s), runs


def _mirror(config, shape, engine, res):
    # the mirror replays a run to its last step, however early the streams stopped
    return predict_run_counters(config, replace(shape, n_t=res.steps_taken), engine)


def test_benchmark_shapes_decode_the_oracle_tokens_under_an_exact_mirror(bench_runs):
    # the benchmark's gate holds tokens and flops; this also holds both byte counts
    toy, weights, wl, shape, runs = bench_runs
    for engine, res in runs.items():
        assert res.outputs == reference_decode(toy, weights, wl, engine).outputs
        mismatches = mirror_mismatches(res, _mirror(toy, shape, engine, res))
        assert mismatches == {"by_component": {}, "encode": {}}


def test_a_mirror_counting_a_one_position_mask_fails_on_bytes_read_only(bench_runs):
    # negative control for the mask rule: a pie prefill has one position per
    # stream, and a mirror that counts its causal mask, S*h bytes per decoder
    # layer, must disagree on decoder_self bytes read and nothing else
    toy, _, _, shape, runs = bench_runs
    res = runs[PIE]
    encode, run = _mirror(toy, shape, PIE, res)
    mask_bytes = shape.U * shape.b * shape.h * toy.n_dec_layers
    with run.scope("decoder_self"):
        run.add("softmax", 0, mask_bytes, 0)
    mismatches = mirror_mismatches(res, (encode, run))
    assert mismatches["encode"] == {}
    assert list(mismatches["by_component"]) == ["decoder_self"]
    (flops, read, written), want = mismatches["by_component"]["decoder_self"]
    assert want == [flops, read + mask_bytes, written]
