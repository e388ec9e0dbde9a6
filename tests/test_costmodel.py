"""Cost model: symbol cells, intensity formulas, roofline, exact calibration."""

import math

import numpy as np
import pytest

from multiprompt import costmodel as cm
from multiprompt import verify
from multiprompt.errors import ConfigError
from multiprompt.kernels import CounterSink
from multiprompt.model import (
    ModelConfig,
    decoder_prefill,
    encode_batch,
    init_decode_state,
    init_weights,
)
from multiprompt.training import make_synthetic_task, pid_batches, pie_batches


def shape(**kw):
    base = dict(U=2, b=1, n_s=4, n_t=3, n_p=0, d=8, h=1)
    base.update(kw)
    return cm.ShapeParams(**base)


# -- table cells (hand-substituted oracles) -----------------------------------


def test_encoder_ops_hand_values():
    s = shape()
    assert cm.table1_counts(s, "pie").components["encoder_self"].ops_symbols == 512
    assert cm.table1_counts(s, "pid").components["encoder_self"].ops_symbols == 256


def test_cross_memory_hand_values():
    s = shape()
    pie = cm.table1_counts(s, "pie").components["decoder_cross"]
    pid = cm.table1_counts(s, "pid").components["decoder_cross"]
    assert pie.memory_symbols == 2 * 4 * 3 * 8 + 2 * 3 * 8 + 3 * 64  # == 432
    assert pid.memory_symbols == 96 + 48 + 192  # == 336


def test_u1_np0_breakdowns_identical():
    s = shape(U=1)
    pie = cm.table1_counts(s, "pie").components
    pid = cm.table1_counts(s, "pid").components
    assert pie.keys() == pid.keys()
    for label in pie:
        assert pie[label] == pid[label]


def test_encoder_ratio_is_exactly_u_when_no_prompt():
    for u in (2, 8, 30):
        s = shape(U=u, n_s=128, d=64, h=4)
        pie = cm.table1_counts(s, "pie").components["encoder_self"].ops_symbols
        pid = cm.table1_counts(s, "pid").components["encoder_self"].ops_symbols
        assert pie == u * pid


def test_pid_encoder_cells_independent_of_u():
    a = cm.table1_counts(shape(U=2), "pid").components["encoder_self"]
    b = cm.table1_counts(shape(U=30), "pid").components["encoder_self"]
    assert a == b


def test_all_cells_nonnegative():
    s = shape(U=3, b=2, n_s=64, n_t=16, n_p=8, d=64, h=4)
    for engine in ("pie", "pid"):
        for mode in (cm.TABLE1, cm.APPENDIX_B):
            bd = cm.table1_counts(s, engine, mode)
            for c in bd.components.values():
                assert c.memory_symbols >= 0 and c.ops_symbols >= 0


# -- inverse operational intensity ----------------------------------------------


def test_intensity_hand_value_enc_self_pid():
    s = shape(U=1, b=2, n_s=256, d=512, h=8, n_t=1)
    got = cm.inverse_intensity(s, "enc_self", "pid")
    assert math.isclose(got, 1 / 512 + 1 / 512, rel_tol=1e-12)
    assert math.isclose(got, 0.00390625, rel_tol=1e-9)


def test_intensity_hand_value_dec_self_pie():
    s = shape(U=4, b=2, n_t=64, d=512, h=8, n_s=16)
    assert math.isclose(
        cm.inverse_intensity(s, "dec_self", "pie"), 64 / 512 + 1 / 8, rel_tol=1e-12
    )


def test_intensity_hand_values_cross_pair():
    s = shape(U=4, b=2, n_t=64, d=512, h=8, n_s=256, n_p=8)
    pie = cm.inverse_intensity(s, "dec_cross", "pie")
    pid_out = cm.inverse_intensity(s, "dec_cross_output", "pid")
    assert math.isclose(pie, 265 / 512 + 0.125, rel_tol=1e-12)
    assert math.isclose(pid_out, 65 / 512 + 0.125, rel_tol=1e-12)
    # sharing cuts the dominant term by roughly a factor of U
    assert pid_out < pie


def test_invalid_component_engine_combinations():
    s = shape(n_p=4)
    for component, engine in [
        ("dec_self_prompt", "pie"),
        ("dec_cross_prompt", "pie"),
        ("dec_cross_output", "pie"),
        ("dec_cross", "pid"),
    ]:
        with pytest.raises(ConfigError):
            cm.inverse_intensity(s, component, engine)
    with pytest.raises(ConfigError, match="n_p"):
        cm.inverse_intensity(shape(n_p=0), "dec_self_prompt", "pid")


# -- roofline ----------------------------------------------------------------------


def test_roofline_bandwidth_linearity():
    s = shape(U=4, b=1, n_s=256, n_t=24, n_p=4, d=512, h=8)
    bd = cm.table1_counts(s, "pie")
    hw1 = cm.HardwareProfile("hw1", 1e12, 1e9)
    hw2 = cm.HardwareProfile("hw2", 1e12, 2e9)
    r1 = cm.roofline_estimate(bd, hw1)
    r2 = cm.roofline_estimate(bd, hw2)
    for label, c1 in r1.components.items():
        c2 = r2.components[label]
        if c1.bound == "memory" and c2.bound == "memory":
            assert math.isclose(c2.seconds, c1.seconds / 2, rel_tol=1e-12)
    assert r2.total_seconds <= r1.total_seconds


def test_roofline_monotone_in_peak_flops():
    s = shape(U=4, b=1, n_s=256, n_t=24, n_p=4, d=512, h=8)
    bd = cm.table1_counts(s, "pid")
    slow = cm.roofline_estimate(bd, cm.HardwareProfile("slow", 1e11, 2e9))
    fast = cm.roofline_estimate(bd, cm.HardwareProfile("fast", 1e13, 2e9))
    assert fast.total_seconds <= slow.total_seconds


def test_builtin_a100_as_printed_profile():
    hw = cm.BUILTIN_PROFILES["a100-as-printed"]
    assert hw.peak_flops_per_s == 312e12
    assert hw.mem_bytes_per_s == 2e9


def test_memory_bound_when_ratio_above_balance():
    # with the as-printed profile the balance point is enormous, so every
    # attention component is memory bound
    s = shape(U=4, b=1, n_s=256, n_t=24, n_p=4, d=512, h=8)
    est = cm.roofline_estimate(cm.table1_counts(s, "pie"), cm.BUILTIN_PROFILES["a100-as-printed"])
    assert all(c.bound == "memory" for c in est.components.values())


def test_hardware_profile_file_roundtrip(tmp_path):
    p = tmp_path / "custom.profile"
    p.write_text("# test profile\nname = bench-box\npeak_flops_per_s = 1.5e12\nmem_bytes_per_s = 5e10\n")
    hw = cm.HardwareProfile.from_file(p)
    assert hw == cm.HardwareProfile("bench-box", 1.5e12, 5e10)


def test_hardware_profile_file_errors(tmp_path):
    p = tmp_path / "bad.profile"
    p.write_text("name = x\n")
    with pytest.raises(ConfigError, match="missing"):
        cm.HardwareProfile.from_file(p)


# -- shape parsing and presets ---------------------------------------------------


def test_parse_shape_roundtrip():
    s = cm.parse_shape("U=8, b=2, n_s=64, n_t=8, n_p=4, d=64, h=4")
    assert s == cm.SHAPE_PRESETS["toy"].shape


def test_parse_shape_errors():
    with pytest.raises(ConfigError, match="missing"):
        cm.parse_shape("U=8")
    with pytest.raises(ConfigError, match="unknown shape key"):
        cm.parse_shape("U=8,b=1,n_s=4,n_t=2,n_p=0,d=8,h=1,zz=3")
    with pytest.raises(ConfigError, match="malformed"):
        cm.parse_shape("U:8")


def test_resolve_preset_error_lists_names():
    with pytest.raises(ConfigError, match="multiwoz"):
        cm.resolve_preset("nope")


# -- flop ratios ---------------------------------------------------------------------


def test_flop_ratio_is_one_when_nothing_shared():
    config = cm.MODEL_PRESETS["toy"]
    s = cm.ShapeParams(U=1, b=2, n_s=64, n_t=8, n_p=0, d=64, h=4)
    assert cm.flop_ratio(config, s) == 1.0


def test_flop_ratio_decreases_with_more_prompts():
    config = cm.MODEL_PRESETS["t5-base-like"]
    ratios = [
        cm.flop_ratio(config, cm.ShapeParams(U=u, b=1, n_s=289, n_t=24, n_p=8, d=768, h=12))
        for u in (2, 8, 30)
    ]
    assert ratios[0] > ratios[1] > ratios[2]


def test_flop_ratio_rejects_mismatched_model():
    with pytest.raises(ConfigError, match="disagrees"):
        cm.flop_ratio(cm.MODEL_PRESETS["toy"], cm.SHAPE_PRESETS["multiwoz"].shape)


#: (total, encode_total) flops of every shape preset on its own model, pinned:
#: a change to the replay or to a kernel's count formula moves them
PRESET_FLOPS = {
    ("aci-bench", "pid"): (677389478976, 404744616000),
    ("aci-bench", "pie"): (2042100717312, 1627363921920),
    ("multiwoz-domain", "pid"): (130136272128, 52271638080),
    ("multiwoz-domain", "pie"): (374549779200, 269999443200),
    ("multiwoz", "pid"): (291181311168, 52271638080),
    ("multiwoz", "pie"): (2059876823040, 1619996659200),
    ("radqa", "pid"): (85100040000, 23999638080),
    ("radqa", "pie"): (171136455168, 122889323520),
    ("toy", "pid"): (83589120, 29999104),
    ("toy", "pie"): (334479872, 261745152),
}


def test_preset_flop_totals_are_pinned():
    for (preset, engine), want in PRESET_FLOPS.items():
        p = cm.SHAPE_PRESETS[preset]
        got = cm.predict_run_flops(cm.MODEL_PRESETS[p.model], p.shape, engine)
        assert (got["total"], got["encode_total"]) == want, (preset, engine)
    assert {preset for preset, _ in PRESET_FLOPS} == set(cm.SHAPE_PRESETS)


# -- exact calibration against instrumented engines -----------------------------------


CALIBRATION_CONFIG = ModelConfig(
    d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
    d_ff=32, vocab_size=96, max_len=96,
)


#: the prompt count, batch, prompt length (none, one token, several) and
#: decode length (the prefill alone, then steps) the sweep crosses
SWEEP = [
    cm.ShapeParams(U=u, b=b, n_s=9, n_t=n_t, n_p=n_p, d=16, h=2)
    for u in (1, 3) for b in (1, 2) for n_p in (0, 1, 3) for n_t in (1, 4)
]


@pytest.mark.parametrize(
    "engine_name,s",
    [
        ("pie", cm.ShapeParams(U=3, b=2, n_s=10, n_t=6, n_p=2, d=16, h=2)),
        ("pie", cm.ShapeParams(U=2, b=1, n_s=8, n_t=4, n_p=0, d=16, h=2)),
        ("pid", cm.ShapeParams(U=3, b=2, n_s=10, n_t=6, n_p=2, d=16, h=2)),
        ("pid", cm.ShapeParams(U=2, b=1, n_s=8, n_t=4, n_p=0, d=16, h=2)),
        ("pid", cm.ShapeParams(U=4, b=1, n_s=12, n_t=1, n_p=3, d=16, h=2)),
    ] + [(engine, s) for s in SWEEP for engine in ("pie", "pid")],
)
def test_predictor_matches_measured_counters_exactly(engine_name, s):
    res = verify._full_length_run(CALIBRATION_CONFIG, s, engine_name, 0)
    predicted = cm.predict_run_counters(CALIBRATION_CONFIG, s, engine_name)
    assert not any(verify.mirror_mismatches(res, predicted).values())
    # the replay records the kernels' own kinds, so it matches per kind too
    assert res.counters.kind_totals() == predicted[1].kind_totals()


@pytest.mark.parametrize("build", [pie_batches, pid_batches])
def test_all_positions_forward_matches_mirror_exactly(build):
    # the training forward: encode, project cross K/V, prefill every position
    config = CALIBRATION_CONFIG
    task = make_synthetic_task(0, n_prompts=3, n_s=8, vocab_size=config.vocab_size,
                               n_instances=20)
    batch = build(list(task.train), 2, np.random.default_rng(0))[0]
    weights = init_weights(config, seed=0)
    sink = CounterSink()
    memory = encode_batch(config, weights, batch.enc_inputs, sink)
    owners, m, _ = memory.shape
    t_dec = batch.streams[0].tokens.size
    state = init_decode_state(config, weights, memory, batch.group_size, t_dec, sink)
    tokens = np.stack([st.tokens for st in batch.streams])
    decoder_prefill(config, weights, state, tokens, sink, return_all_logits=True)
    _, predicted = cm.replay_forward(config, owners, m, batch.group_size, t_dec, 1, all_logits=True)
    assert sink.kind_totals() == predicted.kind_totals()
