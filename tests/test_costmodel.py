"""Cost model: symbol cells, intensity formulas, the whole-run roofline, exact calibration."""

import math
from pathlib import Path

import numpy as np
import pytest

from multiprompt import costmodel as cm
from multiprompt import verify
from multiprompt.bench import random_workload
from multiprompt.engines import infer
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


def intensity(s, engine, label):
    return cm.table1_counts(s, engine, cm.APPENDIX_B).components[label].inverse_intensity


def test_intensity_hand_value_enc_self_pid():
    s = shape(U=1, b=2, n_s=256, d=512, h=8, n_t=1)
    got = intensity(s, "pid", "encoder_self")
    assert math.isclose(got, 1 / 512 + 1 / 512, rel_tol=1e-12)
    assert math.isclose(got, 0.00390625, rel_tol=1e-9)


def test_intensity_hand_value_dec_self_pie():
    s = shape(U=4, b=2, n_t=64, d=512, h=8, n_s=256, n_p=8)
    assert math.isclose(intensity(s, "pie", "decoder_self"), 64 / 512 + 1 / 8, rel_tol=1e-12)
    # sharing cuts the cross-attention's dominant term by roughly a factor of U
    assert intensity(s, "pid", "decoder_cross") < intensity(s, "pie", "decoder_cross")


def test_appendix_b_cell_labels():
    base = {"encoder_self", "decoder_self", "decoder_cross"}
    prompt = {"decoder_self_prompt", "decoder_cross_prompt"}
    for n_p in (0, 1, 4):
        s = shape(n_p=n_p)
        assert cm.table1_counts(s, "pie", cm.APPENDIX_B).components.keys() == base
        pid = cm.table1_counts(s, "pid", cm.APPENDIX_B).components.keys()
        assert pid == (base | prompt if n_p >= 1 else base)


# -- roofline ----------------------------------------------------------------------


def mirror_run(preset, engine):
    """The whole-run counts of ``engine`` on a shape preset at its own model."""
    p = cm.SHAPE_PRESETS[preset]
    return cm.predict_run_counters(cm.MODEL_PRESETS[p.model], p.shape, engine)[1]


def test_roofline_bandwidth_linearity():
    run = mirror_run("multiwoz", "pie")
    r1 = cm.roofline_estimate(run, cm.HardwareProfile("hw1", 1e12, 1e9))
    r2 = cm.roofline_estimate(run, cm.HardwareProfile("hw2", 1e12, 2e9))
    memory_bound = [
        label for label, c1 in r1["components"].items()
        if c1["bound"] == "memory" and r2["components"][label]["bound"] == "memory"
    ]
    assert memory_bound
    for label in memory_bound:
        assert math.isclose(
            r2["components"][label]["seconds"], r1["components"][label]["seconds"] / 2,
            rel_tol=1e-12,
        )
    assert r2["total_seconds"] <= r1["total_seconds"]


def test_roofline_monotone_in_peak_flops():
    run = mirror_run("multiwoz", "pid")
    slow = cm.roofline_estimate(run, cm.HardwareProfile("slow", 1e11, 2e9))
    fast = cm.roofline_estimate(run, cm.HardwareProfile("fast", 1e13, 2e9))
    assert fast["total_seconds"] <= slow["total_seconds"]


def test_builtin_a100_as_printed_profile():
    hw = cm.BUILTIN_PROFILES["a100-as-printed"]
    assert hw.peak_flops_per_s == 312e12
    assert hw.mem_bytes_per_s == 2e9


def test_memory_bound_when_ratio_above_balance():
    # with the as-printed profile the balance point is enormous, so every
    # component of a whole run is memory bound
    hw = cm.BUILTIN_PROFILES["a100-as-printed"]
    for preset in ("toy", "multiwoz"):
        for engine in ("pie", "pid"):
            est = cm.roofline_estimate(mirror_run(preset, engine), hw)
            assert est["components"]
            assert all(c["bound"] == "memory" for c in est["components"].values())


def test_hardware_profile_file_roundtrip(tmp_path):
    p = tmp_path / "custom.profile"
    p.write_text("# test profile\nname = bench-box\npeak_flops_per_s = 1.5e12\nmem_bytes_per_s = 5e10\n")
    hw = cm.HardwareProfile.from_file(p)
    assert hw == cm.HardwareProfile("bench-box", 1.5e12, 5e10)


def test_hardware_profile_file_errors(tmp_path):
    p = tmp_path / "bad.profile"
    rates = "peak_flops_per_s = {}\nmem_bytes_per_s = 2e9\n"
    for text, message in [
        ("", "missing"),
        (rates.format("abc"), "peak_flops_per_s = 'abc' is not a number"),
        (rates.format("nan"), "must be finite and positive, got nan"),
        (rates.format("inf"), "must be finite and positive, got inf"),
        (rates.format("0"), "must be finite and positive, got 0.0"),
        (rates.format("-5"), "must be finite and positive, got -5.0"),
        (rates.format("1e12") + "peak_flops_per_s = 3e12\n", "'peak_flops_per_s' is given twice"),
        (rates.format("1e12") + "bandwidth = 3e9\n", "unknown key 'bandwidth'"),
    ]:
        p.write_text("name = x\n" + text)
        with pytest.raises(ConfigError, match=message):
            cm.HardwareProfile.from_file(p)


def test_profile_files_match_builtin_profiles():
    profiles = Path(__file__).resolve().parent.parent / "profiles"
    for name, builtin in cm.BUILTIN_PROFILES.items():
        assert cm.HardwareProfile.from_file(profiles / f"{name}.profile") == builtin


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
    with pytest.raises(ConfigError, match="'U' is given twice"):
        cm.parse_shape("U=2,U=30,b=1,n_s=16,n_t=4,n_p=0,d=64,h=4")


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
    config = CALIBRATION_CONFIG
    wl = random_workload(
        np.random.default_rng(0), config.vocab_size, s.U, s.b, s.n_s, s.n_p, s.n_t
    )
    res = infer(engine_name, config, init_weights(config, seed=0), wl)
    assert verify.mirror_mismatches(res, config, s, engine_name) == {"encode": {}, "run": {}}


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
    assert verify.cell_mismatches(sink, predicted) == {}
