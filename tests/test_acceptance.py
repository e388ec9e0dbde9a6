"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or through ``multiprompt verify`` for the CLI equivalent of the
deterministic subset.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from multiprompt import costmodel as cm
from multiprompt import reference
from multiprompt.bench import BenchConfig, random_workload, run_bench
from multiprompt.cli import main
from multiprompt.engines import pid_infer, pie_infer, reference_decode
from multiprompt.kernels import CounterSink
from multiprompt.model import (
    ModelConfig,
    decoder_prefill,
    decoder_step,
    encoder_forward,
    init_decode_state,
    init_weights,
)
from multiprompt.report import body_bytes
from multiprompt.training import (
    ToyTrainingSpec,
    evaluate_exact_match,
    make_synthetic_task,
    pid_batches,
    predicted_training_flop_ratio,
    train_layout,
    training_forward_backward,
)
from multiprompt.verify import mirror_mismatches


def conclude(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_broadcast_sharing_equivalence():
    worst_drift = 0.0
    tokens_equal = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([16, 32, 64]))
        h = int(rng.choice([2, 4]))
        config = ModelConfig(
            d_model=d, n_heads=h, n_enc_layers=2, n_dec_layers=2,
            d_ff=4 * d, vocab_size=96, max_len=256,
        )
        weights = init_weights(config, seed=seed)
        wl = random_workload(
            rng, config.vocab_size,
            u=int(rng.choice([2, 4, 8])), b=int(rng.choice([1, 2, 4])),
            n_s=int(rng.choice([16, 32, 64])), n_p=int(rng.choice([0, 2, 4])),
            n_t=6,
        )
        shared = pid_infer(config, weights, wl, record_logits=True)
        copies = pid_infer(config, weights, wl, record_logits=True, ablate_shared_cross=True)
        drift = max(
            float(np.abs(a - c).max())
            for a, c in zip(shared.logits_trace, copies.logits_trace)
        )
        worst_drift = max(worst_drift, drift)
        tokens_equal = tokens_equal and shared.outputs == copies.outputs
    conclude(
        1, "broadcast-sharing equivalence",
        worst_drift <= 1e-6 and tokens_equal,
        f"max logit drift {worst_drift:.2e} over 20 seeds, tokens equal: {tokens_equal}",
    )


def test_criterion_2_encoder_sharing_count_law():
    config = ModelConfig(
        d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2,
        d_ff=256, vocab_size=96, max_len=512,
    )
    weights = init_weights(config, seed=0)
    rng = np.random.default_rng(0)
    n_s = 256
    ok = True
    notes = []
    for u in (2, 8, 30):
        wl0 = random_workload(rng, config.vocab_size, u, 1, n_s, 0, n_t=1)
        pie0 = pie_infer(config, weights, wl0).encode_counters.flops
        pid0 = pid_infer(config, weights, wl0).encode_counters.flops
        exact = pie0 == u * pid0
        wl6 = random_workload(rng, config.vocab_size, u, 1, n_s, 6, n_t=1)
        pie6 = pie_infer(config, weights, wl6).encode_counters.flops
        pid6 = pid_infer(config, weights, wl6).encode_counters.flops
        predicted = u * (n_s + 6) / n_s
        rel = abs(pie6 / pid6 - predicted) / predicted
        ok = ok and exact and rel <= 0.05
        notes.append(f"U={u}: exact={exact}, prompt-aware gap {rel:.3%}")
    conclude(2, "encoder-sharing count law", ok, "; ".join(notes))


def test_criterion_3_inverse_intensity_formulas():
    s = cm.ShapeParams(U=4, b=2, n_s=256, n_t=64, n_p=8, d=512, h=8)
    # hand-substituted values, written as explicit arithmetic
    expected = {
        ("enc_self", "pie"): 1 / 512 + 1 / (4 * 2 * (256 + 8)),
        ("enc_self", "pid"): 1 / 512 + 1 / (2 * 256),
        ("dec_self", "pie"): 64 / 512 + 1 / 8,
        ("dec_self_prompt", "pid"): 1 / 512 + 1 / (4 * 2 * 8),
        ("dec_cross", "pie"): (256 + 8 + 1) / 512 + 1 / 8,
        ("dec_cross_prompt", "pid"): (1 / 512) * (256 / (4 * 8) + 1) + 1 / (4 * 2 * 8),
        ("dec_cross_output", "pid"): (1 / 512) * (256 / 4 + 1) + 1 / 8,
    }
    exact = all(
        math.isclose(cm.inverse_intensity(s, comp, engine), want, rel_tol=1e-12)
        for (comp, engine), want in expected.items()
    )
    big = cm.ShapeParams(U=4, b=2, n_s=512, n_t=64, n_p=8, d=4096, h=16)
    label_for = {
        "enc_self": "encoder_self", "dec_self": "decoder_self",
        "dec_self_prompt": "decoder_self_prompt", "dec_cross": "decoder_cross",
        "dec_cross_prompt": "decoder_cross_prompt", "dec_cross_output": "decoder_cross",
    }
    max_gap = 0.0
    for engine in ("pie", "pid"):
        for comp in cm.intensity_pairs(engine, big.n_p):
            r = cm.inverse_intensity(big, comp, engine)
            label = label_for[comp]
            mode = (
                cm.TABLE1
                if label in ("encoder_self", "decoder_self", "decoder_cross")
                else cm.APPENDIX_B
            )
            cell = cm.table1_counts(big, engine, mode).components[label]
            max_gap = max(max_gap, abs(r - cell.memory_symbols / cell.ops_symbols) / r)
    conclude(
        3, "inverse operational intensity formulas",
        exact and max_gap <= 0.02,
        f"hand values exact: {exact}; dominant-term gap {max_gap:.3%} at d=4096",
    )


def test_criterion_4_flop_ratios_and_latency():
    base = cm.MODEL_PRESETS["t5-base-like"]
    corridors = {"multiwoz": (0.05, 0.2), "aci-bench": (0.3, 0.5), "radqa": (0.4, 0.75)}
    ratio_notes = []
    ratios_ok = True
    for preset, (lo, hi) in corridors.items():
        ratio = cm.flop_ratio(base, cm.SHAPE_PRESETS[preset].shape)
        ratios_ok = ratios_ok and lo <= ratio <= hi
        ratio_notes.append(f"{preset}={ratio:.3f}")
    model = cm.MODEL_PRESETS["toy"]
    speedups = {}
    for u in (4, 8, 16, 32):
        shape = cm.ShapeParams(U=u, b=1, n_s=192, n_t=8, n_p=4, d=64, h=4)
        report = run_bench(
            BenchConfig(model=model, shape=shape, seed=1, repetitions=5, warmup=1,
                        batch_sizes=(1, 2))
        )
        speedups[u] = report.speedup_batched
    monotone = all(
        speedups[a] <= speedups[b] for a, b in [(4, 8), (8, 16), (16, 32)]
    )
    latency_ok = speedups[16] >= 1.5 and speedups[32] >= 1.5 and monotone
    conclude(
        4, "paper flop ratios and host-scale latency",
        ratios_ok and latency_ok,
        ", ".join(ratio_notes)
        + "; batched speedups "
        + ", ".join(f"U={u}: {s:.2f}x" for u, s in speedups.items()),
    )


def test_criterion_5_incremental_decoding_correctness():
    config = ModelConfig(
        d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
        d_ff=32, vocab_size=23, max_len=64,
    )
    tokens_equal = True
    max_drift = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        weights = init_weights(config, seed=seed)
        wl = random_workload(
            rng, config.vocab_size, u=int(rng.choice([2, 3])), b=int(rng.choice([1, 2])),
            n_s=int(rng.choice([8, 16])), n_p=int(rng.choice([0, 2])), n_t=6,
        )
        for engine, runner in (("pie", pie_infer), ("pid", pid_infer)):
            fast = runner(config, weights, wl)
            slow = reference_decode(config, weights, wl, engine)
            tokens_equal = tokens_equal and fast.outputs == slow.outputs
        # logit drift between cached steps and one full causal pass, n_t up to 16
        toks = rng.integers(4, config.vocab_size, size=16, dtype=np.int64)
        memory = encoder_forward(
            config, weights, rng.integers(4, config.vocab_size, size=12), CounterSink()
        )
        inc_state = init_decode_state(config, weights, memory[None], 1, 16, CounterSink())
        inc = [
            decoder_step(config, weights, inc_state, np.array([t]), CounterSink())
            for t in toks
        ]
        full_state = init_decode_state(config, weights, memory[None], 1, 16, CounterSink())
        full = decoder_prefill(
            config, weights, full_state, toks[None, :], CounterSink(), return_all_logits=True
        )
        drift = max(float(np.abs(inc[t][0] - full[0, t]).max()) for t in range(len(toks)))
        max_drift = max(max_drift, drift)
    conclude(
        5, "incremental decoding matches full-reforward oracle",
        tokens_equal and max_drift <= 1e-4,
        f"tokens equal: {tokens_equal}, max logit drift {max_drift:.2e}",
    )


CRITERION_6_CONFIG = ModelConfig(
    d_model=128, n_heads=8, n_enc_layers=2, n_dec_layers=2,
    d_ff=512, vocab_size=512, max_len=512,
)
CRITERION_6_SHAPE = cm.ShapeParams(U=8, b=1, n_s=256, n_t=16, n_p=0, d=128, h=8)


def criterion_6_run(runner):
    """The first seeded run of ``runner`` whose streams all decode the full ``n_t``."""
    config, shape = CRITERION_6_CONFIG, CRITERION_6_SHAPE
    for attempt in range(30):
        rng = np.random.default_rng(100 + attempt)
        weights = init_weights(config, seed=attempt)
        wl = random_workload(
            rng, config.vocab_size, shape.U, shape.b, shape.n_s, shape.n_p, shape.n_t
        )
        res = runner(config, weights, wl)
        if all(len(seq) == shape.n_t for seq in res.flat_outputs()):
            return res
    pytest.fail("no full-length decode found")


def test_criterion_6_analytic_vs_measured_deviation():
    mismatches = {}
    for engine, runner in (("pie", pie_infer), ("pid", pid_infer)):
        predicted = cm.predict_run_flops(CRITERION_6_CONFIG, CRITERION_6_SHAPE, engine)
        mismatches[engine] = mirror_mismatches(criterion_6_run(runner), predicted)
    exact = all(not any(m.values()) for m in mismatches.values())
    conclude(
        6, "analytic counts match instrumented counters",
        exact,
        "per-component flops equal predict_run_flops exactly" if exact else f"{mismatches}",
    )


def test_criterion_6_detects_a_mirror_built_for_the_wrong_shape():
    # negative control: a mirror for one token less of shared input must not pass
    wrong = replace(CRITERION_6_SHAPE, n_s=CRITERION_6_SHAPE.n_s - 1)
    mismatches = mirror_mismatches(
        criterion_6_run(pid_infer), cm.predict_run_flops(CRITERION_6_CONFIG, wrong, "pid")
    )
    assert mismatches["by_component"] and mismatches["encode"]


def test_criterion_7_training():
    spec = ToyTrainingSpec()
    config = spec.model_config()
    task = spec.task()
    weights, _ = train_layout(
        config, task, "pid", spec.epochs, spec.learning_rate, spec.batch_instances, seed=1
    )
    em = evaluate_exact_match(config, weights, list(task.heldout), "pid")

    _, pie_run = train_layout(config, task, "pie", 1, spec.learning_rate, spec.batch_instances, 1)
    _, pid_run = train_layout(config, task, "pid", 1, spec.learning_rate, spec.batch_instances, 1)
    measured = pie_run.flops_per_epoch / pid_run.flops_per_epoch
    predicted = predicted_training_flop_ratio(config, task)
    ratio_gap = abs(measured - predicted) / predicted

    # gradient check: float32 backprop vs float64 central differences (d=8)
    grad_config = ModelConfig(
        d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=16, vocab_size=15, max_len=16,
    )
    grad_weights = init_weights(grad_config, seed=0)
    grad_task = make_synthetic_task(0, 2, 4, 15, n_instances=12)
    batch = pid_batches(list(grad_task.train)[:2], 2, np.random.default_rng(0))[0]
    _, grads = training_forward_backward(grad_config, grad_weights, batch, CounterSink())
    examples = []
    si = 0
    for enc in batch.enc_inputs:
        for _ in range(batch.group_size):
            s = batch.streams[si]
            si += 1
            examples.append((enc, s.tokens, s.targets, s.loss_mask))

    def perturbed(name, idx, eps):
        w = init_weights(grad_config, seed=0)
        dict(w.named_arrays())[name][idx] += np.float32(eps)
        return w

    rng = np.random.default_rng(11)
    worst_rel = 0.0
    checked = 0
    for name, arr in grad_weights.named_arrays():
        for _ in range(3):
            idx = tuple(rng.integers(0, dim) for dim in arr.shape)
            w_plus, w_minus = perturbed(name, idx, 1e-3), perturbed(name, idx, -1e-3)
            if not all(
                np.array_equal(
                    reference.relu_pattern(w_plus, enc, dec),
                    reference.relu_pattern(w_minus, enc, dec),
                )
                for enc, dec, _, _ in examples
            ):
                continue  # central differences are invalid across a relu kink
            actual_eps = float(dict(w_plus.named_arrays())[name][idx]) - float(
                dict(w_minus.named_arrays())[name][idx]
            )
            numeric = (
                reference.batch_loss(w_plus, examples)
                - reference.batch_loss(w_minus, examples)
            ) / actual_eps
            analytic = float(grads[name][idx])
            worst_rel = max(
                worst_rel, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            )
            checked += 1
    grad_ok = worst_rel <= 1e-3 and checked >= 40
    conclude(
        7, "toy training",
        em >= 0.95 and ratio_gap <= 0.25 and grad_ok,
        f"held-out exact match {em:.3f}; epoch flop ratio measured {measured:.2f} "
        f"vs predicted {predicted:.2f} (gap {ratio_gap:.1%}); gradient check "
        f"worst {worst_rel:.2e} over {checked} coordinates",
    )


def test_criterion_8_verify_determinism(capsys, tmp_path):
    argv = ["verify", "--seed", "0", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    doc1 = json.loads(out1[out1.index("{") :])
    doc2 = json.loads(out2[out2.index("{") :])
    identical = body_bytes(doc1) == body_bytes(doc2)
    conclude(
        8, "verify command is deterministic",
        code1 == 0 and code2 == 0 and identical,
        f"exit codes ({code1}, {code2}), bodies byte-identical: {identical}",
    )
