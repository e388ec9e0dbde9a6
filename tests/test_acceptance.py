"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion calls the ``verify`` check that owns its invariant and
reports the result through :func:`conclude`; the tests hold no invariant
logic of their own, apart from criterion 4's timing half and criterion
8's determinism.  A criterion that needs more cases than one call makes
runs the check at several seeds: each check draws case ``i`` from
``default_rng(seed + i)``, so consecutive seeds tile one case sequence.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``multiprompt verify`` for the checks themselves.
"""

import json
from dataclasses import replace

import numpy as np

from multiprompt import costmodel as cm
from multiprompt import engines, verify
from multiprompt.bench import BenchConfig, run_bench
from multiprompt.cli import main
from multiprompt.report import body_bytes


def conclude(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_broadcast_sharing_equivalence():
    # four cases per call: seeds 0, 4, ..., 16 cover cases 0 to 19
    results = [verify.check_broadcast_equivalence(seed) for seed in range(0, 20, 4)]
    drift = max(r.details["max_logit_drift"] for r in results)
    conclude(
        1, "broadcast-sharing equivalence",
        all(r.passed for r in results),
        f"max logit drift {drift:.2e} over 20 cases, "
        f"tokens equal: {all(r.details['tokens_equal'] for r in results)}",
    )


def test_criterion_2_encoder_sharing_count_law():
    result = verify.check_encoder_sharing(0)
    conclude(
        2, "encoder-sharing count law", result.passed,
        "; ".join(
            f"U={r['U']} n_p={r['n_p']}: pie/pid {r['ratio']:.4f}, exact: {r['passed']}"
            for r in result.details["rows"]
        ),
    )


def test_criterion_2_detects_a_mirror_built_for_one_prompt_token_less(monkeypatch):
    # negative control: pie's prompt rows encode n_s + 1 + n_p tokens, so a
    # mirror built for n_p - 1 must miss them
    exact = cm.predict_run_counters

    def off_by_one(config, shape, engine):
        return exact(config, replace(shape, n_p=max(shape.n_p - 1, 0)), engine)

    monkeypatch.setattr(verify.cm, "predict_run_counters", off_by_one)
    result = verify.check_encoder_sharing(0)
    assert not result.passed
    assert [r["passed"] for r in result.details["rows"]] == [n_p == 0 for n_p in (0, 6) * 3]


def test_criterion_3_inverse_intensity_formulas():
    result = verify.check_intensity_formulas(0)
    conclude(
        3, "inverse operational intensity formulas", result.passed,
        f"hand values exact: {result.details['hand_values_exact']}; "
        f"dominant-term gap {result.details['max_dominant_gap']:.3%} at d=4096",
    )


def test_criterion_3_detects_cells_built_for_one_prompt_token_less(monkeypatch):
    # negative control: intensity is read off the cells, so the hand values
    # are what guards them; cells for n_p - 1 must miss them
    cells = cm.table1_counts

    def off_by_one(shape, engine, mode=cm.TABLE1):
        return cells(replace(shape, n_p=shape.n_p - 1), engine, mode)

    monkeypatch.setattr(verify.cm, "table1_counts", off_by_one)
    result = verify.check_intensity_formulas(0)
    assert not result.passed
    assert result.details["hand_values_exact"] is False


def test_criterion_4_flop_ratios_and_latency():
    ratios = verify.check_flop_ratio_presets(0)
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
        ratios.passed and latency_ok,
        ", ".join(f"{r['preset']}={r['ratio']:.3f}" for r in ratios.details["rows"])
        + "; batched speedups "
        + ", ".join(f"U={u}: {s:.2f}x" for u, s in speedups.items()),
    )


def test_criterion_5_incremental_decoding_correctness():
    # five cases per call: seeds 0, 5, 10, 15 cover cases 0 to 19
    results = [verify.check_incremental_vs_reference(seed) for seed in range(0, 20, 5)]
    conclude(
        5, "incremental decoding matches full-reforward oracle",
        all(r.passed for r in results),
        f"tokens equal: {all(r.details['tokens_equal'] for r in results)}, "
        f"max logit drift {max(r.details['max_logit_drift'] for r in results):.2e}",
    )


def test_criterion_6_analytic_vs_measured_deviation():
    result = verify.check_analytic_vs_measured(0)
    conclude(
        6, "analytic counts match instrumented counters", result.passed,
        "every (component, kind) cell's flops and bytes equal the replay exactly" if result.passed
        else f"{result.details['rows']}",
    )


def test_criterion_6_detects_a_mirror_built_for_the_wrong_shape(monkeypatch):
    # negative control: a mirror for one token less of shared input must not pass
    exact = cm.predict_run_counters

    def short_input(config, shape, engine):
        return exact(config, replace(shape, n_s=shape.n_s - 1), engine)

    monkeypatch.setattr(verify.cm, "predict_run_counters", short_input)
    result = verify.check_analytic_vs_measured(0)
    assert not result.passed
    for row in result.details["rows"]:
        assert row["mismatches"]["run"] and row["mismatches"]["encode"]


def test_criterion_6_detects_a_q_scale_booked_as_matmul(monkeypatch):
    # negative control for the cell grain: a replay that files each
    # attention sublayer's Q-scale epilogue under matmul keeps every
    # component's totals, so only a per-kind comparison can see it
    elementwise = cm.count_elementwise
    attention = ("encoder_self", "decoder_self", "decoder_cross")

    def scale_as_matmul(sink, kind, size, inputs):
        if kind == "scale" and sink.current_component in attention:
            kind = "matmul"
        elementwise(sink, kind, size, inputs)

    monkeypatch.setattr(cm, "count_elementwise", scale_as_matmul)
    result = verify.check_analytic_vs_measured(0)
    assert not result.passed
    for row in result.details["rows"]:
        mismatches = row["mismatches"]
        assert set(mismatches["encode"]) == {"encoder_self/matmul", "encoder_self/scale"}
        assert set(mismatches["run"]) == {f"{c}/{k}" for c in attention for k in ("matmul", "scale")}


def test_criterion_6_detects_repeated_cross_kv_copies_on_bytes_alone(monkeypatch):
    # negative control: pid broadcasts one cross-K/V slice per instance over
    # its U streams; U repeated copies of it cost no flop, only bytes read
    project = engines.init_decode_state

    def repeated_copies(config, weights, memories, group, capacity, sink):
        state = project(config, weights, memories, group, capacity, sink)
        for caches in (state.cross_k, state.cross_v):
            caches[:] = [
                np.repeat(c.reshape(-1, config.n_heads, *c.shape[1:]), group, axis=0)
                .reshape(-1, *c.shape[1:])
                for c in caches
            ]
        state.kv_group = 1
        return state

    monkeypatch.setattr(engines, "init_decode_state", repeated_copies)
    result = verify.check_analytic_vs_measured(0)
    assert not result.passed
    pie, pid = result.details["rows"]
    assert not any(pie["mismatches"].values())  # pie owns one slice per stream already
    assert pid["mismatches"]["encode"] == {}
    assert list(pid["mismatches"]["run"]) == ["decoder_cross/matmul"]
    measured, predicted = pid["mismatches"]["run"]["decoder_cross/matmul"]
    assert measured[0] == predicted[0] and measured[2] == predicted[2]
    assert measured[1] > predicted[1]


def test_criterion_7_training():
    train = verify.check_train_toy(1)
    grad = verify.check_gradient(0)
    t, g = train.details, grad.details
    conclude(
        7, "toy training", train.passed and grad.passed,
        f"held-out exact match {t['exact_match']:.3f}; epoch flop ratio measured "
        f"{t['measured_epoch_flop_ratio']:.2f} vs predicted {t['predicted_epoch_flop_ratio']:.2f}; "
        f"gradient check worst {g['worst_relative_error']:.2e} over "
        f"{g['coordinates_checked']} coordinates",
    )


def test_criterion_8_verify_determinism(capsys, tmp_path):
    argv = ["verify", "--seed", "0", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    doc1 = json.loads(out1)
    doc2 = json.loads(out2)
    identical = body_bytes(doc1) == body_bytes(doc2)
    conclude(
        8, "verify command is deterministic",
        code1 == 0 and code2 == 0 and identical,
        f"exit codes ({code1}, {code2}), bodies byte-identical: {identical}",
    )
