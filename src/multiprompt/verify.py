"""Deterministic self-checks surfaced by the ``verify`` CLI command.

Every default check is seeded and free of wall-clock measurement, so two
runs with the same seed produce byte-identical result bodies.  The
benchmark- and training-based checks run only with ``full=True`` because
they are slow (training) or timing-dependent (latency).

Each check is the only implementation of its invariant: the acceptance
criteria in ``tests/test_acceptance.py`` call these functions.  The
checks over random cases (``broadcast_equivalence``,
``incremental_vs_reference``) draw case ``i`` from ``default_rng(seed + i)``,
so a criterion that wants more cases calls the check at consecutive
blocks of seeds instead of passing a case count.  Counted counts meet
replayed ones in one place, :func:`cell_mismatches`, cell by cell.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import costmodel as cm
from . import reference
from .bench import BenchConfig, random_workload, run_bench
from .engines import ENGINES, PID, PIE, DecodeResult, _layout, greedy_step, infer, reference_decode
from .kernels import CounterSink
from .model import ModelConfig, init_weights, decoder_prefill, decoder_step, encode_batch, init_decode_state
from .training import (
    ToyTrainingSpec,
    evaluate_exact_match,
    make_synthetic_task,
    pid_batches,
    replay_run,
    train_layout,
    training_forward_backward,
)

FAULT_CORRUPT_SHARED_KV = "corrupt-shared-kv"
#: the check that applies each ``--inject-fault``
FAULT_CHECKS = {FAULT_CORRUPT_SHARED_KV: "broadcast_equivalence"}


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict


def _toy_model(d=64, h=4, layers=2, vocab=96, max_len=640) -> ModelConfig:
    return ModelConfig(
        d_model=d, n_heads=h, n_enc_layers=layers, n_dec_layers=layers,
        d_ff=4 * d, vocab_size=vocab, max_len=max_len,
    )


def cell_mismatches(measured: CounterSink, replayed: CounterSink) -> dict[str, list[list[int]]]:
    """Where two sinks differ: ``"component/kind"`` -> ``[measured, replayed]``, each
    cell's (flops, bytes read, bytes written); an absent cell counts as zeros."""
    got, want = measured.kind_totals(), replayed.kind_totals()
    out = {}
    for key in sorted(got.keys() | want.keys()):
        pair = [list(got.get(key, (0, 0, 0))), list(want.get(key, (0, 0, 0)))]
        if pair[0] != pair[1]:
            out["/".join(key)] = pair
    return out


def mirror_mismatches(
    res: DecodeResult, config: ModelConfig, shape: cm.ShapeParams, engine: str
) -> dict[str, dict[str, list[list[int]]]]:
    """Where a run's counts differ from the replay of the steps it took.

    ``predict_run_counters`` replays ``shape`` at ``n_t = res.steps_taken``;
    the encode phase (``res.encode_counters``) is held to its encode half
    and the whole run (``res.counters``) to its run half, each by
    :func:`cell_mismatches`.  Both phases empty means the mirror is exact.
    """
    encode, run = cm.predict_run_counters(config, replace(shape, n_t=res.steps_taken), engine)
    return {
        "encode": cell_mismatches(res.encode_counters, encode),
        "run": cell_mismatches(res.counters, run),
    }


# -- individual checks ---------------------------------------------------------


def check_broadcast_equivalence(seed: int, fault: str | None = None) -> CheckResult:
    """Shared cross-attention K/V vs U explicit copies: identical decoding.

    One encoding of pid's inputs feeds two caches, ``shared`` (one slice
    broadcast over an instance's ``U`` streams) and ``copies`` (one repeated
    slice per stream).  Both decode the shared cache's greedy tokens, so the
    logits are compared on identical inputs at the prefill and every step.
    The fault shifts the shared value slices (a uniform key shift would
    cancel in softmax): the check's negative control.
    """
    max_drift = 0.0
    tokens_equal = True
    cases = []
    for i in range(4):
        rng = np.random.default_rng(seed + i)
        d = int(rng.choice([16, 32, 64]))
        h = int(rng.choice([2, 4]))
        u = int(rng.choice([2, 4, 8]))
        b = int(rng.choice([1, 2, 4]))
        n_s = int(rng.choice([16, 32, 64]))
        n_p = int(rng.choice([0, 2, 4]))
        config = _toy_model(d=d, h=h, layers=2, max_len=256)
        weights = init_weights(config, seed=seed + i)
        wl = random_workload(rng, config.vocab_size, u, b, n_s, n_p, n_t=6)
        encoder_inputs, prefix, kv_group = _layout(PID, wl)
        sink = CounterSink()
        memories = encode_batch(config, weights, encoder_inputs, sink)
        capacity = prefix.shape[1] + wl.max_new_tokens - 1
        shared = init_decode_state(config, weights, memories, kv_group, capacity, sink)
        repeated = np.repeat(memories, kv_group, axis=0)
        copies = init_decode_state(config, weights, repeated, 1, capacity, sink)
        if fault == FAULT_CORRUPT_SHARED_KV:
            for v in shared.cross_v:
                v += np.float32(0.125)
        logits = [decoder_prefill(config, weights, st, prefix, sink) for st in (shared, copies)]
        drift = 0.0
        for step in range(wl.max_new_tokens):
            if step:
                tokens = greedy_step(logits[0])
                logits = [decoder_step(config, weights, st, tokens, sink) for st in (shared, copies)]
            drift = max(drift, float(np.abs(logits[0] - logits[1]).max()))
            tokens_equal = tokens_equal and np.array_equal(*map(greedy_step, logits))
        max_drift = max(max_drift, drift)
        cases.append({"d": d, "h": h, "U": u, "b": b, "n_s": n_s, "n_p": n_p, "drift": drift})
    return CheckResult(
        "broadcast_equivalence",
        passed=max_drift <= 1e-6 and tokens_equal,
        details={"max_logit_drift": max_drift, "tokens_equal": tokens_equal, "cases": cases},
    )


def check_encoder_sharing(seed: int) -> CheckResult:
    """Encode counts equal the replay in every cell; flops exactly U-fold without prompts."""
    config = _toy_model(max_len=512)
    weights = init_weights(config, seed=seed)
    rng = np.random.default_rng(seed)
    n_s = 256
    rows = []
    for u in (2, 8, 30):
        for n_p in (0, 6):
            wl = random_workload(rng, config.vocab_size, u, 1, n_s, n_p, n_t=1)
            shape = cm.ShapeParams(U=u, b=1, n_s=n_s, n_t=1, n_p=n_p, d=64, h=4)
            runs = {engine: infer(engine, config, weights, wl) for engine in ENGINES}
            passed = not any(
                mirror_mismatches(res, config, shape, engine)["encode"]
                for engine, res in runs.items()
            )
            flops = {engine: res.encode_counters.flops for engine, res in runs.items()}
            if n_p == 0:
                passed = passed and flops["pie"] == u * flops["pid"]
            rows.append({"U": u, "n_p": n_p, "ratio": flops["pie"] / flops["pid"], "passed": passed})
    return CheckResult(
        "encoder_sharing", passed=all(r["passed"] for r in rows), details={"rows": rows}
    )


def check_intensity_formulas(seed: int) -> CheckResult:
    """Appendix B cell ratios equal hand values; table1 cells stay near them."""
    s = cm.ShapeParams(U=4, b=2, n_s=256, n_t=64, n_p=8, d=512, h=8)
    # hand-substituted values, written as explicit arithmetic
    hand = {
        ("encoder_self", "pie"): 1 / 512 + 1 / (4 * 2 * (256 + 8)),
        ("encoder_self", "pid"): 1 / 512 + 1 / (2 * 256),
        ("decoder_self", "pie"): 64 / 512 + 1 / 8,
        ("decoder_self_prompt", "pid"): 1 / 512 + 1 / (4 * 2 * 8),
        ("decoder_cross", "pie"): (256 + 8 + 1) / 512 + 1 / 8,
        ("decoder_cross_prompt", "pid"): (1 / 512) * (256 / (4 * 8) + 1) + 1 / (4 * 2 * 8),
        ("decoder_cross", "pid"): (1 / 512) * (256 / 4 + 1) + 1 / 8,
    }
    cells = {
        (label, engine): cell.inverse_intensity
        for engine in ENGINES
        for label, cell in cm.table1_counts(s, engine, cm.APPENDIX_B).components.items()
    }
    exact = all(
        math.isclose(cells.get(key, math.nan), want, rel_tol=1e-12) for key, want in hand.items()
    )
    # the dominant-term gap: each table1 cell against its Appendix B cell
    big = cm.ShapeParams(U=4, b=2, n_s=512, n_t=64, n_p=8, d=4096, h=16)
    gaps = []
    for engine in ENGINES:
        full = cm.table1_counts(big, engine, cm.APPENDIX_B).components
        for label, cell in cm.table1_counts(big, engine, cm.TABLE1).components.items():
            r = full[label].inverse_intensity
            gaps.append(abs(r - cell.inverse_intensity) / r)
    passed = exact and max(gaps) <= 0.02
    return CheckResult(
        "intensity_formulas",
        passed=passed,
        details={"hand_values_exact": exact, "max_dominant_gap": max(gaps)},
    )


def check_flop_ratio_presets(seed: int) -> CheckResult:
    base = cm.MODEL_PRESETS["t5-base-like"]
    corridors = {
        "multiwoz": (0.05, 0.2),
        "aci-bench": (0.3, 0.5),
        "radqa": (0.4, 0.75),
    }
    rows = []
    ok = True
    for preset, (lo, hi) in corridors.items():
        ratio = cm.flop_ratio(base, cm.SHAPE_PRESETS[preset].shape)
        passed = lo <= ratio <= hi
        ok = ok and passed
        rows.append({"preset": preset, "ratio": ratio, "corridor": [lo, hi], "passed": passed})
    trivial = cm.flop_ratio(
        cm.MODEL_PRESETS["toy"], cm.ShapeParams(U=1, b=1, n_s=64, n_t=8, n_p=0, d=64, h=4)
    )
    ok = ok and trivial == 1.0
    return CheckResult(
        "flop_ratio_presets", passed=ok, details={"rows": rows, "u1_np0_ratio": trivial}
    )


def check_incremental_vs_reference(seed: int) -> CheckResult:
    config = ModelConfig(
        d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
        d_ff=32, vocab_size=23, max_len=64,
    )
    tokens_equal = True
    max_drift = 0.0
    for i in range(5):
        rng = np.random.default_rng(seed + i)
        weights = init_weights(config, seed=seed + i)
        wl = random_workload(
            rng, config.vocab_size, u=int(rng.choice([2, 3])), b=int(rng.choice([1, 2])),
            n_s=int(rng.choice([8, 16])), n_p=int(rng.choice([0, 2])), n_t=6,
        )
        for engine in ENGINES:
            fast = infer(engine, config, weights, wl)
            slow = reference_decode(config, weights, wl, engine)
            tokens_equal = tokens_equal and fast.outputs == slow.outputs
        # logit drift: 16 incremental steps vs one causal pass over the same tokens
        toks = rng.integers(4, config.vocab_size, size=16, dtype=np.int64)
        memory = encode_batch(
            config, weights, [rng.integers(4, config.vocab_size, size=12)], CounterSink()
        )
        inc_state = init_decode_state(config, weights, memory, 1, 16, CounterSink())
        inc = [
            decoder_step(config, weights, inc_state, np.array([t]), CounterSink())
            for t in toks
        ]
        full_state = init_decode_state(config, weights, memory, 1, 16, CounterSink())
        full = decoder_prefill(
            config, weights, full_state, toks[None, :], CounterSink(), return_all_logits=True
        )
        drift = max(float(np.abs(inc[t][0] - full[0, t]).max()) for t in range(len(toks)))
        max_drift = max(max_drift, drift)
    return CheckResult(
        "incremental_vs_reference",
        passed=tokens_equal and max_drift <= 1e-4,
        details={"tokens_equal": tokens_equal, "max_logit_drift": max_drift},
    )


def check_analytic_vs_measured(seed: int) -> CheckResult:
    """Both phases of each engine's run equal the replay of its steps in every cell."""
    config = _toy_model(d=128, h=8, vocab=512, max_len=512)
    shape = cm.ShapeParams(U=8, b=1, n_s=256, n_t=16, n_p=0, d=128, h=8)
    weights = init_weights(config, seed=seed)
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, config.vocab_size, shape.U, shape.b, shape.n_s, shape.n_p, shape.n_t)
    rows = []
    for engine in ENGINES:
        res = infer(engine, config, weights, wl)
        rows.append({
            "engine": engine, "steps_taken": res.steps_taken, "flops": res.counters.flops,
            "mismatches": mirror_mismatches(res, config, shape, engine),
        })
    passed = not any(any(r["mismatches"].values()) for r in rows)
    return CheckResult("analytic_vs_measured", passed=passed, details={"rows": rows})


def check_gradient(seed: int) -> CheckResult:
    config = ModelConfig(
        d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_ff=16, vocab_size=15, max_len=16,
    )
    weights = init_weights(config, seed=seed)
    task = make_synthetic_task(seed=seed, n_prompts=2, n_s=4, vocab_size=15, n_instances=12)
    batch = pid_batches(list(task.train)[:2], 2, np.random.default_rng(seed))[0]
    _, grads = training_forward_backward(config, weights, batch, CounterSink())
    examples = [
        (batch.enc_inputs[i // batch.group_size], s.tokens, s.targets, s.loss_mask)
        for i, s in enumerate(batch.streams)
    ]

    def perturbed(name, idx, eps):
        w = init_weights(config, seed=seed)
        dict(w.named_arrays())[name][idx] += np.float32(eps)
        return w

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    checked = 0
    for name, arr in weights.named_arrays():
        for _ in range(4):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            w_plus, w_minus = perturbed(name, idx, 1e-3), perturbed(name, idx, -1e-3)
            same = all(
                np.array_equal(
                    reference.relu_pattern(w_plus, enc, dec),
                    reference.relu_pattern(w_minus, enc, dec),
                )
                for enc, dec, _, _ in examples
            )
            if not same:
                continue
            actual_eps = float(dict(w_plus.named_arrays())[name][idx]) - float(
                dict(w_minus.named_arrays())[name][idx]
            )
            numeric = (
                reference.batch_loss(w_plus, examples) - reference.batch_loss(w_minus, examples)
            ) / actual_eps
            analytic = float(grads[name][idx])
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
            checked += 1
    return CheckResult(
        "gradient_check",
        passed=worst <= 1e-3 and checked >= 60,
        details={"worst_relative_error": worst, "coordinates_checked": checked},
    )


def check_counter_additivity(seed: int) -> CheckResult:
    config = _toy_model(d=16, h=2, layers=1, vocab=23, max_len=64)
    weights = init_weights(config, seed=seed)
    rng = np.random.default_rng(seed)
    wl_a = random_workload(rng, config.vocab_size, 2, 1, 8, 2, 3)
    wl_b = random_workload(rng, config.vocab_size, 3, 2, 8, 0, 4)
    ra = infer(PIE, config, weights, wl_a)
    rb = infer(PIE, config, weights, wl_b)
    sink = CounterSink()
    infer(PIE, config, weights, wl_a, sink=sink)
    infer(PIE, config, weights, wl_b, sink=sink)
    merged = ra.counters.merge(rb.counters)
    return CheckResult(
        "counter_additivity",
        passed=not cell_mismatches(sink, merged),
        details={"merged_flops": merged.flops, "combined_flops": sink.flops},
    )


def check_component_attribution(seed: int) -> CheckResult:
    config = _toy_model()
    weights = init_weights(config, seed=seed)
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, config.vocab_size, 4, 2, 32, 4, 6)
    shares = {}
    ok = True
    for engine in ENGINES:
        res = infer(engine, config, weights, wl)
        share = res.counters.component("other").flops / res.counters.flops
        shares[engine] = share
        ok = ok and share <= 0.01
    return CheckResult("component_attribution", passed=ok, details={"other_share": shares})


def check_greedy_determinism(seed: int) -> CheckResult:
    config = _toy_model(d=32, h=2)
    weights = init_weights(config, seed=seed)
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, config.vocab_size, 4, 2, 16, 2, 6)
    first = infer(PID, config, weights, wl).outputs
    second = infer(PID, config, weights, wl).outputs
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(infer, PID, config, weights, wl) for _ in range(2)]
        threaded = [f.result().outputs for f in futures]
    passed = first == second and all(t == first for t in threaded)
    return CheckResult("greedy_determinism", passed=passed, details={"runs_identical": passed})


def check_latency_speedup(seed: int) -> CheckResult:
    """Timing-dependent; only in the full suite."""
    config = cm.MODEL_PRESETS["toy"]
    shape = cm.ShapeParams(U=16, b=1, n_s=192, n_t=8, n_p=4, d=64, h=4)
    report = run_bench(
        BenchConfig(model=config, shape=shape, seed=seed, repetitions=3, warmup=1,
                    batch_sizes=(1, 2))
    )
    passed = report.speedup_batched >= 1.5
    return CheckResult(
        "latency_speedup",
        passed=passed,
        details={
            "speedup_single": report.speedup_single,
            "speedup_batched": report.speedup_batched,
        },
    )


def check_train_toy(seed: int) -> CheckResult:
    """Slow (full toy training); only in the full suite.

    pid trains for the spec's epochs and must reach 0.95 held-out exact
    match; pie trains for one.  Each run's counters, every epoch of it,
    must equal :func:`replay_run` of as many epochs in every
    (component, kind) cell (:func:`cell_mismatches`).
    """
    spec = ToyTrainingSpec()
    config = spec.model_config()
    task = spec.task()
    weights, run_pid = train_layout(
        config, task, PID, spec.epochs, spec.learning_rate, spec.batch_instances, seed
    )
    em = evaluate_exact_match(config, weights, list(task.heldout), PID)
    _, run_pie = train_layout(config, task, PIE, 1, spec.learning_rate, spec.batch_instances, seed)
    replayed_per_epoch, mismatches = {}, {}
    for layout, run in ((PID, run_pid), (PIE, run_pie)):
        replayed = replay_run(config, list(task.train), layout, spec.batch_instances, len(run.losses))
        replayed_per_epoch[layout] = replayed.flops // len(run.losses)
        mismatches[layout] = cell_mismatches(run.counters, replayed)
    return CheckResult(
        "train_toy",
        passed=em >= 0.95 and not any(mismatches.values()),
        details={
            "exact_match": em,
            "measured_epoch_flop_ratio": run_pie.flops_per_epoch / run_pid.flops_per_epoch,
            "predicted_epoch_flop_ratio": replayed_per_epoch[PIE] / replayed_per_epoch[PID],
            "mismatches": mismatches,
        },
    )


DEFAULT_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "broadcast_equivalence": check_broadcast_equivalence,
    "encoder_sharing": check_encoder_sharing,
    "intensity_formulas": check_intensity_formulas,
    "flop_ratio_presets": check_flop_ratio_presets,
    "incremental_vs_reference": check_incremental_vs_reference,
    "analytic_vs_measured": check_analytic_vs_measured,
    "gradient_check": check_gradient,
    "counter_additivity": check_counter_additivity,
    "component_attribution": check_component_attribution,
    "greedy_determinism": check_greedy_determinism,
}

FULL_ONLY_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "latency_speedup": check_latency_speedup,
    "train_toy": check_train_toy,
}


def run_checks(
    seed: int = 0,
    names: list[str] | None = None,
    fault: str | None = None,
    full: bool = False,
) -> list[CheckResult]:
    """Run ``names`` (any checks) or the default set, widened by the full-only
    checks with ``full``; a ``fault`` that no selected check applies is an error."""
    table = {**DEFAULT_CHECKS, **FULL_ONLY_CHECKS}
    selected = names if names is not None else [*DEFAULT_CHECKS, *(FULL_ONLY_CHECKS if full else ())]
    unknown = [n for n in selected if n not in table]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(table)}")
    target = FAULT_CHECKS.get(fault)
    if fault is not None and target not in selected:
        raise ValueError(f"no selected check applies fault {fault!r}; fault -> check: {FAULT_CHECKS}")
    return [
        table[name](seed, fault=fault) if name == target else table[name](seed)
        for name in selected
    ]
