"""Training: gradient exactness, loss behavior, synthetic task, layouts."""

import json
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from multiprompt import kernels, reference
from multiprompt.errors import TrainingError
from multiprompt.kernels import CounterSink
from multiprompt.model import BOS, EOS, ModelConfig, init_weights
from multiprompt.training import (
    ToyTrainingSpec,
    evaluate_exact_match,
    make_synthetic_task,
    pid_batches,
    pie_batches,
    split_key,
    train_layout,
    train_step,
    training_forward_backward,
)

GRAD_CONFIG = ModelConfig(
    d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
    d_ff=16, vocab_size=15, max_len=16,
)


def _batch_and_examples(config, layout="pid", seed=0):
    task = make_synthetic_task(seed=seed, n_prompts=2, n_s=4, vocab_size=config.vocab_size,
                               n_instances=12)
    rng = np.random.default_rng(seed)
    build = pid_batches if layout == "pid" else pie_batches
    batch = build(list(task.train)[:2], 2, rng)[0]
    examples = []
    si = 0
    for enc in batch.enc_inputs:
        for _ in range(batch.group_size):
            s = batch.streams[si]
            si += 1
            examples.append((enc, s.tokens, s.targets, s.loss_mask))
    return batch, examples


def test_f32_loss_matches_float64_reference():
    weights = init_weights(GRAD_CONFIG, seed=0)
    for layout in ("pid", "pie"):
        batch, examples = _batch_and_examples(GRAD_CONFIG, layout)
        loss, _ = training_forward_backward(GRAD_CONFIG, weights, batch, CounterSink())
        assert abs(loss - reference.batch_loss(weights, examples)) <= 1e-4


def test_initial_loss_near_uniform_entropy():
    spec = ToyTrainingSpec()
    config = spec.model_config()
    weights = init_weights(config, seed=0)
    task = spec.task()
    batch = pid_batches(list(task.train), 8, np.random.default_rng(0))[0]
    loss, _ = training_forward_backward(config, weights, batch, CounterSink())
    assert abs(loss - math.log(config.vocab_size)) <= 0.1 * math.log(config.vocab_size)


def test_non_finite_loss_raises_training_error_with_step():
    weights = init_weights(GRAD_CONFIG, seed=0)
    # blow up one feed-forward pair so its product overflows float32
    weights.enc_layers[0].ffn.w_in *= np.float32(1e20)
    weights.enc_layers[0].ffn.w_out *= np.float32(1e20)
    batch, _ = _batch_and_examples(GRAD_CONFIG)
    # the overflow reaches a layer norm, whose squares warn before its
    # variance check raises
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        with pytest.raises(TrainingError, match="step 17"):
            train_step(GRAD_CONFIG, weights, batch, 0.1, step_index=17)


# -- synthetic task -----------------------------------------------------------------


def test_synthetic_task_deterministic():
    a = make_synthetic_task(3, 4, 8, 37, n_instances=64)
    b = make_synthetic_task(3, 4, 8, 37, n_instances=64)
    for xa, xb in zip(a.train, b.train):
        np.testing.assert_array_equal(xa.instance.x, xb.instance.x)
        assert xa.answers == xb.answers


def test_synthetic_answers_recoverable_by_string_search():
    task = make_synthetic_task(5, 4, 10, 37, n_instances=32)
    for ex in list(task.train) + list(task.heldout):
        x = list(ex.instance.x)
        for z, ans in zip(ex.instance.prompts, ex.answers):
            key = int(z[0])
            assert x.count(key) == 1
            assert tuple(x[x.index(key) + 1 : x.index(key) + 1 + len(ans)]) == ans


def test_split_is_disjoint_and_hash_based():
    task = make_synthetic_task(1, 4, 8, 37, n_instances=256)
    train_keys = {split_key(ex) for ex in task.train}
    held_keys = {split_key(ex) for ex in task.heldout}
    assert train_keys.isdisjoint(held_keys)
    assert len(task.heldout) > 0
    for ex in task.heldout:
        digest = bytes.fromhex(split_key(ex))
        assert digest[0] % 5 == 0


def test_untrained_exact_match_near_chance():
    spec = ToyTrainingSpec()
    config = spec.model_config()
    weights = init_weights(config, seed=0)
    task = spec.task()
    em = evaluate_exact_match(config, weights, list(task.heldout)[:64], "pid")
    assert em <= 0.15


# -- layouts -------------------------------------------------------------------------


def test_pid_stream_masks_skip_prompt_targets():
    task = make_synthetic_task(0, 2, 4, 37, n_instances=8)
    batch = pid_batches(list(task.train)[:1], 1, np.random.default_rng(0))[0]
    assert batch.group_size == 2
    for s in batch.streams:
        # single-token prompt: the position reading the prompt predicts the
        # answer, the answer position predicts the end token
        assert s.tokens.size == 2
        assert s.loss_mask.tolist() == [True, True]
        assert s.targets[-1] == EOS


def test_pie_streams_are_bos_prefixed():
    task = make_synthetic_task(0, 2, 4, 37, n_instances=8)
    batch = pie_batches(list(task.train)[:1], 1, np.random.default_rng(0))[0]
    assert batch.group_size == 1
    assert len(batch.enc_inputs) == len(batch.streams) == 2
    for enc, s in zip(batch.enc_inputs, batch.streams):
        assert enc.size == 4 + 1 + 1  # input, separator, prompt
        assert s.tokens[0] == BOS


def test_training_learns_within_a_few_epochs():
    spec = ToyTrainingSpec(epochs=3, n_instances=512)
    config = spec.model_config()
    task = spec.task()
    weights, run = train_layout(config, task, "pid", 3, spec.learning_rate, 8, seed=1)
    assert run.losses[-1] < run.losses[0]
    assert len(run.epoch_flops) == 3
    assert run.epoch_flops[0] == run.epoch_flops[1]  # same work every epoch


@pytest.mark.parametrize("layout", ["pie", "pid"])
def test_cross_attention_counts_its_memory_gradient_adds(layout):
    """Per decoder layer, cross-attention adds at its ``S·T`` decoder rows
    twice (the forward residual, the backward input gradient) and at the
    ``owners·m`` encoder rows twice (the K and V shares of the memory
    gradient)."""
    config = ModelConfig(
        d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=2,
        d_ff=16, vocab_size=15, max_len=16,
    )
    batch, _ = _batch_and_examples(config, layout)
    sink = CounterSink()
    train_step(config, init_weights(config, seed=0), batch, 0.1, sink)
    s_t = len(batch.streams) * batch.streams[0].tokens.size
    owners_m = batch.enc_inputs.size
    d = config.d_model
    flops, read, written = sink.kind_totals()[("decoder_cross", "add")]
    assert flops == config.n_dec_layers * (2 * s_t * d + 2 * owners_m * d)
    assert (read, written) == (8 * flops, 4 * flops)


@pytest.mark.parametrize("layout", ["pie", "pid"])
def test_backward_recomputes_each_score_product_and_softmax(layout, monkeypatch):
    """Per attention component, a forward/backward counts the taped forward's softmax twice, and
    three times its product flops (two backward products each) plus its score products again."""
    batch, _ = _batch_and_examples(GRAD_CONFIG, layout)
    forward, score_flops = {}, Counter()
    attention, softmax_rows = kernels.attention, kernels.softmax_rows

    def recorded(q4, k4, v4, sink, *mask_rows):
        score_flops[sink.current_component] += 2 * q4.size * k4.shape[2]
        return attention(q4, k4, v4, sink, *mask_rows)

    def loss_softmax(logits, sink):  # the first call past the forward
        forward.update(sink.kind_totals())
        return softmax_rows(logits, sink)

    monkeypatch.setattr(kernels, "attention", recorded)
    monkeypatch.setattr(kernels, "softmax_rows", loss_softmax)
    sink = CounterSink()
    training_forward_backward(GRAD_CONFIG, init_weights(GRAD_CONFIG, seed=0), batch, sink)
    step = sink.kind_totals()
    for comp in ("encoder_self", "decoder_self", "decoder_cross"):
        assert step[comp, "softmax"] == tuple(2 * c for c in forward[comp, "softmax"])
        assert step[comp, "matmul"][0] == 3 * forward[comp, "matmul"][0] + score_flops[comp]


# -- glibc keeps a train step's freed arrays for the next one ---------------------------

#: Minor page faults per train step, 3 warm-up and 3 measured steps per
#: layout at perfbench's train shape (toy model, U=8, n_s=64, vocabulary 96,
#: 8 instances per batch), in a fresh process; ``no-op`` replaces
#: ``kernels.raise_malloc_thresholds`` first.
FAULT_PROBE = """
import json, resource, sys
import numpy as np
from multiprompt import kernels
from multiprompt.costmodel import MODEL_PRESETS
from multiprompt.kernels import CounterSink
from multiprompt.model import init_weights
from multiprompt.training import make_synthetic_task, pid_batches, pie_batches, train_step

if sys.argv[1] == "no-op":
    kernels.raise_malloc_thresholds = lambda: None
config = MODEL_PRESETS["toy"]
task = make_synthetic_task(1, 8, 64, config.vocab_size, 64)
faults = {}
for layout, build in (("pie", pie_batches), ("pid", pid_batches)):
    batches = [b for b in build(list(task.train), 8, np.random.default_rng(1)) if len(b.streams) == 64]
    weights = init_weights(config, seed=0)
    for batch in batches[:3]:
        train_step(config, weights, batch, 0.1, CounterSink())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[:3]:
        train_step(config, weights, batch, 0.1, CounterSink())
    faults[layout] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
print(json.dumps(faults))
"""


def _faults_per_train_step(mode: str) -> dict[str, float]:
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the thresholds are glibc's mallopt parameters")
    # a child process: the thresholds are process-wide and last, so they
    # stay out of this one
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, mode], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)


def test_train_steps_after_warm_up_take_almost_no_page_faults():
    faults = _faults_per_train_step("thresholds")
    assert faults["pie"] < 200 and faults["pid"] < 200, faults


def test_train_steps_without_the_thresholds_fault_their_arrays_in_again():
    # the negative control: glibc's defaults trim and map pie's large
    # arrays afresh on every step
    faults = _faults_per_train_step("no-op")
    assert faults["pie"] > 1000, faults
