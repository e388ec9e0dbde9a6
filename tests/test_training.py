"""Training: gradient exactness, loss behavior, synthetic task, layouts."""

import math

import numpy as np
import pytest

from multiprompt import kernels, reference, training
from multiprompt.costmodel import MODEL_PRESETS
from multiprompt.errors import TrainingError
from multiprompt.kernels import CounterSink
from multiprompt.model import BOS, EOS, ModelConfig, init_weights
from multiprompt.training import (
    ToyTrainingSpec,
    evaluate_exact_match,
    make_synthetic_task,
    pid_batches,
    pie_batches,
    sgd_update,
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


# -- the training-step workspace -------------------------------------------------------

WS_LEARNING_RATE = 0.1


def _workspace_batches():
    """Three full batches per layout of the toy model on U=8, n_s=64, vocab 96 and
    8 instances per batch: most activations of a step are large enough to pool."""
    config = MODEL_PRESETS["toy"]
    task = make_synthetic_task(1, 8, 64, config.vocab_size, 64)
    batches = {}
    for layout, build in (("pie", pie_batches), ("pid", pid_batches)):
        full = [b for b in build(list(task.train), 8, np.random.default_rng(1)) if len(b.streams) == 64]
        batches[layout] = full[:3]
    return config, batches


def _three_steps(config, batches, step):
    """(loss, weight checksum, per-kind counts) after each of three steps from seed-0 weights."""
    weights = init_weights(config, seed=0)
    out = []
    for batch in batches:
        sink = CounterSink()
        loss = step(config, weights, batch, sink)
        out.append((loss, weights.checksum(), list(sink.kind_totals().items())))
    return out


def _plain_step(config, weights, batch, sink):
    assert kernels._workspace is None
    loss, grads = training_forward_backward(config, weights, batch, sink)
    sgd_update(weights, grads, WS_LEARNING_RATE, sink)
    return loss


def _workspace_steps_match_plain_steps(monkeypatch, workspace) -> tuple[bool, dict]:
    """Whether ``train_step`` in ``workspace`` equals steps outside any workspace,
    for three steps per layout; also the pool size after each step."""
    monkeypatch.setattr(training, "WORKSPACE", workspace)
    config, batches = _workspace_batches()
    pool_sizes = {}
    same = True
    for layout, chosen in batches.items():
        sizes = pool_sizes[layout] = []

        def step(config, weights, batch, sink):
            loss = train_step(config, weights, batch, WS_LEARNING_RATE, sink)
            sizes.append(workspace.buffers)
            return loss

        try:
            pooled = _three_steps(config, chosen, step)
        except TrainingError:  # a clobbered activation can overflow
            pooled = None
        same &= pooled == _three_steps(config, chosen, _plain_step)
    return same, pool_sizes


def test_train_steps_in_the_workspace_are_bit_identical_and_reuse_its_buffers(monkeypatch):
    workspace = kernels.Workspace()
    same, pool_sizes = _workspace_steps_match_plain_steps(monkeypatch, workspace)
    assert same
    assert kernels._workspace is None
    # after a layout's first step, steps of the same shapes add no buffer
    for sizes in pool_sizes.values():
        assert sizes[0] > 0 and sizes[1:] == [sizes[0]] * 2


def test_a_workspace_that_ignores_liveness_breaks_bit_identity(monkeypatch):
    class IgnoresLiveness(kernels.Workspace):
        """Hands a buffer out again while arrays still refer to it."""

        def _is_free(self, buf):
            return True

    same, _ = _workspace_steps_match_plain_steps(monkeypatch, IgnoresLiveness())
    assert not same


def test_row_reducing_kernels_get_c_ordered_operands_in_a_train_step(monkeypatch):
    # every workspace buffer is C-ordered, and NumPy sums a C-ordered row
    # pairwise but a strided one sequentially: a row-reducing kernel would
    # round differently inside the workspace than outside it on any other
    # operand order; attention_backward sums rows of its probs times the
    # product of its d_ctx
    names = ("layer_norm", "layer_norm_backward", "softmax_rows", "attention_backward")
    calls = []
    for name in names:

        def wrapped(*args, _kernel=getattr(kernels, name), _name=name, **kwargs):
            if _name == "attention_backward":
                operands = args[3:5]  # probs, d_ctx
            else:
                operands = [a for a in args if isinstance(a, np.ndarray) and a.ndim == 2]
            for a in operands:
                calls.append((_name, a.flags.c_contiguous, kernels._workspace is not None))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, wrapped)
    config, batches = _workspace_batches()
    for chosen in batches.values():
        train_step(config, init_weights(config, seed=0), chosen[0], WS_LEARNING_RATE, CounterSink())
    assert {name for name, _, _ in calls} == set(names)
    assert all(in_workspace for _, _, in_workspace in calls)
    assert [name for name, c_ordered, _ in calls if not c_ordered] == []
