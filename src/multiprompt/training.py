"""Toy training: synthetic decomposable task, exact backprop, plain SGD.

Training batches take the inference layout itself (``engines._layout``),
so the two layouts are the two inference configurations.  The
prompt-in-encoder layout turns every (instance, prompt) pair into its own
example with the prompt concatenated to the input, so each epoch encodes
every shared input once per prompt.  The prompt-in-decoder layout keeps
one encoder pass per instance and trains all of the instance's decoder
streams against that single shared encoding.

The forward pass is the inference forward itself: ``encode_batch``,
``init_decode_state`` and an all-positions ``decoder_prefill`` from
:mod:`multiprompt.model`, run with activation tapes.  This module holds
only the loss and the backward.  The backward pass is exact and runs
through the same counted kernels as the forward pass (matrix multiplies,
softmax/layer-norm/relu backward), so per-epoch training counts are
measured, and :func:`replay_epoch` replays them exactly from shapes
(``costmodel.replay_train_step`` per batch).  Gradients that fan in from
several places, such as the encoder memory's from every decoder layer's
cross-attention, accumulate through counted kernels.  Only the ``+=``
that adds each weight's gradient into its buffer is plain NumPy and goes
uncounted; it touches each parameter once per step, which is negligible
next to the matmul terms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .costmodel import replay_train_step
from .engines import PID, PIE, Instance, Workload, _layout, infer
from .errors import ConfigError, TrainingError
from .kernels import CounterSink, Counts, F32
from .model import (
    EOS,
    AttentionWeights,
    FeedForwardWeights,
    ModelConfig,
    WeightSet,
    _fold_heads,
    _unfold_heads,
    decoder_prefill,
    encode_batch,
    init_decode_state,
    init_weights,
)

# -- synthetic decomposable task ----------------------------------------------


@dataclass(frozen=True)
class LabeledInstance:
    """A workload instance plus the gold answer span per prompt."""

    instance: Instance
    answers: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SyntheticTask:
    """Key-value recall: the input interleaves key/value pairs, each prompt
    is one key, and the target is the value token that follows it.

    The keys form a fixed catalog shared by every instance, mirroring the
    fixed prompt sets of real decomposable tasks (slot names, section
    headers); the values are random per instance, so exact match on the
    held-out split requires actually reading them out of the input."""

    train: tuple[LabeledInstance, ...]
    heldout: tuple[LabeledInstance, ...]
    n_prompts: int
    n_s: int
    vocab_size: int


def synthetic_vocab_ranges(vocab_size: int) -> tuple[range, range, int]:
    """(key ids, value ids, filler id) partition of the content vocabulary."""
    content = vocab_size - 5  # 4 reserved ids plus one filler id
    n_keys = content // 2
    keys = range(4, 4 + n_keys)
    values = range(4 + n_keys, 4 + 2 * n_keys)
    return keys, values, vocab_size - 1


def make_synthetic_task(
    seed: int,
    n_prompts: int,
    n_s: int,
    vocab_size: int,
    n_instances: int = 640,
) -> SyntheticTask:
    """Deterministic dataset of key-value recall instances.

    The train/held-out split hashes each instance's input tokens, so the
    split is a pure function of content: identical instances always land on
    the same side and the two sides are disjoint by construction.
    """
    keys, values, filler = synthetic_vocab_ranges(vocab_size)
    if len(keys) < n_prompts:
        raise ConfigError(
            f"vocab_size={vocab_size} yields {len(keys)} keys; need >= {n_prompts}"
        )
    if n_s < 2 * n_prompts:
        raise ConfigError(f"n_s={n_s} cannot hold {n_prompts} key-value pairs")
    catalog = np.asarray(keys)[:n_prompts]
    rng = np.random.default_rng(seed)
    train, heldout = [], []
    for _ in range(n_instances):
        vs = rng.choice(np.asarray(values), size=n_prompts, replace=True)
        x = np.full(n_s, filler, dtype=np.int64)
        x[0 : 2 * n_prompts : 2] = catalog
        x[1 : 2 * n_prompts : 2] = vs
        order = rng.permutation(n_prompts)
        labeled = LabeledInstance(
            instance=Instance(
                x=x,
                prompts=tuple(np.asarray([catalog[j]], dtype=np.int64) for j in order),
            ),
            answers=tuple((int(vs[j]),) for j in order),
        )
        (heldout if int(split_key(labeled)[:2], 16) % 5 == 0 else train).append(labeled)
    return SyntheticTask(
        train=tuple(train),
        heldout=tuple(heldout),
        n_prompts=n_prompts,
        n_s=n_s,
        vocab_size=vocab_size,
    )


def split_key(example: LabeledInstance) -> str:
    """Hash used by the train/held-out split (exposed for the split check)."""
    return hashlib.sha256(np.asarray(example.instance.x).tobytes()).hexdigest()


# -- batch layouts ---------------------------------------------------------------


@dataclass(frozen=True)
class DecStream:
    tokens: np.ndarray
    targets: np.ndarray
    loss_mask: np.ndarray


@dataclass(frozen=True)
class TrainBatch:
    """Uniform-shape training batch: a ``[groups, L]`` block of encoder
    inputs, each shared by ``group_size`` consecutive decoder streams (1 for
    prompt-in-encoder, U for prompt-in-decoder)."""

    enc_inputs: np.ndarray
    streams: list[DecStream]
    group_size: int


def _stream(prefix: np.ndarray, answer: tuple[int, ...]) -> DecStream:
    """Teacher forcing over ``prefix ‖ answer``: every position predicts the next
    token and the last one the end token; the loss counts from the last prefix
    position on (answer tokens and the end token, never prompt tokens)."""
    ans = np.asarray(answer, dtype=np.int64)
    tokens = np.concatenate([prefix, ans])
    targets = np.concatenate([prefix[1:], ans, [EOS]])
    mask = np.zeros(tokens.size, dtype=bool)
    mask[prefix.size - 1 :] = True
    return DecStream(tokens=tokens, targets=targets, loss_mask=mask)


def _laid_out(
    layout: str, examples: list[LabeledInstance], batch_instances: int
) -> tuple[np.ndarray, list[DecStream], int, int]:
    """``(encoder block, streams, kv_group, encoder rows per batch)`` in ``layout``.

    The encoder block, decoder prefixes and ``kv_group`` come from
    ``engines._layout``, so training puts the prompts where inference does;
    stream ``i·kv_group + j`` attends to encoder row ``i``.  Built once per
    run: only the order changes between epochs.
    """
    if not examples:
        return [], [], 1, 1
    wl = Workload(instances=tuple(ex.instance for ex in examples), max_new_tokens=0)
    enc_inputs, prefix, kv_group = _layout(layout, wl)
    answers = [ans for ex in examples for ans in ex.answers]
    streams = [_stream(p, ans) for p, ans in zip(prefix, answers)]
    return enc_inputs, streams, kv_group, batch_instances * wl.n_prompts // kv_group


def _shuffled(
    laid: tuple[np.ndarray, list[DecStream], int, int], rng: np.random.Generator
) -> list[TrainBatch]:
    """One epoch of batches: each holds ``per_batch`` shuffled encoder rows
    and the ``kv_group`` streams attending to each."""
    enc_inputs, streams, kv_group, per_batch = laid
    order = rng.permutation(len(enc_inputs))
    batches = []
    for start in range(0, len(order), per_batch):
        chunk = order[start : start + per_batch]
        batches.append(
            TrainBatch(
                enc_inputs=enc_inputs[chunk],
                streams=[streams[i * kv_group + j] for i in chunk for j in range(kv_group)],
                group_size=kv_group,
            )
        )
    return batches


def pid_batches(
    examples: list[LabeledInstance], batch_instances: int, rng: np.random.Generator
) -> list[TrainBatch]:
    """All outputs of one shared input travel in the same batch group."""
    return _shuffled(_laid_out(PID, examples, batch_instances), rng)


def pie_batches(
    examples: list[LabeledInstance], batch_instances: int, rng: np.random.Generator
) -> list[TrainBatch]:
    """One example per (instance, prompt): the prompt rides in the encoder."""
    return _shuffled(_laid_out(PIE, examples, batch_instances), rng)


# -- forward/backward ---------------------------------------------------------------


def _attention_backward(
    name: str,
    component: str,
    attn: AttentionWeights,
    t: dict,
    dx: np.ndarray,
    n_heads: int,
    grads: dict[str, np.ndarray],
    sink: CounterSink,
    memory: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of ``model._attention_sublayer`` from its taped activations.

    The tape's ``q4`` is already scaled by ``1/sqrt(dh)``.  Self-attention
    projected its K/V from its own normed rows; cross-attention passes
    ``memory``: the encoder rows it projected them from and their gradient
    so far.  Returns ``(dx, d_rows)``: the gradients at the sublayer input
    and at the K/V source rows, this sublayer's share included.
    """
    with sink.scope(component):
        grads[f"{name}.w_o"] += kernels.matmul(t["ctx"].T, dx, sink)
        d_ctx = kernels.matmul(dx, attn.w_o.T, sink)
        q4 = t["q4"]
        oh, _, dh = q4.shape
        d_q4, d_k4, d_v4 = kernels.attention_backward(
            q4, t["k4"], t["v4"], t["mask_rows"], _fold_heads(d_ctx, oh // n_heads, n_heads), sink
        )
        d_q = kernels.scale(_unfold_heads(d_q4, n_heads), 1.0 / math.sqrt(dh), sink)
        d_k, d_v = _unfold_heads(d_k4, n_heads), _unfold_heads(d_v4, n_heads)
        normed = t["normed"]
        grads[f"{name}.w_q"] += kernels.matmul(normed.T, d_q, sink)
        d_normed = kernels.matmul(d_q, attn.w_q.T, sink)
        rows, d_rows = (normed, d_normed) if memory is None else memory
        grads[f"{name}.w_k"] += kernels.matmul(rows.T, d_k, sink)
        grads[f"{name}.w_v"] += kernels.matmul(rows.T, d_v, sink)
        d_rows = kernels.matmul(d_k, attn.w_k.T, sink, residual=d_rows)
        d_rows = kernels.matmul(d_v, attn.w_v.T, sink, residual=d_rows)
        if memory is None:
            d_normed = d_rows
        d_ln, dg = kernels.layer_norm_backward(t["x_in"], attn.gain, d_normed, sink)
        grads[f"{name}.gain"] += dg
        return kernels.add(dx, d_ln, sink), d_rows


def _ffn_backward(
    name: str,
    ffn: FeedForwardWeights,
    t: dict,
    dx: np.ndarray,
    grads: dict[str, np.ndarray],
    sink: CounterSink,
) -> np.ndarray:
    """Backward of ``model._ffn_sublayer``; returns the input gradient."""
    with sink.scope("feed_forward"):
        grads[f"{name}.w_out"] += kernels.matmul(t["hid"].T, dx, sink)
        d_hid = kernels.matmul(dx, ffn.w_out.T, sink)
        d_pre = kernels.relu_backward(t["hid"], d_hid, sink)
        grads[f"{name}.w_in"] += kernels.matmul(t["normed"].T, d_pre, sink)
        d_normed = kernels.matmul(d_pre, ffn.w_in.T, sink)
        d_ln, dg = kernels.layer_norm_backward(t["x_in"], ffn.gain, d_normed, sink)
        grads[f"{name}.gain"] += dg
        return kernels.add(dx, d_ln, sink)


def training_forward_backward(
    config: ModelConfig,
    weights: WeightSet,
    batch: TrainBatch,
    sink: CounterSink,
) -> tuple[float, dict[str, np.ndarray]]:
    """One exact forward/backward over a uniform batch; returns (loss, grads).

    The forward is the inference forward (``encode_batch``,
    ``init_decode_state``, an all-positions ``decoder_prefill``) recording
    activations on two tapes.  Cross-entropy is averaged over positions
    whose loss mask is set (targets that are output tokens, never prompt
    tokens); decoder streams of one group share a single encoder forward
    and their memory gradients sum.
    """
    h = config.n_heads
    emb_scale = math.sqrt(config.d_model)
    n_groups = len(batch.enc_inputs)
    group = batch.group_size
    n_streams = n_groups * group
    if len(batch.streams) != n_streams:
        raise ConfigError(
            f"batch has {len(batch.streams)} streams, expected {n_groups}x{group}"
        )
    t_dec = batch.streams[0].tokens.size
    rd = n_streams * t_dec

    grads = {name: np.zeros_like(arr) for name, arr in weights.named_arrays()}

    # ---- forward: the inference forward, recorded on tapes
    enc_tape: list[dict] = []
    dec_tape: list[dict] = []
    memory = encode_batch(config, weights, batch.enc_inputs, sink, tape=enc_tape)
    state = init_decode_state(config, weights, memory, group, t_dec, sink)
    dec_tokens = np.stack([s.tokens for s in batch.streams])
    logits = decoder_prefill(
        config, weights, state, dec_tokens, sink, return_all_logits=True, tape=dec_tape
    ).reshape(rd, config.vocab_size)
    targets = np.stack([s.targets for s in batch.streams]).reshape(-1)
    loss_mask = np.stack([s.loss_mask for s in batch.streams]).reshape(-1)

    # ---- loss and logits gradient
    n_count = int(loss_mask.sum())
    with sink.scope("other"):
        probs = kernels.softmax_rows(logits, sink)
        picked = probs[np.arange(rd), targets]
        loss = float(-np.log(np.maximum(picked[loss_mask], 1e-30)).mean())
        d_logits = probs.copy()
        d_logits[np.arange(rd), targets] -= 1.0
        d_logits *= (loss_mask / n_count).astype(F32)[:, None]
        kernels.count_loss_grad(sink, rd, config.vocab_size)
    if not math.isfinite(loss):
        raise TrainingError("non-finite loss")

    # ---- decoder backward; the tape holds (self, cross, ffn) per layer, then the final norm
    final = dec_tape[-1]
    with sink.scope("embedding"):
        grads["head"] += kernels.matmul(final["normed"].T, d_logits, sink)
        d_final = kernels.matmul(d_logits, weights.head.T, sink)
    with sink.scope("other"):
        dx, dg = kernels.layer_norm_backward(final["x_in"], weights.dec_final_gain, d_final, sink)
        grads["dec_final_gain"] += dg
    memory_rows = enc_tape[-1]["normed"]
    d_memory = np.zeros_like(memory_rows)
    for li in reversed(range(config.n_dec_layers)):
        layer = weights.dec_layers[li]
        t_self, t_cross, t_ffn = dec_tape[3 * li : 3 * li + 3]
        dx = _ffn_backward(f"dec.{li}.ffn", layer.ffn, t_ffn, dx, grads, sink)
        dx, d_memory = _attention_backward(
            f"dec.{li}.cross", "decoder_cross", layer.cross_attn, t_cross, dx, h, grads, sink,
            memory=(memory_rows, d_memory),
        )
        dx, _ = _attention_backward(
            f"dec.{li}.self", "decoder_self", layer.self_attn, t_self, dx, h, grads, sink
        )
    with sink.scope("embedding"):
        kernels.scatter_add_rows(
            grads["embedding"], dec_tokens.reshape(-1), kernels.scale(dx, emb_scale, sink), sink
        )

    # ---- encoder backward (memory gradient fans in from every decoder layer);
    # the tape holds (attn, ffn) per layer, then the final norm
    with sink.scope("other"):
        dx, dg = kernels.layer_norm_backward(
            enc_tape[-1]["x_in"], weights.enc_final_gain, d_memory, sink
        )
        grads["enc_final_gain"] += dg
    for li in reversed(range(config.n_enc_layers)):
        layer = weights.enc_layers[li]
        t_attn, t_ffn = enc_tape[2 * li : 2 * li + 2]
        dx = _ffn_backward(f"enc.{li}.ffn", layer.ffn, t_ffn, dx, grads, sink)
        dx, _ = _attention_backward(
            f"enc.{li}.attn", "encoder_self", layer.attn, t_attn, dx, h, grads, sink
        )
    with sink.scope("embedding"):
        kernels.scatter_add_rows(
            grads["embedding"], batch.enc_inputs.reshape(-1),
            kernels.scale(dx, emb_scale, sink), sink,
        )
    return loss, grads


def sgd_update(weights: WeightSet, grads: dict[str, np.ndarray], lr: float, sink: CounterSink) -> None:
    for name, arr in weights.named_arrays():
        arr -= F32(lr) * grads[name]
        kernels.count_sgd(sink, arr.size)


def train_step(
    config: ModelConfig,
    weights: WeightSet,
    batch: TrainBatch,
    learning_rate: float,
    sink: CounterSink | None = None,
    step_index: int | None = None,
) -> float:
    """One SGD step in place; returns the batch loss."""
    sink = sink if sink is not None else CounterSink()
    try:
        loss, grads = training_forward_backward(config, weights, batch, sink)
    except (TrainingError, FloatingPointError) as exc:
        raise TrainingError(f"{exc} at step {step_index}") from None
    sgd_update(weights, grads, learning_rate, sink)
    return loss


# -- orchestration -------------------------------------------------------------------


@dataclass
class TrainingRun:
    losses: list[float] = field(default_factory=list)
    epoch_counts: list[Counts] = field(default_factory=list)
    exact_match: float | None = None

    @property
    def flops_per_epoch(self) -> int:
        return self.epoch_counts[0].flops if self.epoch_counts else 0


def train_layout(
    config: ModelConfig,
    task: SyntheticTask,
    layout: str,
    epochs: int,
    learning_rate: float,
    batch_instances: int,
    seed: int,
) -> tuple[WeightSet, TrainingRun]:
    """Train a fresh model with one batch layout; counts measured per epoch."""
    if layout not in (PIE, PID):
        raise ConfigError(f"unknown layout {layout!r}")
    weights = init_weights(config, seed)
    sink = CounterSink()
    rng = np.random.default_rng(seed)
    run = TrainingRun()
    laid = _laid_out(layout, list(task.train), batch_instances)
    step = 0
    for _ in range(epochs):
        before = sink.kind_totals()
        epoch_losses = []
        for batch in _shuffled(laid, rng):
            epoch_losses.append(
                train_step(config, weights, batch, learning_rate, sink, step_index=step)
            )
            step += 1
        run.losses.append(float(np.mean(epoch_losses)))
        epoch = sink.since(before)
        run.epoch_counts.append(Counts(epoch.flops, epoch.bytes_read, epoch.bytes_written))
    return weights, run


def evaluate_exact_match(
    config: ModelConfig,
    weights: WeightSet,
    examples: list[LabeledInstance],
    layout: str,
) -> float:
    """Fraction of prompts whose greedy decode equals answer plus end token."""
    if not examples:
        return 0.0
    max_new = len(examples[0].answers[0]) + 1 if examples[0].answers else 1
    batch_instances = 16  # instances per ``infer`` call
    hits = total = 0
    for start in range(0, len(examples), batch_instances):
        chunk = examples[start : start + batch_instances]
        wl = Workload(
            instances=tuple(ex.instance for ex in chunk), max_new_tokens=max_new
        )
        res = infer(layout, config, weights, wl)
        for ex, per_instance in zip(chunk, res.outputs):
            for ans, got in zip(ex.answers, per_instance):
                hits += int(got == list(ans) + [EOS])
                total += 1
    return hits / total


@dataclass(frozen=True)
class ToyTrainingSpec:
    """Frozen defaults for the toy task, trained with plain SGD.

    Full held-out exact match is not reached at every training seed (the
    seed draws the initial weights and the batch order): over seeds 0 to 7,
    pie reached 1.0 at six (0.493 at seed 3, 0.578 at seed 7) and pid at
    seven (0.957 at seed 1).
    """

    n_prompts: int = 4
    n_s: int = 8
    vocab_size: int = 37
    n_instances: int = 2048
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 1
    d_ff: int = 64
    max_len: int = 32
    epochs: int = 30
    learning_rate: float = 0.5
    batch_instances: int = 8
    task_seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_instances < 1:
            raise ConfigError(f"batch_instances must be >= 1, got {self.batch_instances}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            d_model=self.d_model, n_heads=self.n_heads,
            n_enc_layers=self.n_layers, n_dec_layers=self.n_layers,
            d_ff=self.d_ff, vocab_size=self.vocab_size, max_len=self.max_len,
        )

    def task(self) -> SyntheticTask:
        return make_synthetic_task(
            self.task_seed, self.n_prompts, self.n_s, self.vocab_size, self.n_instances
        )


def run_toy_training(spec: ToyTrainingSpec, seed: int) -> dict[str, TrainingRun]:
    """Train one model per layout and report exact match plus epoch counts."""
    config = spec.model_config()
    task = spec.task()
    runs: dict[str, TrainingRun] = {}
    for layout in (PIE, PID):
        weights, run = train_layout(
            config, task, layout, spec.epochs, spec.learning_rate,
            spec.batch_instances, seed,
        )
        run.exact_match = evaluate_exact_match(config, weights, list(task.heldout), layout)
        runs[layout] = run
    return runs


def replay_epoch(
    config: ModelConfig, examples: list[LabeledInstance], layout: str, batch_instances: int
) -> CounterSink:
    """The counts of one :func:`train_layout` epoch, replayed from shapes.

    Every epoch runs the same batch shapes, those of :func:`_laid_out`
    (the last batch may be partial), and each is one
    ``costmodel.replay_train_step``.
    """
    enc_inputs, streams, kv_group, per_batch = _laid_out(layout, examples, batch_instances)
    epoch = CounterSink()
    for start in range(0, len(enc_inputs), per_batch):
        groups = min(per_batch, len(enc_inputs) - start)
        epoch = epoch.merge(
            replay_train_step(config, groups, enc_inputs.shape[1], kv_group, streams[0].tokens.size)
        )
    return epoch
