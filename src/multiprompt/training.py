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
softmax/layer-norm/relu backward), so per-epoch training flops are
measured rather than estimated.  Gradient
buffer accumulation (the ``+=`` into weight-gradient arrays) is plain
numpy and is not counted; it is linear in parameter count and negligible
next to the matmul terms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .costmodel import _decode_flops, _encode_flops
from .engines import PID, PIE, Instance, Workload, _layout, infer
from .errors import ConfigError, TrainingError
from .kernels import CounterSink, F32
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
    prompt_len: int = 1
    answer_len: int = 1


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
        digest = hashlib.sha256(x.tobytes()).digest()
        (heldout if digest[0] % 5 == 0 else train).append(labeled)
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
    """Uniform-shape training batch: ``group_size`` decoder streams share
    each encoder input (1 for prompt-in-encoder, U for prompt-in-decoder)."""

    enc_inputs: list[np.ndarray]
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
) -> tuple[list[np.ndarray], list[DecStream], int, int]:
    """``(encoder inputs, streams, kv_group, encoder inputs per batch)`` in ``layout``.

    The encoder inputs, decoder prefixes and ``kv_group`` come from
    ``engines._layout``, so training puts the prompts where inference does;
    stream ``i·kv_group + j`` attends to encoder input ``i``.  Built once per
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
    laid: tuple[list[np.ndarray], list[DecStream], int, int], rng: np.random.Generator
) -> list[TrainBatch]:
    """One epoch of batches: each holds ``per_batch`` shuffled encoder inputs
    and the ``kv_group`` streams attending to each."""
    enc_inputs, streams, kv_group, per_batch = laid
    order = rng.permutation(len(enc_inputs))
    batches = []
    for start in range(0, len(order), per_batch):
        chunk = order[start : start + per_batch]
        batches.append(
            TrainBatch(
                enc_inputs=[enc_inputs[i] for i in chunk],
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


def _attn_backward(
    d_out: np.ndarray, mh: dict, n_heads: int, sink: CounterSink
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of the head-folded attention of ``model._attention_sublayer``.

    ``d_out`` is ``[O*r, d]`` rows matching the context rows; ``mh`` holds
    the taped ``q4 [O*h, r, dh]`` (already scaled by ``1/sqrt(dh)``),
    ``k4 [O*h, dh, m]``, ``v4 [O*h, m, dh]`` and ``probs``.  Returns the
    gradient at the unscaled query rows ``[O*r, d]`` and at the attended
    K/V rows ``[O*m, d]`` each.
    """
    q4 = mh["q4"]
    oh, _, dh = q4.shape
    d_ctx = _fold_heads(d_out, oh // n_heads, n_heads)
    d_q4, d_k4, d_v4 = kernels.attention_backward(q4, mh["k4"], mh["v4"], mh["probs"], d_ctx, sink)
    d_q = kernels.scale(_unfold_heads(d_q4, n_heads), 1.0 / math.sqrt(dh), sink)
    return d_q, _unfold_heads(d_k4, n_heads), _unfold_heads(d_v4, n_heads)


def _attention_backward(
    name: str,
    component: str,
    attn: AttentionWeights,
    t: dict,
    dx: np.ndarray,
    self_kv: bool,
    n_heads: int,
    grads: dict[str, np.ndarray],
    sink: CounterSink,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of ``model._attention_sublayer`` from its taped activations.

    Returns ``(dx, d_k, d_v)``: the gradient at the sublayer input and at
    the attended K/V rows.  With ``self_kv`` the K/V were projected from the
    sublayer's own normed input, so their weight gradients and their share
    of the input gradient are taken here; otherwise the caller owns them.
    """
    with sink.scope(component):
        grads[f"{name}.w_o"] += kernels.matmul(t["ctx"].T, dx, sink)
        d_ctx = kernels.matmul(dx, attn.w_o.T, sink)
        d_q, d_k, d_v = _attn_backward(d_ctx, t, n_heads, sink)
        normed = t["normed"]
        grads[f"{name}.w_q"] += kernels.matmul(normed.T, d_q, sink)
        d_normed = kernels.matmul(d_q, attn.w_q.T, sink)
        if self_kv:
            grads[f"{name}.w_k"] += kernels.matmul(normed.T, d_k, sink)
            grads[f"{name}.w_v"] += kernels.matmul(normed.T, d_v, sink)
            d_normed = kernels.matmul(d_k, attn.w_k.T, sink, residual=d_normed)
            d_normed = kernels.matmul(d_v, attn.w_v.T, sink, residual=d_normed)
        d_ln, dg = kernels.layer_norm_backward(t["x_in"], attn.gain, d_normed, sink)
        grads[f"{name}.gain"] += dg
        return kernels.add(dx, d_ln, sink), d_k, d_v


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
        sink.add("loss_grad", 3 * rd * config.vocab_size, 8 * rd * config.vocab_size,
                 4 * rd * config.vocab_size)
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
        dx, d_k, d_v = _attention_backward(
            f"dec.{li}.cross", "decoder_cross", layer.cross_attn, t_cross, dx, False, h,
            grads, sink,
        )
        with sink.scope("decoder_cross"):
            grads[f"dec.{li}.cross.w_k"] += kernels.matmul(memory_rows.T, d_k, sink)
            d_memory += kernels.matmul(d_k, layer.cross_attn.w_k.T, sink)
            grads[f"dec.{li}.cross.w_v"] += kernels.matmul(memory_rows.T, d_v, sink)
            d_memory += kernels.matmul(d_v, layer.cross_attn.w_v.T, sink)
        dx, _, _ = _attention_backward(
            f"dec.{li}.self", "decoder_self", layer.self_attn, t_self, dx, True, h, grads, sink
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
        dx, _, _ = _attention_backward(
            f"enc.{li}.attn", "encoder_self", layer.attn, t_attn, dx, True, h, grads, sink
        )
    with sink.scope("embedding"):
        kernels.scatter_add_rows(
            grads["embedding"], np.concatenate(batch.enc_inputs),
            kernels.scale(dx, emb_scale, sink), sink,
        )
    return loss, grads


def sgd_update(weights: WeightSet, grads: dict[str, np.ndarray], lr: float, sink: CounterSink) -> None:
    for name, arr in weights.named_arrays():
        g = grads[name]
        arr -= F32(lr) * g
        sink.add("sgd", 2 * arr.size, 8 * arr.size, 4 * arr.size)


#: Kernel buffers of every training step, kept across steps and layouts so a
#: step of a shape seen before allocates no large array.
WORKSPACE = kernels.Workspace()


def train_step(
    config: ModelConfig,
    weights: WeightSet,
    batch: TrainBatch,
    learning_rate: float,
    sink: CounterSink | None = None,
    step_index: int | None = None,
) -> float:
    """One SGD step in place, its kernels drawing on :data:`WORKSPACE`;
    returns the batch loss."""
    sink = sink if sink is not None else CounterSink()
    with WORKSPACE:
        try:
            loss, grads = training_forward_backward(config, weights, batch, sink)
        except (TrainingError, FloatingPointError) as exc:
            raise TrainingError(f"{exc} at step {step_index}") from None
        sgd_update(weights, grads, learning_rate, sink)
    return loss


# -- orchestration -------------------------------------------------------------------


@dataclass
class TrainingRun:
    layout: str
    losses: list[float] = field(default_factory=list)
    epoch_flops: list[int] = field(default_factory=list)
    exact_match: float | None = None

    @property
    def flops_per_epoch(self) -> int:
        return self.epoch_flops[0] if self.epoch_flops else 0


def train_layout(
    config: ModelConfig,
    task: SyntheticTask,
    layout: str,
    epochs: int,
    learning_rate: float,
    batch_instances: int,
    seed: int,
    sink: CounterSink | None = None,
) -> tuple[WeightSet, TrainingRun]:
    """Train a fresh model with one batch layout; flops measured per epoch."""
    from .model import init_weights

    if layout not in (PIE, PID):
        raise ConfigError(f"unknown layout {layout!r}")
    weights = init_weights(config, seed)
    sink = sink if sink is not None else CounterSink()
    rng = np.random.default_rng(seed)
    run = TrainingRun(layout=layout)
    laid = _laid_out(layout, list(task.train), batch_instances)
    step = 0
    for _ in range(epochs):
        flops_before = sink.flops
        epoch_losses = []
        for batch in _shuffled(laid, rng):
            epoch_losses.append(
                train_step(config, weights, batch, learning_rate, sink, step_index=step)
            )
            step += 1
        run.losses.append(float(np.mean(epoch_losses)))
        run.epoch_flops.append(sink.flops - flops_before)
    return weights, run


def evaluate_exact_match(
    config: ModelConfig,
    weights: WeightSet,
    examples: list[LabeledInstance],
    layout: str,
    batch_instances: int = 16,
) -> float:
    """Fraction of prompts whose greedy decode equals answer plus end token."""
    if not examples:
        return 0.0
    max_new = len(examples[0].answers[0]) + 1 if examples[0].answers else 1
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
    """Frozen defaults that reach full held-out exact match with plain SGD."""

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


def run_toy_training(
    spec: ToyTrainingSpec, seed: int, layouts: tuple[str, ...] = (PIE, PID)
) -> dict[str, TrainingRun]:
    """Train one model per layout and report exact match plus epoch flops."""
    config = spec.model_config()
    task = spec.task()
    runs: dict[str, TrainingRun] = {}
    for layout in layouts:
        weights, run = train_layout(
            config, task, layout, spec.epochs, spec.learning_rate,
            spec.batch_instances, seed,
        )
        run.exact_match = evaluate_exact_match(config, weights, list(task.heldout), layout)
        runs[layout] = run
    return runs


def predicted_training_flop_ratio(config: ModelConfig, task: SyntheticTask) -> float:
    """Analytic prompt-in-encoder over prompt-in-decoder per-epoch flops.

    Forward-pass closed forms only: the backward pass multiplies both
    layouts by nearly the same factor, so it cancels in the ratio.
    """
    u = task.n_prompts
    ans = task.answer_len
    pie_enc_len = task.n_s + 1 + task.prompt_len
    pie_total = sum(_encode_flops(config, u, pie_enc_len).values()) + sum(
        _decode_flops(config, u, u, 1 + ans, pie_enc_len, 1, all_logits=True).values()
    )
    pid_total = sum(_encode_flops(config, 1, task.n_s).values()) + sum(
        _decode_flops(config, u, 1, task.prompt_len + ans, task.n_s, 1, all_logits=True).values()
    )
    return pie_total / pid_total
