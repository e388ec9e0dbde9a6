"""The two inference configurations over one shared input.

Both engines run the same model; they differ only in where the prompts
go, and :func:`_layout` is the one place that knows it.  Prompt-in-encoder
(pie) encodes the shared input together with each prompt (one encoder pass
per prompt per instance) and decodes every stream against its own
cross-attention cache.  Prompt-in-decoder (pid) encodes the shared input
once per instance, prefills the prompts in the decoder, and broadcasts one
cross-attention K/V slice per instance across all of that instance's
decode streams.

One function, :func:`infer`, runs either layout: it encodes, builds the
caches and decodes greedily in lockstep, all streams advancing one token
per step through the same batched kernels until each has emitted the end
token.  Streams that finished early keep flowing through the batched
compute; those wasted stream-steps are reported separately so counter
totals stay comparable to fixed-length accounting.  :func:`reference_decode`,
the cache-free oracle, takes the same layout but decodes on its own, one
stream at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthError
from .instrumentation import CounterSet
from .kernels import CounterSink
from .model import (
    BOS,
    EOS,
    SEP,
    ModelConfig,
    WeightSet,
    decoder_prefill,
    decoder_step,
    encode_batch,
    init_decode_state,
)

PIE, PID = "pie", "pid"
ENGINES = (PIE, PID)

__all__ = [
    "PIE", "PID", "ENGINES", "Instance", "Workload", "DecodeResult",
    "greedy_step", "infer", "reference_decode",
]


@dataclass(frozen=True)
class Instance:
    """One shared input plus its prompt set."""

    x: np.ndarray
    prompts: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Workload:
    """A batch of instances sharing the same prompt count and lengths.

    Lockstep batching assumes one uniform shape: every instance has the
    same input length, the same number of prompts, and the same prompt
    length (zero-length prompts are allowed).
    """

    instances: tuple[Instance, ...]
    max_new_tokens: int

    def __post_init__(self) -> None:
        if not self.instances:
            raise ConfigError("workload needs at least one instance")
        if self.max_new_tokens < 0:
            raise ConfigError("max_new_tokens must be >= 0")
        us = {len(inst.prompts) for inst in self.instances}
        if len(us) != 1:
            raise ConfigError(f"instances disagree on prompt count: {sorted(us)}")
        if self.n_prompts < 1:
            raise ConfigError("each instance needs at least one prompt")
        ns = {int(np.asarray(inst.x).size) for inst in self.instances}
        if len(ns) != 1:
            raise ConfigError(f"instances disagree on input length: {sorted(ns)}")
        nps = {int(np.asarray(z).size) for inst in self.instances for z in inst.prompts}
        if len(nps) != 1:
            raise ConfigError(f"prompts disagree on length: {sorted(nps)}")

    @property
    def batch_size(self) -> int:
        return len(self.instances)

    @property
    def n_prompts(self) -> int:
        return len(self.instances[0].prompts)

    @property
    def prompt_len(self) -> int:
        return int(np.asarray(self.instances[0].prompts[0]).size)


@dataclass
class DecodeResult:
    """Greedy outputs plus the run's counters.

    ``outputs[i][u]`` is the token list decoded for instance ``i``, prompt
    ``u``; every list ends with the end token or at the length cap.
    """

    engine: str
    outputs: list[list[list[int]]]
    steps_taken: int
    counters: CounterSet
    encode_counters: CounterSet
    step_counters: CounterSet  # decode loop only (cross-cache projection excluded)
    encoder_passes: int
    wasted_stream_steps: int

    def flat_outputs(self) -> list[list[int]]:
        return [seq for per_instance in self.outputs for seq in per_instance]


def greedy_step(logits: np.ndarray) -> np.ndarray:
    """Argmax token per stream; ties break toward the lowest token id."""
    return np.argmax(logits, axis=1)


def _delta(sink: CounterSink, before: dict[str, tuple[int, int, int]]) -> CounterSet:
    totals = {}
    for label, now in sink.component_totals().items():
        diff = tuple(a - b for a, b in zip(now, before.get(label, (0, 0, 0))))
        if any(diff):
            totals[label] = diff
    return CounterSet.from_totals(totals)


def _regroup(flat: list[list[int]], b: int, u: int) -> list[list[list[int]]]:
    return [[flat[i * u + j] for j in range(u)] for i in range(b)]


def _layout(engine: str, workload: Workload) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Where ``engine`` puts the prompts: ``(encoder inputs, prefix block [S, p], kv_group)``.

    Stream ``s`` (instance-major, ``S = b·U``) starts from ``prefix[s]`` and
    attends to the encoding of input ``s // kv_group``.  pie encodes every
    (instance, prompt) pair as ``x ‖ SEP ‖ z`` (just ``x`` for an empty
    prompt) and starts each stream at the begin token; pid encodes each
    shared input once and prefills the prompts (the begin token when prompts
    are empty), so ``U`` streams share one encoding.  Training builds its
    batches from the same layout.
    """
    xs = [np.asarray(inst.x, dtype=np.int64) for inst in workload.instances]
    zs = [np.asarray(z, dtype=np.int64) for inst in workload.instances for z in inst.prompts]
    bos = np.full((len(zs), 1), BOS, dtype=np.int64)
    if engine == PIE:
        u = workload.n_prompts
        encoder_inputs = [
            np.concatenate([xs[s // u], [SEP], z]) if z.size else xs[s // u]
            for s, z in enumerate(zs)
        ]
        return encoder_inputs, bos, 1
    if engine == PID:
        return xs, (np.stack(zs) if workload.prompt_len else bos), workload.n_prompts
    raise ConfigError(f"unknown engine {engine!r}; choose from {ENGINES}")


def _check_lengths(
    config: ModelConfig, encoder_inputs: list[np.ndarray], prefix: np.ndarray, n_t: int
) -> None:
    """Reject a layout that does not fit ``max_len``, before any kernel runs.

    The last fed-back token sits at decoder position ``p + n_t - 2``, so a
    decode of ``n_t`` tokens after a prefix of ``p`` needs ``p + n_t - 1``
    positions.
    """
    enc_len, p = encoder_inputs[0].size, prefix.shape[1]
    if enc_len > config.max_len:
        raise LengthError(f"encoder input of {enc_len} tokens exceeds max_len {config.max_len}")
    if n_t and p + n_t - 1 > config.max_len:
        raise LengthError(f"decoder needs {p + n_t - 1} positions, max_len is {config.max_len}")


def infer(
    engine: str,
    config: ModelConfig,
    weights: WeightSet,
    workload: Workload,
    sink: CounterSink | None = None,
) -> DecodeResult:
    """Encode, then decode all streams greedily in lockstep with K/V caches.

    pie encodes every (instance, prompt) pair and gives each stream its own
    cross-attention cache; pid encodes the shared input once, prefills the
    prompts in the decoder (positions ``0..n_p-1``, causal) and all ``U``
    streams of an instance broadcast one shared cross-attention K/V slice.

    Every stream's chosen token is fed back (each stream writes its own
    self-cache row every step) until each has emitted the end token; the
    loop keeps one ``[S]`` row of chosen tokens per step.  Afterwards each
    stream's output is its column cut after its first end token, and
    ``wasted_stream_steps`` is ``steps_taken * S`` minus the summed output
    lengths: the stream-steps spent on streams that had already finished.
    """
    sink = sink if sink is not None else CounterSink()
    encoder_inputs, prefix, kv_group = _layout(engine, workload)
    p, n_t = prefix.shape[1], workload.max_new_tokens
    _check_lengths(config, encoder_inputs, prefix, n_t)
    before = sink.component_totals()
    memories = encode_batch(config, weights, encoder_inputs, sink)
    encode_counters = _delta(sink, before)
    chosen_rows: list[np.ndarray] = []
    steps = 0
    after_init = sink.component_totals()
    if n_t:
        state = init_decode_state(config, weights, memories, kv_group, p + n_t - 1, sink)
        after_init = sink.component_totals()
        logits = decoder_prefill(config, weights, state, prefix, sink)
        done = np.zeros(len(prefix), dtype=bool)
        for steps in range(1, n_t + 1):
            if steps > 1:
                logits = decoder_step(config, weights, state, chosen, sink)
            chosen = greedy_step(logits)
            chosen_rows.append(chosen)
            done |= chosen == EOS
            if done.all():
                break
    # a stream's output runs up to and including its first end token
    per_stream = np.array(chosen_rows, dtype=np.int64).reshape(steps, len(prefix)).T.tolist()
    outputs = [row[: row.index(EOS) + 1] if EOS in row else row for row in per_stream]
    return DecodeResult(
        engine=engine,
        outputs=_regroup(outputs, workload.batch_size, workload.n_prompts),
        steps_taken=steps,
        counters=_delta(sink, before),
        encode_counters=encode_counters,
        step_counters=_delta(sink, after_init),
        encoder_passes=len(encoder_inputs),
        wasted_stream_steps=steps * len(prefix) - sum(map(len, outputs)),
    )


def reference_decode(
    config: ModelConfig,
    weights: WeightSet,
    workload: Workload,
    engine: str,
    sink: CounterSink | None = None,
) -> DecodeResult:
    """Cache-free oracle: one stream at a time, full re-forward every step.

    Encodes exactly like the requested engine (and rejects the lengths the
    engines reject), then decodes each stream sequentially, rebuilding the
    whole decoder forward from scratch for every emitted token.  Used in
    tests to pin down the cached engines.
    """
    sink = sink if sink is not None else CounterSink()
    encoder_inputs, prefix, kv_group = _layout(engine, workload)
    _check_lengths(config, encoder_inputs, prefix, workload.max_new_tokens)
    before = sink.component_totals()
    memories = encode_batch(config, weights, encoder_inputs, sink)
    encode_counters = _delta(sink, before)
    after_encode = sink.component_totals()
    flat: list[list[int]] = []
    for s, toks in enumerate(prefix):
        memory = memories[s // kv_group][None]
        out: list[int] = []
        for _ in range(workload.max_new_tokens):
            state = init_decode_state(config, weights, memory, 1, toks.size, sink)
            logits = decoder_prefill(config, weights, state, toks[None], sink)
            tok = int(greedy_step(logits)[0])
            out.append(tok)
            if tok == EOS:
                break
            toks = np.append(toks, tok)
        flat.append(out)
    return DecodeResult(
        engine=f"reference-{engine}",
        outputs=_regroup(flat, workload.batch_size, workload.n_prompts),
        steps_taken=max(map(len, flat)),
        counters=_delta(sink, before),
        encode_counters=encode_counters,
        step_counters=_delta(sink, after_encode),
        encoder_passes=len(encoder_inputs),
        wasted_stream_steps=0,
    )
