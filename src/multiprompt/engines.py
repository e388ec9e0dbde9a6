"""The two inference configurations over one shared input.

``pie_infer`` encodes the shared input together with each prompt (one
encoder pass per prompt per instance) and decodes every stream against its
own cross-attention cache.  ``pid_infer`` encodes the shared input once
per instance, prefills the prompts in the decoder, and broadcasts one
cross-attention K/V slice per instance across all of that instance's
decode streams.

Both engines decode greedily in lockstep: all streams advance one token
per step through the same batched kernels.  Streams that emit the end
token are frozen (their caches stop growing and their outputs stop), but
they keep flowing through the batched compute; those wasted stream-steps
are reported separately so counter totals stay comparable to fixed-length
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError, LengthError
from .instrumentation import CounterSet
from .kernels import F32, CounterSink
from .model import (
    BOS,
    EOS,
    SEP,
    KVCacheSet,
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
    "PIE", "PID", "ENGINES", "Instance", "Workload", "DecodeResult", "KVCacheSet",
    "greedy_step", "pie_infer", "pid_infer", "infer", "reference_decode",
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
    def input_len(self) -> int:
        return int(np.asarray(self.instances[0].x).size)

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
    logits_trace: list[np.ndarray] | None = None

    def flat_outputs(self) -> list[list[int]]:
        return [seq for per_instance in self.outputs for seq in per_instance]


def greedy_step(logits: np.ndarray) -> np.ndarray:
    """Argmax token per stream; ties break toward the lowest token id."""
    return np.argmax(logits, axis=1)


def _provenance(config: ModelConfig, workload: Workload, engine: str) -> dict[str, Any]:
    return {
        "engine": engine,
        "U": workload.n_prompts,
        "b": workload.batch_size,
        "n_s": workload.input_len,
        "n_p": workload.prompt_len,
        "n_t": workload.max_new_tokens,
        "d": config.d_model,
        "h": config.n_heads,
        "d_ff": config.d_ff,
        "vocab_size": config.vocab_size,
        "n_enc_layers": config.n_enc_layers,
        "n_dec_layers": config.n_dec_layers,
    }


def _delta(
    sink: CounterSink,
    before: dict[str, tuple[int, int, int]],
    provenance: dict[str, Any],
) -> CounterSet:
    after = sink.component_totals()
    totals = {}
    for label, (f, br, bw) in after.items():
        f0, br0, bw0 = before.get(label, (0, 0, 0))
        if (f - f0, br - br0, bw - bw0) != (0, 0, 0):
            totals[label] = (f - f0, br - br0, bw - bw0)
    return CounterSet.from_totals(totals, provenance)


def _decode_lockstep(
    config: ModelConfig,
    weights: WeightSet,
    memories: np.ndarray,
    kv_group: int,
    prefix_block: np.ndarray,
    max_new: int,
    sink: CounterSink,
    record_logits: bool = False,
    corrupt_shared_kv: bool = False,
) -> tuple[
    list[list[int]], int, int, list[np.ndarray] | None, dict[str, tuple[int, int, int]]
]:
    """Greedy lockstep decode; returns (outputs, steps, wasted stream-steps,
    logits trace, counter totals after the cross-K/V projection)."""
    n_streams = memories.shape[0] * kv_group
    outputs: list[list[int]] = [[] for _ in range(n_streams)]
    if max_new == 0:
        return outputs, 0, 0, ([] if record_logits else None), sink.component_totals()
    p = prefix_block.shape[1]
    capacity = p + max_new - 1
    state = init_decode_state(config, weights, memories, kv_group, capacity, sink)
    if corrupt_shared_kv:
        # debug fault injection: perturbing the shared value slices visibly
        # shifts every context vector (a uniform key shift would cancel in
        # softmax), giving the broadcast-equivalence check a negative control
        for v in state.cross_v:
            v += F32(0.125)
    after_init = sink.component_totals()
    trace: list[np.ndarray] | None = [] if record_logits else None
    logits = decoder_prefill(config, weights, state, prefix_block, sink)
    last_tokens = np.ascontiguousarray(prefix_block[:, -1])
    steps = 0
    wasted = 0
    for step in range(max_new):
        if step > 0:
            wasted += int((~state.active).sum())
            logits = decoder_step(config, weights, state, last_tokens, sink)
        if trace is not None:
            trace.append(logits.copy())
        steps += 1
        chosen = greedy_step(logits)
        for s in np.flatnonzero(state.active):
            outputs[s].append(int(chosen[s]))
        last_tokens = np.where(state.active, chosen, last_tokens)
        state.active &= chosen != EOS
        if not state.active.any():
            break
    return outputs, steps, wasted, trace, after_init


def _regroup(flat: list[list[int]], b: int, u: int) -> list[list[list[int]]]:
    return [[flat[i * u + j] for j in range(u)] for i in range(b)]


def _pie_encoder_inputs(workload: Workload) -> list[np.ndarray]:
    seqs = []
    for inst in workload.instances:
        x = np.asarray(inst.x, dtype=np.int64)
        for z in inst.prompts:
            z = np.asarray(z, dtype=np.int64)
            if z.size:
                seqs.append(np.concatenate([x, [SEP], z]))
            else:
                seqs.append(x)
    return seqs


def pie_infer(
    config: ModelConfig,
    weights: WeightSet,
    workload: Workload,
    sink: CounterSink | None = None,
    record_logits: bool = False,
) -> DecodeResult:
    """Prompt-in-encoder inference: one encoder pass per (instance, prompt).

    Every decode stream owns a replicated cross-attention cache; decoding
    starts from a begin-of-sequence token.
    """
    sink = sink if sink is not None else CounterSink()
    b, u = workload.batch_size, workload.n_prompts
    enc_len = workload.input_len + (workload.prompt_len + 1 if workload.prompt_len else 0)
    if enc_len > config.max_len:
        raise LengthError(f"encoder input of {enc_len} tokens exceeds max_len {config.max_len}")
    if workload.max_new_tokens > config.max_len:
        raise LengthError(
            f"max_new_tokens {workload.max_new_tokens} exceeds max_len {config.max_len}"
        )
    prov = _provenance(config, workload, PIE)
    before = sink.component_totals()
    memories = encode_batch(config, weights, _pie_encoder_inputs(workload), sink)
    encode_counters = _delta(sink, before, prov)
    prefix = np.full((b * u, 1), BOS, dtype=np.int64)
    flat, steps, wasted, trace, after_init = _decode_lockstep(
        config, weights, memories, 1, prefix, workload.max_new_tokens, sink,
        record_logits=record_logits,
    )
    return DecodeResult(
        engine=PIE,
        outputs=_regroup(flat, b, u),
        steps_taken=steps,
        counters=_delta(sink, before, prov),
        encode_counters=encode_counters,
        step_counters=_delta(sink, after_init, prov),
        encoder_passes=b * u,
        wasted_stream_steps=wasted,
        logits_trace=trace,
    )


def pid_infer(
    config: ModelConfig,
    weights: WeightSet,
    workload: Workload,
    sink: CounterSink | None = None,
    record_logits: bool = False,
    ablate_shared_cross: bool = False,
    corrupt_shared_kv: bool = False,
) -> DecodeResult:
    """Prompt-in-decoder inference: encode once, decode all prompts in parallel.

    The encoder sees only the shared input; prompts are prefilled in the
    decoder (positions ``0..n_p-1``, causal) and all ``U`` streams of an
    instance broadcast one shared cross-attention K/V slice.
    ``ablate_shared_cross=True`` materializes ``U`` explicit copies instead
    (the broadcast-equivalence ablation); ``corrupt_shared_kv=True`` is a
    debug fault that perturbs the shared slices.
    """
    sink = sink if sink is not None else CounterSink()
    b, u = workload.batch_size, workload.n_prompts
    if workload.input_len > config.max_len:
        raise LengthError(
            f"encoder input of {workload.input_len} tokens exceeds max_len {config.max_len}"
        )
    prefix_len = max(workload.prompt_len, 1)
    if workload.max_new_tokens and prefix_len + workload.max_new_tokens - 1 > config.max_len:
        raise LengthError(
            f"decoder needs {prefix_len + workload.max_new_tokens - 1} positions, "
            f"max_len is {config.max_len}"
        )
    prov = _provenance(config, workload, PID)
    before = sink.component_totals()
    memories = encode_batch(
        config, weights, [np.asarray(inst.x, dtype=np.int64) for inst in workload.instances], sink
    )
    encode_counters = _delta(sink, before, prov)
    if workload.prompt_len:
        prefix = np.stack(
            [np.asarray(z, dtype=np.int64) for inst in workload.instances for z in inst.prompts]
        )
    else:
        prefix = np.full((b * u, 1), BOS, dtype=np.int64)
    if ablate_shared_cross:
        memories = np.repeat(memories, u, axis=0)
        kv_group = 1
    else:
        kv_group = u
    flat, steps, wasted, trace, after_init = _decode_lockstep(
        config, weights, memories, kv_group, prefix, workload.max_new_tokens, sink,
        record_logits=record_logits, corrupt_shared_kv=corrupt_shared_kv,
    )
    return DecodeResult(
        engine=PID,
        outputs=_regroup(flat, b, u),
        steps_taken=steps,
        counters=_delta(sink, before, prov),
        encode_counters=encode_counters,
        step_counters=_delta(sink, after_init, prov),
        encoder_passes=b,
        wasted_stream_steps=wasted,
        logits_trace=trace,
    )


def infer(engine: str, config: ModelConfig, weights: WeightSet, workload: Workload, **kw) -> DecodeResult:
    if engine == PIE:
        return pie_infer(config, weights, workload, **kw)
    if engine == PID:
        return pid_infer(config, weights, workload, **kw)
    raise ConfigError(f"unknown engine {engine!r}; choose from {ENGINES}")


def reference_decode(
    config: ModelConfig,
    weights: WeightSet,
    workload: Workload,
    engine: str,
    sink: CounterSink | None = None,
) -> DecodeResult:
    """Cache-free oracle: one stream at a time, full re-forward every step.

    Encodes exactly like the requested engine, then decodes each stream
    sequentially, rebuilding the whole decoder forward from scratch for
    every emitted token.  Used in tests to pin down the cached engines.
    """
    sink = sink if sink is not None else CounterSink()
    b, u = workload.batch_size, workload.n_prompts
    prov = _provenance(config, workload, f"reference-{engine}")
    before = sink.component_totals()
    if engine == PIE:
        memories = encode_batch(config, weights, _pie_encoder_inputs(workload), sink)
        owner_of_stream = list(range(b * u))
        prefixes = [[BOS] for _ in range(b * u)]
        passes = b * u
    elif engine == PID:
        memories = encode_batch(
            config, weights, [np.asarray(i.x, dtype=np.int64) for i in workload.instances], sink
        )
        owner_of_stream = [i for i in range(b) for _ in range(u)]
        if workload.prompt_len:
            prefixes = [list(map(int, z)) for inst in workload.instances for z in inst.prompts]
        else:
            prefixes = [[BOS] for _ in range(b * u)]
        passes = b
    else:
        raise ConfigError(f"unknown engine {engine!r}; choose from {ENGINES}")
    encode_counters = _delta(sink, before, prov)
    after_encode = sink.component_totals()
    flat: list[list[int]] = []
    max_steps = 0
    for s in range(b * u):
        toks = list(prefixes[s])
        out: list[int] = []
        for _ in range(workload.max_new_tokens):
            state = init_decode_state(
                config, weights, memories[owner_of_stream[s]][None], 1, len(toks), sink
            )
            logits = decoder_prefill(
                config, weights, state, np.asarray([toks], dtype=np.int64), sink
            )
            tok = int(greedy_step(logits)[0])
            out.append(tok)
            if tok == EOS:
                break
            toks.append(tok)
        max_steps = max(max_steps, len(out))
        flat.append(out)
    return DecodeResult(
        engine=f"reference-{engine}",
        outputs=_regroup(flat, b, u),
        steps_taken=max_steps,
        counters=_delta(sink, before, prov),
        encode_counters=encode_counters,
        step_counters=_delta(sink, after_encode, prov),
        encoder_passes=passes,
        wasted_stream_steps=0,
        logits_trace=None,
    )
