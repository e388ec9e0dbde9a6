"""Closed-form cost model: the paper's table cells, and an exact mirror of a run.

1. Symbol cells (``table1_counts``) are the paper's Table 1 / Appendix B
   table: per-component memory-access and operation counts in symbol
   units, for one layer's attention terms.  Two evaluation modes:
   ``table1`` drops prompt-length terms (treating them as negligible),
   ``appendixB`` retains them and splits the prompt-in-decoder rows into
   separate prompt and output phases.  Decoder rows are totals over all
   ``n_t`` decode steps.  Memory symbols convert to bytes at 4 bytes per
   float32 symbol (``BYTES_PER_SYMBOL``).  Each cell carries its inverse
   operational intensity (``ComponentCost.inverse_intensity``), its
   memory symbols over its operation symbols; a cell has one name, its
   label, in both modes.
2. ``predict_run_counters`` gives every count about a run: a replay of
   every kernel call an engine run makes (projections, attention cores,
   norms, embeddings, vocabulary head) through the kernels' own count
   helpers, checked for integer equality of flops, bytes read and bytes
   written against the instrumented counters.  Its flops view
   ``predict_run_flops`` gives whole-model flop ratios, and
   ``roofline_estimate`` turns its counts into seconds.
   ``replay_train_step`` is the same replay for one training step: the
   all-positions forward, every backward kernel call and the SGD update,
   equal to a measured step in every (component, kind) cell.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .kernels import (
    CounterSink, count_attention, count_attention_backward, count_elementwise, count_gather,
    count_layer_norm, count_layer_norm_backward, count_loss_grad, count_matmul, count_sgd,
    count_softmax,
)
from .model import ModelConfig

BYTES_PER_SYMBOL = 4  # float32
FLOPS_PER_MAC = 2

PIE, PID = "pie", "pid"

TABLE1, APPENDIX_B = "table1", "appendixB"

DECODER_ROW_NOTE = (
    "decoder rows are totals over all n_t decode steps; "
    "mode=table1 drops prompt-length terms, mode=appendixB retains them"
)


@dataclass(frozen=True)
class ShapeParams:
    """Workload shape: prompts U, batch b, lengths n_s / n_t / n_p, width d, heads h."""

    U: int
    b: int
    n_s: int
    n_t: int
    n_p: int
    d: int
    h: int

    def __post_init__(self) -> None:
        for name in ("U", "b", "n_s", "n_t", "d", "h"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_p < 0:
            raise ConfigError(f"n_p must be >= 0, got {self.n_p}")
        if self.d % self.h != 0:
            raise ConfigError(f"h={self.h} does not divide d={self.d}")


def parse_shape(text: str) -> ShapeParams:
    """Parse ``U=8,b=1,n_s=256,...`` (whitespace tolerated, any order, each key once)."""
    keys = [f.name for f in dataclasses.fields(ShapeParams)]
    fields = {}
    for part in re.split(r"[,\s]+", text.strip()):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"malformed shape entry {part!r}; want key=value")
        key, _, value = part.partition("=")
        if key not in keys:
            raise ConfigError(f"unknown shape key {key!r}")
        if key in fields:
            raise ConfigError(f"shape key {key!r} is given twice")
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise ConfigError(f"shape value for {key} is not an integer: {value!r}") from exc
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ConfigError(f"shape is missing keys: {missing}")
    return ShapeParams(**fields)


# -- hardware profiles -------------------------------------------------------


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    peak_flops_per_s: float
    mem_bytes_per_s: float

    def __post_init__(self) -> None:
        for rate in (self.peak_flops_per_s, self.mem_bytes_per_s):
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"hardware profile rates must be finite and positive, got {rate}")

    @classmethod
    def from_file(cls, path: str | Path) -> "HardwareProfile":
        """Load ``key = value`` lines: name, peak_flops_per_s, mem_bytes_per_s, each once."""
        keys = [f.name for f in dataclasses.fields(cls)]
        fields: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed profile line {raw!r}; want key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in keys:
                raise ConfigError(f"profile {path}: unknown key {key!r}")
            if key in fields:
                raise ConfigError(f"profile {path}: key {key!r} is given twice")
            fields[key] = value
        missing = set(keys) - set(fields)
        if missing:
            raise ConfigError(f"profile {path} is missing keys: {sorted(missing)}")
        rates = {}
        for key in ("peak_flops_per_s", "mem_bytes_per_s"):
            try:
                rates[key] = float(fields[key])
            except ValueError:
                raise ConfigError(f"profile {path}: {key} = {fields[key]!r} is not a number") from None
        return cls(name=fields["name"], **rates)


#: Two A100-flavored profiles: the first pairs the 312 TFLOP/s compute
#: figure with a 2 GB/s bandwidth kept as printed (about three orders of
#: magnitude under the datasheet value); the second uses the public
#: datasheet bandwidth.  Neither is endorsed as "correct"; both are
#: user-replaceable via profile files.
BUILTIN_PROFILES = {
    "a100-as-printed": HardwareProfile("a100-as-printed", 312e12, 2e9),
    "a100-public-datasheet": HardwareProfile("a100-public-datasheet", 312e12, 1.555e12),
}


# -- symbol-level cells --------------------------------------------------------


@dataclass(frozen=True)
class ComponentCost:
    """One table cell pair: memory access and operations in symbol units."""

    memory_symbols: int
    ops_symbols: int

    @property
    def bytes(self) -> int:
        return BYTES_PER_SYMBOL * self.memory_symbols

    @property
    def inverse_intensity(self) -> float:
        """Memory access per operation (lower means higher intensity)."""
        return self.memory_symbols / self.ops_symbols


@dataclass(frozen=True)
class CostBreakdown:
    engine: str
    mode: str
    shape: ShapeParams
    components: dict[str, ComponentCost]

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "mode": self.mode,
            "shape": dataclasses.asdict(self.shape),
            "components": {
                label: {
                    "memory_symbols": c.memory_symbols,
                    "ops_symbols": c.ops_symbols,
                    "bytes": c.bytes,
                    "inverse_intensity": c.inverse_intensity,
                }
                for label, c in sorted(self.components.items())
            },
            "totals": {
                "memory_symbols": sum(c.memory_symbols for c in self.components.values()),
                "ops_symbols": sum(c.ops_symbols for c in self.components.values()),
            },
        }


def table1_counts(shape: ShapeParams, engine: str, mode: str = TABLE1) -> CostBreakdown:
    """Per-component memory access and operation counts for one engine.

    Symbol cells follow the analytic comparison table exactly and carry no
    flop count of their own; the exact per-component flops of a whole run
    are :func:`predict_run_flops`.
    """
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    if mode not in (TABLE1, APPENDIX_B):
        raise ConfigError(f"unknown mode {mode!r}; choose {TABLE1} or {APPENDIX_B}")
    U, b, n_s, n_t, n_p, d = shape.U, shape.b, shape.n_s, shape.n_t, shape.n_p, shape.d
    streams = U * b
    enc_len = n_s + n_p if (mode == APPENDIX_B and engine == PIE) else n_s
    prompt_phase = engine == PID and mode == APPENDIX_B and n_p > 0
    comps: dict[str, ComponentCost] = {}

    # encoder self-attention
    passes = streams if engine == PIE else b
    comps["encoder_self"] = ComponentCost(
        memory_symbols=passes * enc_len * d + d * d,
        ops_symbols=passes * enc_len * d * d,
    )

    # decoder self-attention (output phase; identical cells for both engines)
    if prompt_phase:
        comps["decoder_self_prompt"] = ComponentCost(
            memory_symbols=streams * n_p * d + d * d,
            ops_symbols=streams * n_p * d * d,
        )
    comps["decoder_self"] = ComponentCost(
        memory_symbols=streams * n_t * n_t * d + n_t * d * d,
        ops_symbols=streams * n_t * d * d,
    )

    # decoder cross-attention
    m = enc_len if engine == PIE else n_s
    owners = streams if engine == PIE else b
    if prompt_phase:
        comps["decoder_cross_prompt"] = ComponentCost(
            memory_symbols=b * n_s * d + streams * n_p * d + d * d,
            ops_symbols=streams * n_p * d * d,
        )
    # per-step K/V re-reads scale with the number of cache owners
    comps["decoder_cross"] = ComponentCost(
        memory_symbols=owners * m * n_t * d + streams * n_t * d + n_t * d * d,
        ops_symbols=streams * n_t * d * d,
    )
    return CostBreakdown(engine=engine, mode=mode, shape=shape, components=comps)


# -- exact engine mirror ------------------------------------------------------------


def _embed(sink: CounterSink, d: int, rows: int) -> None:
    with sink.scope("embedding"):
        count_gather(sink, rows, d)
        count_elementwise(sink, "scale", rows * d, 1)
        count_elementwise(sink, "add", rows * d, 2)


def _attention_sublayer(
    sink: CounterSink, config: ModelConfig, component: str, n_seq: int, nq: int, m: int,
    kv_group: int = 1, masked: bool = False,
) -> None:
    """Self-attention, or cross-attention on precomputed K/V (``decoder_cross``)."""
    d, h = config.d_model, config.n_heads
    rows = n_seq * nq
    with sink.scope(component):
        count_layer_norm(sink, rows, d)
        count_matmul(sink, rows, d, d)
        count_elementwise(sink, "scale", rows * d, 1)
        if component != "decoder_cross":
            count_matmul(sink, rows, d, d)
            count_matmul(sink, rows, d, d)
        count_attention(sink, n_seq // kv_group * h, kv_group * nq, d // h, m, d // h, masked)
        count_matmul(sink, rows, d, d)
        count_elementwise(sink, "add", rows * d, 2)


def _ffn_sublayer(sink: CounterSink, config: ModelConfig, rows: int) -> None:
    d, dff = config.d_model, config.d_ff
    with sink.scope("feed_forward"):
        count_layer_norm(sink, rows, d)
        count_matmul(sink, rows, d, dff)
        count_elementwise(sink, "relu", rows * dff, 1)
        count_matmul(sink, rows, dff, d)
        count_elementwise(sink, "add", rows * d, 2)


def _attention_backward(
    sink: CounterSink, config: ModelConfig, component: str, n_seq: int, nq: int, m: int,
    kv_group: int = 1, masked: bool = False,
) -> None:
    """Backward of :func:`_attention_sublayer` (``training._attention_backward``).

    A training pass attends to no earlier cache, so K and V were projected
    from ``n_seq // kv_group * m`` rows: the sublayer's own rows, or
    cross-attention's encoder rows, where their gradient adds run too.
    """
    d, h = config.d_model, config.n_heads
    rows, kv_rows = n_seq * nq, n_seq // kv_group * m
    with sink.scope(component):
        count_matmul(sink, d, rows, d)
        count_matmul(sink, rows, d, d)
        count_attention_backward(
            sink, n_seq // kv_group * h, kv_group * nq, d // h, m, d // h, masked
        )
        count_elementwise(sink, "scale", rows * d, 1)
        count_matmul(sink, d, rows, d)
        count_matmul(sink, rows, d, d)
        count_matmul(sink, d, kv_rows, d)
        count_matmul(sink, d, kv_rows, d)
        for _ in range(2):  # the K and V shares of the source rows' gradient
            count_matmul(sink, kv_rows, d, d)
            count_elementwise(sink, "add", kv_rows * d, 2)
        count_layer_norm_backward(sink, rows, d)
        count_elementwise(sink, "add", rows * d, 2)


def _ffn_backward(sink: CounterSink, config: ModelConfig, rows: int) -> None:
    d, dff = config.d_model, config.d_ff
    with sink.scope("feed_forward"):
        count_matmul(sink, dff, rows, d)
        count_matmul(sink, rows, d, dff)
        count_elementwise(sink, "relu_backward", rows * dff, 2)
        count_matmul(sink, d, rows, dff)
        count_matmul(sink, rows, dff, d)
        count_layer_norm_backward(sink, rows, d)
        count_elementwise(sink, "add", rows * d, 2)


def _embed_backward(sink: CounterSink, d: int, rows: int) -> None:
    with sink.scope("embedding"):
        count_elementwise(sink, "scale", rows * d, 1)
        count_elementwise(sink, "scatter_add", rows * d, 2)


def _parameter_count(config: ModelConfig) -> int:
    """Trainable float32 elements of a model (``WeightSet.named_arrays``)."""
    d, dff = config.d_model, config.d_ff
    attention, ffn = 4 * d * d + d, 2 * d * dff + d
    return (
        2 * config.vocab_size * d + 2 * d
        + config.n_enc_layers * (attention + ffn) + config.n_dec_layers * (2 * attention + ffn)
    )


def replay_forward(
    config: ModelConfig, inputs: int, enc_len: int, kv_group: int, prefix: int, n_t: int,
    all_logits: bool = False,
) -> tuple[CounterSink, CounterSink]:
    """The counts of a forward run, replayed from shapes: ``(encode, run)``.

    The run is ``encode_batch`` over ``inputs`` sequences of ``enc_len``
    tokens; then, when ``n_t >= 1``, ``init_decode_state`` with
    ``kv_group`` streams per input, a ``decoder_prefill`` of ``prefix``
    positions per stream and ``n_t - 1`` calls of ``decoder_step``, each a
    one-position pass.  A pass counts a causal mask exactly when it has
    more than one new position.  Each kernel call is recorded through the
    count helper the kernel itself records through.  ``all_logits``
    mirrors ``decoder_prefill(return_all_logits=True)``, the training
    forward.
    """
    d = config.d_model
    encode = CounterSink()
    _embed(encode, d, inputs * enc_len)
    for _ in range(config.n_enc_layers):
        _attention_sublayer(encode, config, "encoder_self", inputs, enc_len, enc_len)
        _ffn_sublayer(encode, config, inputs * enc_len)
    with encode.scope("other"):
        count_layer_norm(encode, inputs * enc_len, d)
    decode = CounterSink()
    if n_t:
        streams = inputs * kv_group
        with decode.scope("decoder_cross"):
            for _ in range(2 * config.n_dec_layers):  # K and V per layer
                count_matmul(decode, inputs * enc_len, d, d)
        # (new positions, cache length, head rows) of the prefill and of each step
        passes = [(prefix, 0, streams * prefix if all_logits else streams)]
        passes += [(1, length, streams) for length in range(prefix, prefix + n_t - 1)]
        for nq, length, head_rows in passes:
            _embed(decode, d, streams * nq)
            for _ in range(config.n_dec_layers):
                _attention_sublayer(
                    decode, config, "decoder_self", streams, nq, length + nq, 1, nq > 1
                )
                _attention_sublayer(decode, config, "decoder_cross", streams, nq, enc_len, kv_group)
                _ffn_sublayer(decode, config, streams * nq)
            with decode.scope("other"):
                count_layer_norm(decode, streams * nq, d)
            with decode.scope("embedding"):
                count_matmul(decode, head_rows, d, config.vocab_size)
    return encode, encode.merge(decode)


def replay_train_step(
    config: ModelConfig, groups: int, enc_len: int, kv_group: int, t_dec: int
) -> CounterSink:
    """The counts of one ``training.train_step``, replayed from shapes.

    The batch is ``groups`` encoder rows of ``enc_len`` tokens, each shared
    by ``kv_group`` decoder streams of ``t_dec`` tokens.  The forward is
    :func:`replay_forward`'s all-positions run; then, in
    ``training_forward_backward``'s order, the loss softmax and its
    gradient, the head's two products, the decoder's final-norm backward,
    each decoder layer's feed-forward, cross- and self-attention backward
    (last layer first), the decoder embedding's gradient, then the
    encoder's; last, ``sgd_update``, whose counts are linear in size, as
    one update over :func:`_parameter_count` elements.
    """
    d, vocab = config.d_model, config.vocab_size
    streams, enc_rows = groups * kv_group, groups * enc_len
    rows = streams * t_dec
    _, step = replay_forward(config, groups, enc_len, kv_group, t_dec, 1, all_logits=True)
    with step.scope("other"):
        count_softmax(step, rows, vocab, False)
        count_loss_grad(step, rows, vocab)
    with step.scope("embedding"):
        count_matmul(step, d, rows, vocab)
        count_matmul(step, rows, vocab, d)
    with step.scope("other"):
        count_layer_norm_backward(step, rows, d)
    for _ in range(config.n_dec_layers):
        _ffn_backward(step, config, rows)
        _attention_backward(step, config, "decoder_cross", streams, t_dec, enc_len, kv_group)
        _attention_backward(step, config, "decoder_self", streams, t_dec, t_dec, 1, t_dec > 1)
    _embed_backward(step, d, rows)
    with step.scope("other"):
        count_layer_norm_backward(step, enc_rows, d)
    for _ in range(config.n_enc_layers):
        _ffn_backward(step, config, enc_rows)
        _attention_backward(step, config, "encoder_self", groups, enc_len, enc_len)
    _embed_backward(step, d, enc_rows)
    count_sgd(step, _parameter_count(config))
    return step


def predict_run_counters(
    config: ModelConfig, shape: ShapeParams, engine: str
) -> tuple[CounterSink, CounterSink]:
    """Exact counts of a full engine run: ``(encode phase, whole run)``.

    Replays every kernel call ``engines.infer`` makes (:func:`replay_forward`
    in the engine's layout) for ``n_t`` steps; the checks replay a run's own
    ``steps_taken``, fewer if every stream stops early.  pie's encoder inputs
    carry the separator token.  Flops, bytes read and bytes written equal
    the instrumented counters per component and kernel kind.
    """
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    if config.d_model != shape.d or config.n_heads != shape.h:
        raise ConfigError(
            f"shape (d={shape.d}, h={shape.h}) disagrees with model "
            f"(d={config.d_model}, h={config.n_heads})"
        )
    streams = shape.U * shape.b
    if engine == PIE:
        enc_len = shape.n_s + (shape.n_p + 1 if shape.n_p else 0)
        return replay_forward(config, streams, enc_len, 1, 1, shape.n_t)
    return replay_forward(config, shape.b, shape.n_s, shape.U, max(shape.n_p, 1), shape.n_t)


def predict_run_flops(config: ModelConfig, shape: ShapeParams, engine: str) -> dict:
    """The flops of :func:`predict_run_counters`: the encode phase's and the whole run's."""
    encode, run = predict_run_counters(config, shape, engine)
    return {"encode_total": encode.flops, "total": run.flops}


def flop_ratio(config: ModelConfig, shape: ShapeParams) -> float:
    """Whole-model flops of the prompt-in-decoder run over the prompt-in-encoder run."""
    pid_total = predict_run_flops(config, shape, PID)["total"]
    pie_total = predict_run_flops(config, shape, PIE)["total"]
    return pid_total / pie_total


def roofline_estimate(run: CounterSink, hw: HardwareProfile) -> dict:
    """A counted run's roofline: per component label, the lower-bound seconds
    ``max(flops / peak, bytes / bandwidth)``, where bytes are bytes read plus
    bytes written; ``total_seconds`` is the components' sum."""
    components = {}
    for label, c in sorted(run.component_totals().items()):
        nbytes = c.bytes_read + c.bytes_written
        compute_s, memory_s = c.flops / hw.peak_flops_per_s, nbytes / hw.mem_bytes_per_s
        components[label] = {
            "seconds": max(compute_s, memory_s),
            "bound": "compute" if compute_s >= memory_s else "memory",
            "flops": c.flops,
            "bytes": nbytes,
        }
    return {
        "profile": hw.name,
        "total_seconds": sum(c["seconds"] for c in components.values()),
        "components": components,
    }


# -- presets ---------------------------------------------------------------------

MODEL_PRESETS: dict[str, ModelConfig] = {
    "toy": ModelConfig(
        d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2,
        d_ff=256, vocab_size=96, max_len=640,
    ),
    "t5-base-like": ModelConfig(
        d_model=768, n_heads=12, n_enc_layers=12, n_dec_layers=12,
        d_ff=3072, vocab_size=32128, max_len=4096,
    ),
    "t5-large-like": ModelConfig(
        d_model=1024, n_heads=16, n_enc_layers=24, n_dec_layers=24,
        d_ff=4096, vocab_size=32128, max_len=4096,
    ),
}


@dataclass(frozen=True)
class WorkloadPreset:
    name: str
    shape: ShapeParams
    model: str
    description: str


#: Dataset-shaped workload presets (means of the published shape statistics;
#: output caps follow the generation settings for each task).
SHAPE_PRESETS: dict[str, WorkloadPreset] = {
    "multiwoz": WorkloadPreset(
        "multiwoz",
        ShapeParams(U=30, b=1, n_s=289, n_t=24, n_p=8, d=768, h=12),
        "t5-base-like",
        "dialogue state tracking, 30 slot prompts over one dialogue",
    ),
    "multiwoz-domain": WorkloadPreset(
        "multiwoz-domain",
        ShapeParams(U=5, b=1, n_s=289, n_t=48, n_p=8, d=768, h=12),
        "t5-base-like",
        "coarser subtask granularity: 5 domain prompts, longer outputs",
    ),
    "aci-bench": WorkloadPreset(
        "aci-bench",
        ShapeParams(U=4, b=1, n_s=1725, n_t=173, n_p=6, d=768, h=12),
        "t5-base-like",
        "clinical note summarization, 4 section prompts",
    ),
    "radqa": WorkloadPreset(
        "radqa",
        ShapeParams(U=4, b=1, n_s=137, n_t=28, n_p=36, d=768, h=12),
        "t5-base-like",
        "extractive QA over radiology reports, 4 question prompts",
    ),
    "toy": WorkloadPreset(
        "toy",
        ShapeParams(U=8, b=2, n_s=64, n_t=8, n_p=4, d=64, h=4),
        "toy",
        "desk-scale workload runnable by the bundled engines",
    ),
}


def resolve_preset(name: str) -> WorkloadPreset:
    if name not in SHAPE_PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(SHAPE_PRESETS))}"
        )
    return SHAPE_PRESETS[name]
