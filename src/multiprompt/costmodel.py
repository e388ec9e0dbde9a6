"""Closed-form cost model: memory access, operation counts, intensity, roofline.

Two layers of fidelity, from coarse to exact:

1. Symbol cells (``table1_counts``): per-component memory-access and
   operation counts in symbol units, the granularity used for the
   analytic engine comparison.  Two evaluation modes: ``table1`` drops
   prompt-length terms (treating them as negligible), ``appendixB``
   retains them and splits the prompt-in-decoder rows into separate
   prompt and output phases.  Decoder rows are totals over all ``n_t``
   decode steps.  Memory symbols convert to bytes at 4 bytes per float32
   symbol (``BYTES_PER_SYMBOL``); operation symbols convert to flops at
   2 flops per multiply-add (``FLOPS_PER_MAC``).  Inverse operational
   intensity (``inverse_intensity``) is the memory cell over the operation
   cell of the Appendix B evaluation.
2. ``predict_run_counters``: a replay of every kernel call an engine run
   makes (projections, attention cores, norms, embeddings, vocabulary
   head) through the kernels' own count helpers, checked for integer
   equality of flops, bytes read and bytes written against the
   instrumented counters; its flops view ``predict_run_flops`` gives
   whole-model flop ratios.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .kernels import (
    CounterSink, count_attention, count_elementwise, count_gather, count_layer_norm, count_matmul,
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

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("U", "b", "n_s", "n_t", "n_p", "d", "h")}


def parse_shape(text: str) -> ShapeParams:
    """Parse ``U=8,b=1,n_s=256,...`` (whitespace tolerated, any order)."""
    fields = {}
    for part in re.split(r"[,\s]+", text.strip()):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"malformed shape entry {part!r}; want key=value")
        key, _, value = part.partition("=")
        if key not in ("U", "b", "n_s", "n_t", "n_p", "d", "h"):
            raise ConfigError(f"unknown shape key {key!r}")
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise ConfigError(f"shape value for {key} is not an integer: {value!r}") from exc
    missing = {"U", "b", "n_s", "n_t", "n_p", "d", "h"} - set(fields)
    if missing:
        raise ConfigError(f"shape is missing keys: {sorted(missing)}")
    return ShapeParams(**fields)


# -- hardware profiles -------------------------------------------------------


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    peak_flops_per_s: float
    mem_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.peak_flops_per_s <= 0 or self.mem_bytes_per_s <= 0:
            raise ConfigError("hardware profile rates must be positive")

    @classmethod
    def from_file(cls, path: str | Path) -> "HardwareProfile":
        """Load ``key = value`` lines: name, peak_flops_per_s, mem_bytes_per_s."""
        fields: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed profile line {raw!r}; want key = value")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        missing = {"name", "peak_flops_per_s", "mem_bytes_per_s"} - set(fields)
        if missing:
            raise ConfigError(f"profile {path} is missing keys: {sorted(missing)}")
        return cls(
            name=fields["name"],
            peak_flops_per_s=float(fields["peak_flops_per_s"]),
            mem_bytes_per_s=float(fields["mem_bytes_per_s"]),
        )


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
    def flops_from_symbols(self) -> int:
        return FLOPS_PER_MAC * self.ops_symbols


@dataclass(frozen=True)
class CostBreakdown:
    engine: str
    mode: str
    shape: ShapeParams
    components: dict[str, ComponentCost]
    note: str = DECODER_ROW_NOTE

    @property
    def total_memory_symbols(self) -> int:
        return sum(c.memory_symbols for c in self.components.values())

    @property
    def total_ops_symbols(self) -> int:
        return sum(c.ops_symbols for c in self.components.values())

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "mode": self.mode,
            "shape": self.shape.to_dict(),
            "note": self.note,
            "components": {
                label: {
                    "memory_symbols": c.memory_symbols,
                    "ops_symbols": c.ops_symbols,
                    "bytes": c.bytes,
                }
                for label, c in sorted(self.components.items())
            },
            "totals": {
                "memory_symbols": self.total_memory_symbols,
                "ops_symbols": self.total_ops_symbols,
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


# -- inverse operational intensity ---------------------------------------------

#: Component -> (Appendix B cell label, engines that have it).  The order
#: is the order :func:`intensity_pairs` reports; prompt-in-decoder splits
#: the decoder rows into a prompt phase and an output phase.
INTENSITY_CELLS: dict[str, tuple[str, tuple[str, ...]]] = {
    "enc_self": ("encoder_self", (PIE, PID)),
    "dec_self_prompt": ("decoder_self_prompt", (PID,)),
    "dec_self": ("decoder_self", (PIE, PID)),
    "dec_cross": ("decoder_cross", (PIE,)),
    "dec_cross_output": ("decoder_cross", (PID,)),
    "dec_cross_prompt": ("decoder_cross_prompt", (PID,)),
}


def inverse_intensity(shape: ShapeParams, component: str, engine: str) -> float:
    """Memory access per arithmetic operation (lower means higher intensity).

    The ratio ``memory_symbols / ops_symbols`` of the component's Appendix B
    cell.  Prompt-phase components exist only for the prompt-in-decoder
    engine, ``dec_cross`` only for prompt-in-encoder (its prompt-in-decoder
    counterparts are the ``dec_cross_prompt`` and ``dec_cross_output``
    phases).
    """
    if component not in INTENSITY_CELLS:
        raise ConfigError(f"unknown component {component!r}; choose from {tuple(INTENSITY_CELLS)}")
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    if component.endswith("_prompt") and shape.n_p < 1:
        raise ConfigError(f"{component} requires n_p >= 1, shape has n_p={shape.n_p}")
    label, engines = INTENSITY_CELLS[component]
    if engine not in engines:
        raise ConfigError(f"component {component!r} is not defined for engine {engine!r}")
    cell = table1_counts(shape, engine, APPENDIX_B).components[label]
    return cell.memory_symbols / cell.ops_symbols


def intensity_pairs(engine: str, n_p: int) -> list[str]:
    """Components defined for an engine at a given prompt length."""
    return [
        component
        for component, (_, engines) in INTENSITY_CELLS.items()
        if engine in engines and (n_p >= 1 or not component.endswith("_prompt"))
    ]


# -- roofline --------------------------------------------------------------------


@dataclass(frozen=True)
class RooflineComponent:
    seconds: float
    bound: str  # "memory" or "compute"
    flops: int
    bytes: int


@dataclass(frozen=True)
class RooflineEstimate:
    profile: HardwareProfile
    components: dict[str, RooflineComponent]

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.components.values())

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.name,
            "total_seconds": self.total_seconds,
            "components": {
                k: {"seconds": c.seconds, "bound": c.bound, "flops": c.flops, "bytes": c.bytes}
                for k, c in sorted(self.components.items())
            },
        }


def roofline_estimate(cost: CostBreakdown, hw: HardwareProfile) -> RooflineEstimate:
    """Lower-bound seconds per component: max of compute time and transfer time."""
    comps = {}
    for label, c in cost.components.items():
        flops = c.flops_from_symbols
        nbytes = c.bytes
        compute_s = flops / hw.peak_flops_per_s
        memory_s = nbytes / hw.mem_bytes_per_s
        comps[label] = RooflineComponent(
            seconds=max(compute_s, memory_s),
            bound="compute" if compute_s >= memory_s else "memory",
            flops=flops,
            bytes=nbytes,
        )
    return RooflineEstimate(profile=hw, components=comps)


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


def predict_run_counters(
    config: ModelConfig, shape: ShapeParams, engine: str
) -> tuple[CounterSink, CounterSink]:
    """Exact counts of a full engine run: ``(encode phase, whole run)``.

    Replays every kernel call ``engines.infer`` makes (:func:`replay_forward`
    in the engine's layout), assuming all streams decode the full ``n_t``
    tokens (no early stop); pie's encoder inputs carry the separator token.
    Flops, bytes read and bytes written equal the instrumented counters
    per component and kernel kind.
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
