"""Closed-form cost model: memory access, operation counts, intensity, roofline.

Three layers of fidelity, from coarse to exact:

1. Symbol cells (``table1_counts``): per-component memory-access and
   operation counts in symbol units, the granularity used for the
   analytic engine comparison.  Two evaluation modes: ``table1`` drops
   prompt-length terms (treating them as negligible), ``appendixB``
   retains them and splits the prompt-in-decoder rows into separate
   prompt and output phases.  Decoder rows are totals over all ``n_t``
   decode steps.  Memory symbols convert to bytes at 4 bytes per float32
   symbol (``BYTES_PER_SYMBOL``); operation symbols convert to flops at
   2 flops per multiply-add (``FLOPS_PER_MAC``).
2. Per-layer attention flops (also on the breakdown): matrix-multiply
   flop counts that mirror the engine's kernel calls, used to check the
   analytic model against instrumented counters.
3. ``predict_run_flops``: an exact mirror of every kernel call an engine
   run makes (projections, attention dots, softmax, norms, embeddings,
   vocabulary head), for counter calibration and whole-model flop ratios.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
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
    """One table cell pair plus the engine-mirroring attention flops."""

    memory_symbols: int
    ops_symbols: int
    attention_flops_per_layer: int

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

    def attention_flops_per_layer(self) -> dict[str, int]:
        """Prompt-phase rows folded into their base component."""
        out: dict[str, int] = {}
        for label, cost in self.components.items():
            base = label.replace("_prompt", "")
            out[base] = out.get(base, 0) + cost.attention_flops_per_layer
        return out

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
                    "attention_flops_per_layer": c.attention_flops_per_layer,
                }
                for label, c in sorted(self.components.items())
            },
            "totals": {
                "memory_symbols": self.total_memory_symbols,
                "ops_symbols": self.total_ops_symbols,
            },
        }


def _causal_attn_flops(positions: int, d: int) -> int:
    """Matmul flops for incrementally decoded self-attention over ``positions`` tokens.

    Projections Q/K/V/O are ``8*T*d^2``; with one position processed per
    step the score and context products touch ``T*(T+1)/2`` query-key pairs
    at ``4*d`` flops each.
    """
    return 8 * positions * d * d + 2 * d * positions * (positions + 1)


def _prefill_self_attn_flops(streams: int, p: int, d: int) -> int:
    """Matmul flops for a causal prefill: the kernels compute the full
    ``p x p`` score matrix and let the mask zero the upper triangle, so the
    mirrored count uses ``p**2`` pairs rather than ``p*(p+1)/2``."""
    return streams * (8 * p * d * d + 4 * p * p * d)


def _cross_attn_flops(query_positions: int, m: int, d: int) -> int:
    """Per-stream matmul flops of cross-attention queries (K/V projection excluded)."""
    return 4 * query_positions * d * d + 4 * query_positions * m * d


def table1_counts(shape: ShapeParams, engine: str, mode: str = TABLE1) -> CostBreakdown:
    """Per-component memory access and operation counts for one engine.

    Symbol cells follow the analytic comparison table exactly; the
    ``attention_flops_per_layer`` field carries the matching matrix-multiply
    flop count for one layer of the owning stack (softmax, scaling, and
    norms excluded, which is why instrumented counters run a few percent
    above these values).
    """
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    if mode not in (TABLE1, APPENDIX_B):
        raise ConfigError(f"unknown mode {mode!r}; choose {TABLE1} or {APPENDIX_B}")
    U, b, n_s, n_t, n_p, d = shape.U, shape.b, shape.n_s, shape.n_t, shape.n_p, shape.d
    streams = U * b
    enc_len = n_s + n_p if (mode == APPENDIX_B and engine == PIE) else n_s
    comps: dict[str, ComponentCost] = {}

    # encoder self-attention
    passes = streams if engine == PIE else b
    comps["encoder_self"] = ComponentCost(
        memory_symbols=passes * enc_len * d + d * d,
        ops_symbols=passes * enc_len * d * d,
        attention_flops_per_layer=passes * (8 * enc_len * d * d + 4 * enc_len * enc_len * d),
    )

    # decoder self-attention (output phase; identical cells for both engines)
    if engine == PID and mode == APPENDIX_B and n_p > 0:
        comps["decoder_self_prompt"] = ComponentCost(
            memory_symbols=streams * n_p * d + d * d,
            ops_symbols=streams * n_p * d * d,
            attention_flops_per_layer=_prefill_self_attn_flops(streams, n_p, d),
        )
        out_steps = n_t - 1
        self_out_flops = streams * (
            8 * out_steps * d * d + 4 * d * (out_steps * n_p + n_t * (n_t - 1) // 2)
        )
    else:
        self_out_flops = streams * _causal_attn_flops(n_t, d)
    comps["decoder_self"] = ComponentCost(
        memory_symbols=streams * n_t * n_t * d + n_t * d * d,
        ops_symbols=streams * n_t * d * d,
        attention_flops_per_layer=self_out_flops,
    )

    # decoder cross-attention
    m = enc_len if engine == PIE else n_s
    owners = streams if engine == PIE else b
    kv_projection = 4 * owners * m * d * d
    if engine == PID and mode == APPENDIX_B and n_p > 0:
        comps["decoder_cross_prompt"] = ComponentCost(
            memory_symbols=b * n_s * d + streams * n_p * d + d * d,
            ops_symbols=streams * n_p * d * d,
            attention_flops_per_layer=streams * _cross_attn_flops(n_p, m, d),
        )
        cross_out_flops = streams * _cross_attn_flops(n_t - 1, m, d) + kv_projection
    else:
        cross_out_flops = streams * _cross_attn_flops(n_t, m, d) + kv_projection
    m_mem = owners  # per-step K/V re-reads scale with the number of cache owners
    comps["decoder_cross"] = ComponentCost(
        memory_symbols=m_mem * m * n_t * d + streams * n_t * d + n_t * d * d,
        ops_symbols=streams * n_t * d * d,
        attention_flops_per_layer=cross_out_flops,
    )
    return CostBreakdown(engine=engine, mode=mode, shape=shape, components=comps)


# -- inverse operational intensity ---------------------------------------------

INTENSITY_COMPONENTS = (
    "enc_self",
    "dec_self",
    "dec_self_prompt",
    "dec_cross",
    "dec_cross_prompt",
    "dec_cross_output",
)


def inverse_intensity(shape: ShapeParams, component: str, engine: str) -> float:
    """Memory access per arithmetic operation (lower means higher intensity).

    Exact closed forms; prompt-phase components exist only for the
    prompt-in-decoder engine, ``dec_cross`` only for prompt-in-encoder
    (its prompt-in-decoder counterparts are the ``dec_cross_prompt`` and
    ``dec_cross_output`` phases).
    """
    U, b, n_s, n_t, n_p, d = shape.U, shape.b, shape.n_s, shape.n_t, shape.n_p, shape.d
    if component not in INTENSITY_COMPONENTS:
        raise ConfigError(f"unknown component {component!r}; choose from {INTENSITY_COMPONENTS}")
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    key = (component, engine)
    if component.endswith("_prompt") and n_p < 1:
        raise ConfigError(f"{component} requires n_p >= 1, shape has n_p={n_p}")
    if key == ("enc_self", PIE):
        return 1 / d + 1 / (U * b * (n_s + n_p))
    if key == ("enc_self", PID):
        return 1 / d + 1 / (b * n_s)
    if key in (("dec_self", PIE), ("dec_self", PID)):
        # the prompt-in-decoder output phase shares the prompt-in-encoder form
        return n_t / d + 1 / (U * b)
    if key == ("dec_self_prompt", PID):
        return 1 / d + 1 / (U * b * n_p)
    if key == ("dec_cross", PIE):
        return (n_s + n_p + 1) / d + 1 / (U * b)
    if key == ("dec_cross_prompt", PID):
        return (1 / d) * (n_s / (U * n_p) + 1) + 1 / (U * b * n_p)
    if key == ("dec_cross_output", PID):
        return (1 / d) * (n_s / U + 1) + 1 / (U * b)
    raise ConfigError(f"component {component!r} is not defined for engine {engine!r}")


def intensity_pairs(engine: str, n_p: int) -> list[str]:
    """Components defined for an engine at a given prompt length."""
    if engine == PIE:
        return ["enc_self", "dec_self", "dec_cross"]
    out = ["enc_self", "dec_self", "dec_cross_output"]
    if n_p >= 1:
        out[1:1] = ["dec_self_prompt"]
        out.append("dec_cross_prompt")
    return out


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


def _encode_flops(config: ModelConfig, n_pass: int, length: int) -> dict[str, int]:
    d, dff, h = config.d_model, config.d_ff, config.n_heads
    rows = n_pass * length
    # per sublayer: norm 6/elt, residual add 1/elt on top of the matmuls;
    # attention adds the 1/sqrt(dh) query scale 1/elt and softmax 4/score
    enc_self = config.n_enc_layers * (
        8 * rows * d * d
        + 4 * n_pass * length * length * d
        + 4 * n_pass * h * length * length
        + 8 * rows * d
    )
    ffn = config.n_enc_layers * (4 * rows * d * dff + rows * dff + 7 * rows * d)
    return {
        "embedding": 2 * rows * d,  # sqrt(d) scale plus position add
        "encoder_self": enc_self,
        "feed_forward": ffn,
        "other": 6 * rows * d,
    }


def _decode_flops(
    config: ModelConfig, streams: int, owners: int, prefix: int, m: int, n_t: int,
    all_logits: bool = False,
) -> dict[str, int]:
    """Mirror of a full decode: cross-K/V projection, prefill, n_t-1 steps.

    ``all_logits`` mirrors ``decoder_prefill(return_all_logits=True)``: the
    vocabulary head runs on every prefix position instead of the last one.
    """
    d, dff, h, v = config.d_model, config.d_ff, config.n_heads, config.vocab_size
    layers = config.n_dec_layers
    if n_t == 0:
        return {}
    kv_init = layers * 4 * owners * m * d * d
    # prefill computes the full prefix x prefix score matrix; incremental
    # steps i=1..n_t-1 attend prefix+i keys each
    steps = n_t - 1
    self_keys = prefix * prefix + steps * prefix + steps * (steps + 1) // 2
    total_rows = streams * (prefix + steps)
    dec_self = layers * (
        8 * total_rows * d * d + 4 * streams * self_keys * d + 4 * streams * h * self_keys
        + 8 * total_rows * d
    )
    cross_q = prefix + steps
    dec_cross = kv_init + layers * (
        4 * total_rows * d * d
        + 4 * streams * cross_q * m * d
        + 4 * streams * h * cross_q * m
        + 8 * total_rows * d
    )
    ffn = layers * (4 * total_rows * d * dff + total_rows * dff + 7 * total_rows * d)
    head = ((prefix if all_logits else 1) + steps) * 2 * streams * d * v
    return {
        "embedding": 2 * total_rows * d + head,  # sqrt(d) scale plus position add
        "decoder_self": dec_self,
        "decoder_cross": dec_cross,
        "feed_forward": ffn,
        "other": 6 * total_rows * d,
    }


def predict_run_flops(config: ModelConfig, shape: ShapeParams, engine: str) -> dict:
    """Exact per-component flop prediction for a full engine run.

    Mirrors every kernel call the engine makes, assuming all streams decode
    the full ``n_t`` tokens (no early stop).  Calibrated against instrumented
    counters in the test suite; engine encode-side prompt handling (separator
    token) is included.
    """
    if engine not in (PIE, PID):
        raise ConfigError(f"unknown engine {engine!r}")
    if config.d_model != shape.d or config.n_heads != shape.h:
        raise ConfigError(
            f"shape ({shape.d}, h={shape.h}) disagrees with model "
            f"({config.d_model}, h={config.n_heads})"
        )
    U, b = shape.U, shape.b
    streams = U * b
    if engine == PIE:
        enc_len = shape.n_s + (shape.n_p + 1 if shape.n_p else 0)
        encode = _encode_flops(config, streams, enc_len)
        decode = _decode_flops(config, streams, streams, 1, enc_len, shape.n_t)
    else:
        encode = _encode_flops(config, b, shape.n_s)
        decode = _decode_flops(
            config, streams, b, max(shape.n_p, 1), shape.n_s, shape.n_t
        )
    by_component: dict[str, int] = {}
    for part in (encode, decode):
        for label, flops in part.items():
            by_component[label] = by_component.get(label, 0) + flops
    return {
        "engine": engine,
        "encode": encode,
        "decode": decode,
        "by_component": by_component,
        "encode_total": sum(encode.values()),
        "total": sum(by_component.values()),
    }


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
