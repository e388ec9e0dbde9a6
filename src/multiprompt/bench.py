"""Wall-clock benchmarks: single-instance latency and batched throughput.

Workloads are synthesized from a shape (random content tokens, seeded), so
the benchmark measures shapes rather than any corpus.  Timings use the
monotonic performance clock; warmup runs are excluded and the median is
reported next to the mean to blunt scheduler noise.  Decoded tokens are
checksummed into the report so nondeterminism would be visible.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .costmodel import ShapeParams, flop_ratio
from .engines import ENGINES, Instance, Workload, infer
from .errors import ConfigError, ResourceLimitError
from .model import ModelConfig, WeightSet, init_weights

MIN_REPETITIONS = 3
DEFAULT_MEM_CAP_BYTES = 1 << 30


@dataclass(frozen=True)
class BenchConfig:
    model: ModelConfig
    shape: ShapeParams
    engines: tuple[str, ...] = ENGINES
    seed: int = 0
    repetitions: int = 5
    warmup: int = 2
    batch_sizes: tuple[int, ...] = (1, 2)
    mem_cap_bytes: int = DEFAULT_MEM_CAP_BYTES

    def __post_init__(self) -> None:
        if self.repetitions < MIN_REPETITIONS:
            raise ConfigError(f"repetitions must be >= {MIN_REPETITIONS}")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        bad = [e for e in self.engines if e not in ENGINES]
        if bad:
            raise ConfigError(f"unknown engines {bad}; choose from {ENGINES}")
        if any(b < 1 for b in self.batch_sizes):
            raise ConfigError("batch sizes must be >= 1")
        if self.model.d_model != self.shape.d or self.model.n_heads != self.shape.h:
            raise ConfigError(
                f"shape (d={self.shape.d}, h={self.shape.h}) disagrees with model "
                f"(d={self.model.d_model}, h={self.model.n_heads})"
            )


@dataclass
class EngineTiming:
    engine: str
    single_mean_s: float
    single_std_s: float
    single_median_s: float
    batched_per_instance_s: dict[int, float]
    optimal_batch: int
    optimal_per_instance_s: float
    total_flops: int
    token_checksum: str
    unstable: bool

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "single_mean_s": self.single_mean_s,
            "single_std_s": self.single_std_s,
            "single_median_s": self.single_median_s,
            "batched_per_instance_s": {str(k): v for k, v in self.batched_per_instance_s.items()},
            "optimal_batch": self.optimal_batch,
            "optimal_per_instance_s": self.optimal_per_instance_s,
            "total_flops": self.total_flops,
            "token_checksum": self.token_checksum,
            "unstable": self.unstable,
        }


@dataclass
class LatencyReport:
    shape: ShapeParams
    seed: int
    repetitions: int
    warmup: int
    engines: dict[str, EngineTiming] = field(default_factory=dict)
    speedup_single: float | None = None
    speedup_batched: float | None = None
    measured_flop_ratio: float | None = None
    analytic_flop_ratio: float | None = None

    def to_dict(self) -> dict:
        return {
            "shape": self.shape.to_dict(),
            "seed": self.seed,
            "repetitions": self.repetitions,
            "warmup": self.warmup,
            "engines": {k: v.to_dict() for k, v in sorted(self.engines.items())},
            "speedup_single": self.speedup_single,
            "speedup_batched": self.speedup_batched,
            "measured_flop_ratio": self.measured_flop_ratio,
            "analytic_flop_ratio": self.analytic_flop_ratio,
        }


def random_workload(
    rng: np.random.Generator, vocab_size: int, u: int, b: int, n_s: int, n_p: int, n_t: int
) -> Workload:
    """Random content tokens (ids 4 to ``vocab_size - 1``) in the workload's shape."""
    instances = []
    for _ in range(b):
        x = rng.integers(4, vocab_size, size=n_s, dtype=np.int64)
        prompts = tuple(rng.integers(4, vocab_size, size=n_p, dtype=np.int64) for _ in range(u))
        instances.append(Instance(x=x, prompts=prompts))
    return Workload(instances=tuple(instances), max_new_tokens=n_t)


def estimate_run_bytes(model: ModelConfig, shape: ShapeParams, batch: int) -> int:
    """Upper-bound float32 bytes for weights, caches, and live activations."""
    d, dff, v = model.d_model, model.d_ff, model.vocab_size
    weights = 4 * (
        v * d * 2
        + model.n_enc_layers * (4 * d * d + 2 * d * dff)
        + model.n_dec_layers * (8 * d * d + 2 * d * dff)
        + model.max_len * d
    )
    streams = shape.U * batch
    enc_len = shape.n_s + shape.n_p + 1
    cap = max(shape.n_p, 1) + shape.n_t
    caches = 4 * model.n_dec_layers * 2 * streams * (cap + enc_len) * d
    activations = 4 * streams * enc_len * max(4 * d, dff, v)
    return 3 * (weights + caches + activations)


def _checksum(token_lists: list[list[int]]) -> str:
    h = hashlib.sha256()
    for seq in token_lists:
        h.update(np.asarray(seq, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def _time_once(engine: str, model: ModelConfig, weights: WeightSet, wl: Workload):
    start = time.perf_counter()
    result = infer(engine, model, weights, wl)
    return time.perf_counter() - start, result


def run_bench(config: BenchConfig) -> LatencyReport:
    """Paired timings on identical workloads, engines interleaved rep by rep.

    Every repetition times each engine once per batch size, and the engine
    that goes first alternates, so drift in the host hits all engines
    alike.  The "single" series is the batch-1 series: it is timed once
    and serves both the single-instance and the batch-1 figures.
    """
    guard_batch = max(config.batch_sizes)
    estimated = estimate_run_bytes(config.model, config.shape, guard_batch)
    if estimated > config.mem_cap_bytes:
        raise ResourceLimitError(
            f"estimated {estimated} bytes exceeds cap {config.mem_cap_bytes}"
        )
    weights = init_weights(config.model, config.seed)
    report = LatencyReport(
        shape=config.shape,
        seed=config.seed,
        repetitions=config.repetitions,
        warmup=config.warmup,
    )
    shape = config.shape
    workloads = {
        b: random_workload(
            np.random.default_rng(config.seed), config.model.vocab_size,
            shape.U, b, shape.n_s, shape.n_p, shape.n_t,
        )
        for b in sorted({1, *config.batch_sizes})
    }
    for _ in range(config.warmup):
        for engine in config.engines:
            _time_once(engine, config.model, weights, workloads[1])
    per_instance = {(e, b): [] for e in config.engines for b in workloads}
    last = {}
    for rep in range(config.repetitions):
        order = config.engines if rep % 2 == 0 else config.engines[::-1]
        for b, wl in workloads.items():
            for engine in order:
                seconds, last[engine, b] = _time_once(engine, config.model, weights, wl)
                per_instance[engine, b].append(seconds / b)
    for engine in config.engines:
        times = per_instance[engine, 1]
        mean = statistics.fmean(times)
        std = statistics.pstdev(times)
        batched = {b: statistics.median(per_instance[engine, b]) for b in config.batch_sizes}
        optimal_batch = min(batched, key=batched.get)
        single = last[engine, 1]
        report.engines[engine] = EngineTiming(
            engine=engine,
            single_mean_s=mean,
            single_std_s=std,
            single_median_s=statistics.median(times),
            batched_per_instance_s=batched,
            optimal_batch=optimal_batch,
            optimal_per_instance_s=batched[optimal_batch],
            total_flops=single.counters.flops,
            token_checksum=_checksum(single.flat_outputs()),
            unstable=std > 0.5 * mean,
        )
    if "pie" in report.engines and "pid" in report.engines:
        pie, pid = report.engines["pie"], report.engines["pid"]
        report.speedup_single = pie.single_median_s / pid.single_median_s
        report.speedup_batched = pie.optimal_per_instance_s / pid.optimal_per_instance_s
        report.measured_flop_ratio = pid.total_flops / pie.total_flops
        report.analytic_flop_ratio = flop_ratio(config.model, config.shape)
    return report
