"""Wall-clock benchmarks: single-instance latency and batched throughput.

Workloads are synthesized from a shape (random content tokens, seeded), so
the benchmark measures shapes rather than any corpus.  Timings use the
monotonic performance clock; warmup runs are excluded and the median is
reported next to the mean to blunt scheduler noise.  Decoded tokens are
checksummed into the report so nondeterminism would be visible, minor
page faults per timed op show allocator churn, and the ``tracemalloc`` peak
of one untimed op shows the footprint.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .costmodel import ShapeParams, flop_ratio
from .engines import ENGINES, Instance, Workload, infer
from .errors import ConfigError, ResourceLimitError
from .model import ModelConfig, WeightSet, init_weights

try:
    import resource
except ImportError:  # not on every platform; faults are then not reported
    resource = None

MIN_REPETITIONS = 3
DEFAULT_MEM_CAP_BYTES = 1 << 30


@dataclass(frozen=True)
class BenchConfig:
    model: ModelConfig
    shape: ShapeParams
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
    wasted_stream_steps: int
    minor_faults_per_op: float | None
    op_peak_bytes: int  # tracemalloc peak of one untimed batch-1 op
    unstable: bool


@dataclass
class LatencyReport:
    shape: ShapeParams
    seed: int
    repetitions: int
    warmup: int
    engines: dict[str, EngineTiming]
    speedup_single: float
    speedup_batched: float
    measured_flop_ratio: float
    analytic_flop_ratio: float


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


def _minor_faults() -> int | None:
    """Minor page faults this process has taken so far, if the platform says."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def traced_peak_bytes(call) -> int:
    """Peak bytes ``tracemalloc`` sees ``call()`` hold above what was traced
    when it began: NumPy's array buffers as well as Python's objects."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _time_once(engine: str, model: ModelConfig, weights: WeightSet, wl: Workload):
    start = time.perf_counter()
    result = infer(engine, model, weights, wl)
    return time.perf_counter() - start, result


def run_bench(config: BenchConfig) -> LatencyReport:
    """Paired timings on identical workloads, engines interleaved rep by rep.

    Every repetition times each engine once per batch size, and the engine
    that goes first alternates, so drift in the host hits all engines
    alike.  The "single" series is the batch-1 series: it is timed once
    and serves both the single-instance and the batch-1 figures.  The
    pie/pid speedups are medians of the per-repetition ratios (batched:
    each engine at its own optimal batch), not ratios of medians.  Minor
    page faults are summed over every timed op of an engine.  After the
    timed repetitions, each engine runs one more batch-1 op under
    ``tracemalloc`` for its peak bytes.
    """
    guard_batch = max(config.batch_sizes)
    estimated = estimate_run_bytes(config.model, config.shape, guard_batch)
    if estimated > config.mem_cap_bytes:
        raise ResourceLimitError(
            f"estimated {estimated} bytes exceeds cap {config.mem_cap_bytes}"
        )
    weights = init_weights(config.model, config.seed)
    shape = config.shape
    workloads = {
        b: random_workload(
            np.random.default_rng(config.seed), config.model.vocab_size,
            shape.U, b, shape.n_s, shape.n_p, shape.n_t,
        )
        for b in sorted({1, *config.batch_sizes})
    }
    for _ in range(config.warmup):
        for engine in ENGINES:
            _time_once(engine, config.model, weights, workloads[1])
    per_instance = {(e, b): [] for e in ENGINES for b in workloads}
    faults = dict.fromkeys(ENGINES, 0)
    last = {}
    for rep in range(config.repetitions):
        order = ENGINES if rep % 2 == 0 else ENGINES[::-1]
        for b, wl in workloads.items():
            for engine in order:
                before = _minor_faults()
                seconds, last[engine, b] = _time_once(engine, config.model, weights, wl)
                if before is not None:
                    faults[engine] += _minor_faults() - before
                per_instance[engine, b].append(seconds / b)
    timed_ops = config.repetitions * len(workloads)
    peaks = {
        engine: traced_peak_bytes(lambda: infer(engine, config.model, weights, workloads[1]))
        for engine in ENGINES
    }
    timings = {}
    for engine in ENGINES:
        times = per_instance[engine, 1]
        mean = statistics.fmean(times)
        std = statistics.pstdev(times)
        batched = {b: statistics.median(per_instance[engine, b]) for b in config.batch_sizes}
        optimal_batch = min(batched, key=batched.get)
        single = last[engine, 1]
        timings[engine] = EngineTiming(
            engine=engine,
            single_mean_s=mean,
            single_std_s=std,
            single_median_s=statistics.median(times),
            batched_per_instance_s=batched,
            optimal_batch=optimal_batch,
            optimal_per_instance_s=batched[optimal_batch],
            total_flops=single.counters.flops,
            token_checksum=_checksum(single.flat_outputs()),
            wasted_stream_steps=single.wasted_stream_steps,
            minor_faults_per_op=None if resource is None else faults[engine] / timed_ops,
            op_peak_bytes=peaks[engine],
            unstable=std > 0.5 * mean,
        )
    pie, pid = timings["pie"], timings["pid"]

    def paired_speedup(pie_batch: int, pid_batch: int) -> float:
        # median of the per-repetition ratios: both times of a pair come
        # from one repetition, so drift on the host cancels within it
        return statistics.median(
            a / b for a, b in zip(per_instance["pie", pie_batch], per_instance["pid", pid_batch])
        )

    return LatencyReport(
        shape=shape,
        seed=config.seed,
        repetitions=config.repetitions,
        warmup=config.warmup,
        engines=timings,
        speedup_single=paired_speedup(1, 1),
        speedup_batched=paired_speedup(pie.optimal_batch, pid.optimal_batch),
        measured_flop_ratio=pid.total_flops / pie.total_flops,
        analytic_flop_ratio=flop_ratio(config.model, shape),
    )
