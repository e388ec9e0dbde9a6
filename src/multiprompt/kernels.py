"""Dense float32 kernels with exact operation and memory-traffic accounting.

Every kernel takes a :class:`CounterSink` and reports two things about the
call: arithmetic operations ("flops") and memory traffic in bytes.  The
counts are closed-form functions of the operand shapes, and each kind's
formula exists once, in a ``count_*`` helper that records into a sink.
The kernels record through these helpers, and the analytic mirror
(``costmodel.predict_run_counters``) replays an engine run's kernel calls
through the same helpers from shapes alone, so measured and predicted
counts are the same kind of object and tests can assert them exactly.

Counting conventions, fixed package-wide:

* One multiply-add counts as 2 flops.  A matrix product ``[m,k] @ [k,n]``
  therefore reports ``2*m*n*k``.
* Elementwise kernels report a small constant number of operations per
  element: add/scale/relu 1, softmax 4, layer norm 6 (backward variants are
  documented on each kernel).
* Every float32 operand is read from "global memory" once per kernel call
  (4 bytes per element) and every output written once.  Boolean masks count
  1 byte per element.  No cache hierarchy is modelled.
* Pure selection (row gather indices, argmax) is not arithmetic and
  reports zero flops.
* Every kernel checks, counts, computes and fails fast: it validates every
  operand (shapes, float32 dtypes, masks) before it records anything, so
  a :class:`ShapeError` or :class:`MaskError` leaves the sink untouched;
  then it records its counts; then it computes, and a non-finite output
  raises ``FloatingPointError`` with the full counts already recorded.
* A fused kernel records each constituent's counts exactly as its unfused
  composition would, in the same order: :func:`attention` a batched score
  product, a softmax and a batched context product;
  :func:`attention_backward` two batched products, a softmax backward and
  two more products; :func:`matmul` with a GEMM epilogue (``scale=`` or
  ``residual=``) the product, then a scale or an add; and
  :func:`embed_rows` a row gather, a scale and an add.  It keeps every
  constituent's finite check that can fire and names the constituent that
  failed in its error (``bmm``, ``softmax backward``, ``matmul``,
  ``scale``, ``add``); the softmax inside :func:`attention` cannot fail
  once its scores are finite.  Fusion changes what is allocated, re-read
  and checked on the host, never the counted traffic.
* The two attention kernels run their ``B`` slices in chunks whose
  score-shaped arrays fit ``ATTENTION_CHUNK_BYTES``, each constituent on
  a chunk before the next chunk.  Every slice and row is computed by the
  same NumPy call on the same operands as unchunked, so chunking changes
  neither bits nor counts; a non-finite output raises at the first chunk
  and constituent that produces one.  When one chunk holds every slice,
  as it does at the benchmark's shapes for every decode step, every
  inference prefill and pid's encoder, :func:`attention` skips the loop:
  its products run on the whole operands and allocate their own outputs,
  with no chunk buffers.
* The forward kernels and the index checks call their reductions as ufunc
  methods (``np.add.reduce``, ``np.maximum.reduce``): the same loops the
  ndarray methods reach through a Python wrapper, so a small decode-step
  call costs less without changing a bit.
* Each finite check is one BLAS pass, ``np.vdot(x, x)``: NaN and
  infinities carry through a sum of squares, so a finite sum proves every
  entry finite, with no bool mask and no warning.  Only a sum that
  overflows (an entry of about ``1e19`` or more) falls back to the
  entrywise ``np.isfinite`` check, so the answer never changes.

Allocation: every kernel allocates its outputs and temporaries as the
plain NumPy expression does; ``out=`` names only an array the kernel
allocated itself.  A training step or an engine run frees and allocates
the same large arrays op after op.  With glibc's defaults each one is
mapped afresh, or carved from a heap top that ``free`` trims, so its pages
fault in again on every op.  :func:`raise_malloc_thresholds`, called by
``model.encode_batch`` (which every engine run, the oracle and every
training step call first), raises glibc's trim and mmap thresholds once
per process, so a freed block stays in the heap and the next op reuses it
with its pages in place.  Both are needed: with the trim threshold alone
every block of 128 KiB or more is still mapped afresh, and with the mmap
threshold alone ``free`` still trims the heap top.  Inference needs them
together with :func:`attention`'s probability-free path: that path holds
one chunk of scores instead of all of them, and the smaller heap is
trimmed and faulted in again on every op unless the thresholds are set.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import MaskError, ShapeError

F32 = np.float32

#: Closed set of component labels a kernel call can be attributed to.
COMPONENTS = (
    "encoder_self",
    "decoder_self",
    "decoder_cross",
    "feed_forward",
    "embedding",
    "other",
)


class Counts(NamedTuple):
    """One component's or one run's counts."""

    flops: int
    bytes_read: int
    bytes_written: int


class CounterSink:
    """Accumulates flop and byte counts for one run.

    A sink is owned by exactly one logical run; concurrent runs must use
    separate sinks.  Counts are integers, monotone non-decreasing while the
    run executes.  A phase of a run is read off with :meth:`since`, which
    returns a fresh sink holding what was recorded after a
    :meth:`kind_totals` snapshot; :meth:`merge` adds two sinks' counts.

    Attribution: kernel calls are tagged with the component label of the
    innermost enclosing :meth:`scope` block (``"other"`` at top level),
    which :attr:`current_component` holds.  :meth:`scope` returns a fresh
    context object per call, so scopes nest and a subclass may wrap
    ``super().scope(...)`` in its own context manager.  Counts are kept
    per (component, kernel kind), in first-call order; the component and
    run totals are sums over them.  :meth:`kind_totals` exposes the
    per-kind subtotals, from which ``perfbench`` reports matrix-multiply
    throughput.
    """

    def __init__(self) -> None:
        self._kinds: dict[tuple[str, str], list[int]] = {}
        self.current_component = "other"

    # -- totals ---------------------------------------------------------

    @property
    def flops(self) -> int:
        return sum(v[0] for v in self._kinds.values())

    @property
    def bytes_read(self) -> int:
        return sum(v[1] for v in self._kinds.values())

    @property
    def bytes_written(self) -> int:
        return sum(v[2] for v in self._kinds.values())

    def component_totals(self) -> dict[str, Counts]:
        """The counts of each component label that has any."""
        totals: dict[str, Counts] = {}
        for (label, _), (f, br, bw) in self._kinds.items():
            f0, br0, bw0 = totals.get(label, (0, 0, 0))
            totals[label] = Counts(f0 + f, br0 + br, bw0 + bw)
        return totals

    def component(self, label: str) -> Counts:
        """The counts of one component label, zero if it has none."""
        return self.component_totals().get(label, Counts(0, 0, 0))

    def kind_totals(self) -> dict[tuple[str, str], tuple[int, int, int]]:
        """Subtotals keyed by (component, kernel kind)."""
        return {k: (v[0], v[1], v[2]) for k, v in self._kinds.items()}

    def since(self, snapshot: dict[tuple[str, str], tuple[int, int, int]]) -> CounterSink:
        """A fresh sink holding what was recorded after ``snapshot``, a
        :meth:`kind_totals` of this sink; keys that did not move are left out."""
        out = CounterSink()
        for key, cell in self._kinds.items():
            diff = [now - then for now, then in zip(cell, snapshot.get(key, (0, 0, 0)))]
            if any(diff):
                out._kinds[key] = diff
        return out

    def merge(self, other: CounterSink) -> CounterSink:
        """A fresh sink holding the counts of both sinks, added key by key."""
        out = CounterSink()
        for sink in (self, other):
            for key, counts in sink._kinds.items():
                cell = out._kinds.setdefault(key, [0, 0, 0])
                cell[:] = [a + b for a, b in zip(cell, counts)]
        return out

    # -- recording ------------------------------------------------------

    def scope(self, component: str) -> _Scope:
        """Attribute kernel calls inside the ``with`` block to ``component``."""
        if component not in COMPONENTS:
            raise ValueError(f"unknown component label: {component!r}")
        return _Scope(self, component)

    def add(self, kind: str, flops: int, bytes_read: int, bytes_written: int) -> None:
        key = (self.current_component, kind)
        cell = self._kinds.get(key)
        if cell is None:
            self._kinds[key] = [flops, bytes_read, bytes_written]
        else:
            cell[0] += flops
            cell[1] += bytes_read
            cell[2] += bytes_written


class _Scope:
    """One :meth:`CounterSink.scope` block: sets the label, restores the outer one."""

    __slots__ = ("_sink", "_component", "_outer")

    def __init__(self, sink: CounterSink, component: str) -> None:
        self._sink = sink
        self._component = component

    def __enter__(self) -> CounterSink:
        sink = self._sink
        self._outer = sink.current_component
        sink.current_component = self._component
        return sink

    def __exit__(self, *exc_info) -> None:
        self._sink.current_component = self._outer


# -- count formulas ---------------------------------------------------------
#
# The one copy of each kernel kind's counts.  Each kernel records through
# these after its checks pass, and ``costmodel.predict_run_counters``
# replays an engine run through them from shapes alone.  Training records its
# loss gradient and SGD update through ``count_loss_grad`` and ``count_sgd``.


def count_matmul(sink: CounterSink, m: int, k: int, n: int, batch: int = 1) -> None:
    """``batch`` products ``[m,k] @ [k,n]``, each reading both operands."""
    sink.add("matmul", 2 * batch * m * n * k, 4 * batch * (m * k + k * n), 4 * batch * m * n)


def count_elementwise(sink: CounterSink, kind: str, size: int, inputs: int) -> None:
    """One operation per output element, reading ``inputs`` float32 operands."""
    sink.add(kind, size, 4 * inputs * size, 4 * size)


def count_softmax(sink: CounterSink, n: int, m: int, masked: bool) -> None:
    sink.add("softmax", 4 * n * m, 4 * n * m + (n * m if masked else 0), 4 * n * m)


def count_softmax_backward(sink: CounterSink, n: int, m: int) -> None:
    sink.add("softmax_backward", 4 * n * m, 8 * n * m, 4 * n * m)


def count_attention(
    sink: CounterSink, slices: int, rows: int, dh: int, m: int, dv: int, masked: bool
) -> None:
    """:func:`attention`'s constituents: scores, softmax, context."""
    count_matmul(sink, rows, dh, m, slices)
    count_softmax(sink, slices * rows, m, masked)
    count_matmul(sink, rows, m, dv, slices)


def count_layer_norm(sink: CounterSink, n: int, m: int) -> None:
    sink.add("layer_norm", 6 * n * m, 4 * (n * m + m), 4 * n * m)


def count_layer_norm_backward(sink: CounterSink, n: int, m: int) -> None:
    sink.add("layer_norm_backward", 12 * n * m, 4 * (2 * n * m + m), 4 * (n * m + m))


def count_gather(sink: CounterSink, rows: int, d: int) -> None:
    sink.add("gather", 0, 4 * rows * d, 4 * rows * d)


def count_loss_grad(sink: CounterSink, rows: int, vocab: int) -> None:
    """Cross-entropy's logits gradient from ``[rows, vocab]`` probabilities."""
    sink.add("loss_grad", 3 * rows * vocab, 8 * rows * vocab, 4 * rows * vocab)


def count_sgd(sink: CounterSink, size: int) -> None:
    """One SGD update of a ``size``-element weight from its gradient."""
    sink.add("sgd", 2 * size, 8 * size, 4 * size)


# -- allocator --------------------------------------------------------------

#: glibc ``mallopt`` parameters (``malloc.h``) and the values they are set
#: to: keep up to 1 GiB of freed memory at the heap top, and serve requests
#: of up to 32 MiB (a 64-bit glibc's ceiling) from the heap, not from
#: fresh mappings.
_M_TRIM_THRESHOLD, _TRIM_BYTES = -1, 1 << 30
_M_MMAP_THRESHOLD, _MMAP_BYTES = -3, 32 << 20


@functools.cache
def raise_malloc_thresholds() -> None:
    """Set glibc's trim and mmap thresholds, once per process.

    The setting is process-wide and lasts for the life of the process.
    Where the C library has no ``mallopt`` (not glibc), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


def _as_f32_matrix(a: np.ndarray, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {a.shape}")
    if a.dtype != F32:
        raise ShapeError(f"{name} must be float32, got {a.dtype}")
    return a


def _finite(x: np.ndarray) -> bool:
    # a finite sum of squares proves every entry finite; only overflow pays the entrywise pass
    return math.isfinite(np.vdot(x, x)) or np.logical_and.reduce(np.isfinite(x), axis=None)


def _non_finite(kind: str) -> FloatingPointError:
    return FloatingPointError(f"{kind} produced non-finite values")


def _check_finite(out: np.ndarray, kind: str) -> np.ndarray:
    if not _finite(out):
        raise _non_finite(kind)
    return out


# -- matrix multiply ------------------------------------------------------


def matmul(
    a: np.ndarray,
    b: np.ndarray,
    sink: CounterSink,
    *,
    scale: float | None = None,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """Product of ``a [m,k]`` and ``b [k,n]``, with an optional GEMM epilogue.

    ``scale`` returns ``(a @ b) * F32(scale)`` and ``residual`` returns
    ``residual + a @ b``; at most one epilogue is taken.  The epilogue is
    counted and bit-identical as ``scale(matmul(a, b), scale)`` or
    ``add(residual, matmul(a, b))`` would be.  ``residual`` is validated
    with ``a`` and ``b``, before anything is counted; a non-finite output
    raises naming ``matmul`` if the product is non-finite, else the
    epilogue.

    Counts: flops ``2*m*n*k``, bytes read ``4*(m*k + k*n)``, bytes written
    ``4*m*n``; then the epilogue's counts (see :func:`scale`, :func:`add`).
    """
    a = _as_f32_matrix(a, "a", 2)
    b = _as_f32_matrix(b, "b", 2)
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise ShapeError(f"matmul: a is {m}x{k}, b is {kb}x{n} (inner dimensions {k} != {kb})")
    if scale is not None and residual is not None:
        raise ValueError("matmul takes a scale or a residual epilogue, not both")
    if residual is not None:
        residual = np.asarray(residual)
        _check_add_operands(residual, (m, n))
    count_matmul(sink, m, k, n)
    product = a @ b
    if scale is None and residual is None:
        return _check_finite(product, "matmul")
    if residual is not None:
        count_elementwise(sink, "add", m * n, 2)
        kind, out = "add", residual + product
    else:
        count_elementwise(sink, "scale", m * n, 1)
        kind, out = "scale", product * F32(scale)
    # one check for both kernels: scaling or adding a residual keeps a
    # non-finite product non-finite, so a finite result proves a finite
    # product, and only a failed check looks at the product
    if not _finite(out):
        raise _non_finite("matmul" if not _finite(product) else kind)
    return out


def _check_bmm(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> None:
    """:func:`bmm`'s shape check of ``a [B,m,k] @ b [B,k,n]``."""
    (ba, m, k), (bb, kb, n) = a_shape, b_shape
    if ba != bb or k != kb:
        raise ShapeError(f"bmm: a is {ba}x{m}x{k}, b is {bb}x{kb}x{n} (batch or inner mismatch)")


def bmm(a: np.ndarray, b: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Batched product of ``a [B,m,k]`` and ``b [B,k,n]``.

    Equivalent to ``B`` independent :func:`matmul` calls and counted
    identically: each slice's operands are read once.  A shared operand
    must therefore be passed as a single slice (smaller ``B``) to be
    counted once; materializing copies costs the copies.  No model code
    calls it: the attention kernels run their products chunk by chunk, with
    the same shape checks, counts and finite checks.  It stays only as a
    name ``perfbench``'s tracer patches.
    """
    a = _as_f32_matrix(a, "a", 3)
    b = _as_f32_matrix(b, "b", 3)
    _check_bmm(a.shape, b.shape)
    slices, m, k = a.shape
    count_matmul(sink, m, k, b.shape[2], slices)
    return _check_finite(a @ b, "bmm")


# -- softmax and the attention core -----------------------------------------

#: Score bytes one chunk of :func:`attention` or :func:`attention_backward`
#: holds: half of a 2 MiB L2, so a chunk's scores are still in cache when
#: the next constituent reads them.
ATTENTION_CHUNK_BYTES = 1 << 20


def _chunk_slices(slices: int, slice_bytes: int) -> int:
    """Slices per attention chunk: the most whose ``slice_bytes`` each fit
    ``ATTENTION_CHUNK_BYTES``, at least one (so the chunk loop advances)."""
    fit = ATTENTION_CHUNK_BYTES // slice_bytes if slice_bytes else slices
    return max(fit, 1)


def _check_visible(mask: np.ndarray) -> None:
    """Raise :class:`MaskError` if ``mask`` hides every entry of a row."""
    visible = np.logical_or.reduce(mask, axis=1)
    if not np.logical_and.reduce(visible):
        raise MaskError(f"softmax row {int(np.flatnonzero(~visible)[0])} has no visible entries")


def _softmax_in_place(flat: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Row softmax of a non-empty ``flat [n,m]``, written over ``flat``;
    returns the row sums ``[n,1]``.

    ``mask`` is None or a bool ``[r,m]`` that leaves every row a visible
    entry (:func:`_check_visible`), applied to every slice's ``r`` rows
    (``r`` divides ``n``); it is broadcast, never tiled.
    """
    if mask is not None:
        # hidden lanes may exceed the visible row max and would overflow;
        # at -inf they neither set the max nor survive the exponent
        np.copyto(flat.reshape(-1, *mask.shape), -np.inf, where=~mask)
    flat -= np.maximum.reduce(flat, axis=1, keepdims=True)
    np.exp(flat, out=flat)
    sums = np.add.reduce(flat, axis=1, keepdims=True)
    flat /= sums
    return sums


def softmax_rows(a: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Row softmax of ``a [n,m]``, numerically stabilized by row-max
    subtraction (the training loss's probabilities).  Empty input returns
    an empty matrix.

    Counts: flops ``4*n*m`` (subtract, exp, accumulate, divide), bytes read
    ``4*n*m``, bytes written ``4*n*m``.
    """
    a = _as_f32_matrix(a, "a", 2)
    count_softmax(sink, *a.shape, False)
    if a.size == 0:
        return a.copy()
    # one float32 copy to work in: ``np.positive`` copies every value
    # exactly, in the input's memory order
    out = np.positive(a)
    # every lane is exp(x - rowmax), in [0, 1] or NaN, and the max lane is
    # 1, so a row sum is finite exactly when every output in its row is
    if not _finite(_softmax_in_place(out, None)):
        raise _non_finite("softmax")
    return out


def _check_attention_mask(mask: np.ndarray, rows: int, m: int) -> None:
    if mask.dtype != np.bool_ or mask.shape != (rows, m):
        raise ShapeError(f"attention mask must be bool ({rows}, {m}), got {mask.dtype} {mask.shape}")


def attention(
    q4: np.ndarray,
    k4: np.ndarray,
    v4: np.ndarray,
    sink: CounterSink,
    mask_rows: np.ndarray | None = None,
    *,
    keep_probs: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Attention core ``softmax(q4 @ k4) @ v4`` per slice; returns ``(probs, ctx)``.

    ``q4`` is ``[B,r,dh]``, ``k4`` ``[B,dh,m]`` and ``v4`` ``[B,m,dh]``;
    ``probs`` is ``[B,r,m]`` and ``ctx`` ``[B,r,dh]``.  ``mask_rows`` is an
    optional bool ``[r,m]`` mask applied to the ``r`` score rows of every
    slice.  The softmax runs in place on the score buffer, and the mask is
    broadcast rather than tiled.  The slices run in chunks whose scores fit
    ``ATTENTION_CHUNK_BYTES``: each chunk's score product, softmax and
    context product run while its scores are in cache.  With
    ``keep_probs`` the chunks write one ``[B,r,m]`` buffer, returned as
    ``probs`` for the backward; without it every chunk reuses one chunk's
    buffer, so the call holds one chunk of scores rather than all of them,
    and ``probs`` is None.  Either way ``ctx`` has the same bits.

    Checks and counts are those of the batched products ``q4 @ k4`` and
    ``probs @ v4`` (:func:`bmm`'s shape checks and counts) around a softmax
    of the ``[B*r, m]`` scores that counts a mask byte per score, with every
    shape, dtype and mask check made before anything is counted.  A
    non-finite product raises naming ``bmm``, at the first chunk where one
    does.  The softmax takes no check of its own: finite scores give every
    row a finite max, so every output lies in [0, 1] and every row sum is
    finite.
    """
    q4 = _as_f32_matrix(q4, "q4", 3)
    k4 = _as_f32_matrix(k4, "k4", 3)
    v4 = _as_f32_matrix(v4, "v4", 3)
    slices, rows, dh = q4.shape
    m = k4.shape[2]
    _check_bmm(q4.shape, k4.shape)
    _check_bmm((slices, rows, m), v4.shape)
    if mask_rows is not None:
        mask_rows = np.asarray(mask_rows)
        _check_attention_mask(mask_rows, rows, m)
        if slices * rows * m:
            _check_visible(mask_rows)
    count_attention(sink, slices, rows, dh, m, v4.shape[2], mask_rows is not None)
    step = _chunk_slices(slices, 4 * rows * m)
    if step >= slices:
        # one chunk holds every slice: the same three calls on the whole
        # operands, with no chunk buffers or slicing
        probs = _check_finite(np.matmul(q4, k4), "bmm")
        if probs.size:
            _softmax_in_place(probs.reshape(-1, m), mask_rows)
        return probs if keep_probs else None, _check_finite(np.matmul(probs, v4), "bmm")
    probs = np.empty((slices if keep_probs else step, rows, m), F32)
    ctx = np.empty((slices, rows, v4.shape[2]), F32)
    for s in range(0, slices, step):
        e = min(s + step, slices)
        scores = probs[s:e] if keep_probs else probs[: e - s]
        _check_finite(np.matmul(q4[s:e], k4[s:e], out=scores), "bmm")
        if scores.size:
            _softmax_in_place(scores.reshape(-1, m), mask_rows)
        _check_finite(np.matmul(scores, v4[s:e], out=ctx[s:e]), "bmm")
    return probs if keep_probs else None, ctx


def _check_softmax_backward(probs_shape: tuple[int, ...], d_probs_shape: tuple[int, ...]) -> None:
    if probs_shape != d_probs_shape:
        raise ShapeError(f"softmax backward: probs is {probs_shape}, d_probs is {d_probs_shape}")


def _softmax_backward_in_place(probs: np.ndarray, d_probs: np.ndarray) -> bool:
    """``P * (dP - rowsum(dP * P))`` for ``[n,m]`` rows, written over
    ``d_probs``; returns whether every output is finite."""
    d_probs -= (d_probs * probs).sum(axis=1, keepdims=True)
    d_probs *= probs
    return _finite(d_probs)


def softmax_rows_backward(
    probs: np.ndarray, d_probs: np.ndarray, sink: CounterSink
) -> np.ndarray:
    """Backward of :func:`softmax_rows` given its output ``probs``.

    ``dS = P * (dP - rowsum(dP * P))``.  Masked entries have ``P == 0`` and
    receive zero gradient automatically.  Training reaches this formula
    through :func:`attention_backward`, which makes the same checks and
    counts; like :func:`bmm`, the kernel stays only as a name
    ``perfbench``'s tracer patches.

    Counts: flops ``4*n*m``, bytes read ``8*n*m``, bytes written ``4*n*m``.
    """
    probs = _as_f32_matrix(probs, "probs", 2)
    d_probs = _as_f32_matrix(d_probs, "d_probs", 2)
    _check_softmax_backward(probs.shape, d_probs.shape)
    count_softmax_backward(sink, *probs.shape)
    out = np.positive(d_probs)
    if not _softmax_backward_in_place(probs, out):
        raise _non_finite("softmax backward")
    return out


def attention_backward(
    q4: np.ndarray,
    k4: np.ndarray,
    v4: np.ndarray,
    probs: np.ndarray,
    d_ctx: np.ndarray,
    sink: CounterSink,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention` from its ``probs``; returns ``(d_q4, d_k4, d_v4)``.

    ``d_ctx`` is the gradient at ``ctx [B,r,dv]``.  ``d_q4 [B,r,dh]`` and
    ``d_v4 [B,m,dv]`` are the gradients at ``q4`` and ``v4``, and ``d_k4``
    the gradient at the keys as rows, ``[B,m,dh]``.  The slices run in
    chunks as in :func:`attention`, each holding two score-shaped arrays
    per slice: its ``probs`` and the scratch that takes ``d_probs`` and
    then, in place, ``d_scores``.

    Checks and counts are those of ``d_probs = bmm(d_ctx, v4ᵀ)``, ``d_v4 =
    bmm(probsᵀ, d_ctx)``, :func:`softmax_rows_backward` on the ``[B*r, m]``
    rows giving ``d_scores``, ``d_q4 = bmm(d_scores, k4ᵀ)`` and ``d_k4 =
    bmm(d_scoresᵀ, q4)``, where ``ᵀ`` swaps the last two axes, then the
    forward's ``bmm(q4, k4)`` shape check, with every operand checked to be
    3-D float32 and every shape check made before anything is counted.  A
    non-finite output raises naming the first constituent that produced
    one (``bmm`` or ``softmax backward``), at the first chunk where one
    does.
    """
    q4, k4, v4, probs, d_ctx = (
        _as_f32_matrix(x, name, 3)
        for x, name in ((q4, "q4"), (k4, "k4"), (v4, "v4"), (probs, "probs"), (d_ctx, "d_ctx"))
    )
    v4_t, probs_t, k4_t = (x.transpose(0, 2, 1) for x in (v4, probs, k4))
    slices, rows, dv = d_ctx.shape
    m = v4_t.shape[2]
    _check_bmm(d_ctx.shape, v4_t.shape)
    _check_bmm(probs_t.shape, d_ctx.shape)
    bp, rp, mp = probs.shape
    _check_softmax_backward((bp * rp, mp), (slices * rows, m))
    _check_bmm(probs.shape, k4_t.shape)
    _check_bmm(probs_t.shape, q4.shape)
    _check_bmm(q4.shape, k4.shape)  # the forward's score product
    # past the checks ``probs`` is [slices, rows, m]
    count_matmul(sink, rows, dv, m, slices)
    count_matmul(sink, m, rows, dv, slices)
    count_softmax_backward(sink, slices * rows, m)
    count_matmul(sink, rows, m, k4.shape[1], slices)
    count_matmul(sink, m, rows, q4.shape[2], slices)
    d_v4 = np.empty((slices, probs.shape[2], d_ctx.shape[2]), F32)
    d_q4 = np.empty((slices, rows, k4.shape[1]), F32)
    d_k4 = np.empty((slices, m, q4.shape[2]), F32)
    step = _chunk_slices(slices, 8 * rows * m)
    scratch = np.empty((min(step, slices), rows, m), F32)
    for s in range(0, slices, step):
        e = min(s + step, slices)
        d_probs = _check_finite(np.matmul(d_ctx[s:e], v4_t[s:e], out=scratch[: e - s]), "bmm")
        _check_finite(np.matmul(probs_t[s:e], d_ctx[s:e], out=d_v4[s:e]), "bmm")
        flat = ((e - s) * rows, m)
        if not _softmax_backward_in_place(probs[s:e].reshape(flat), d_probs.reshape(flat)):
            raise _non_finite("softmax backward")
        _check_finite(np.matmul(d_probs, k4_t[s:e], out=d_q4[s:e]), "bmm")
        _check_finite(np.matmul(d_probs.transpose(0, 2, 1), q4[s:e], out=d_k4[s:e]), "bmm")
    return d_q4, d_k4, d_v4


# -- layer norm ------------------------------------------------------------

LN_EPS = 1e-6  # added to the per-row variance; keeps zero-variance rows finite


def layer_norm(a: np.ndarray, gain: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Row-wise layer normalization followed by an elementwise gain.

    Each row is shifted to zero mean and scaled to unit variance
    (``LN_EPS`` added to the variance), then multiplied by ``gain``.

    Counts: flops ``6*n*m``, bytes read ``4*(n*m + m)``, bytes written
    ``4*n*m``.
    """
    a = _as_f32_matrix(a, "a", 2)
    gain = np.asarray(gain)
    n, m = a.shape
    if gain.shape != (m,):
        raise ShapeError(f"layer_norm: a is {n}x{m}, gain has shape {gain.shape} (want ({m},))")
    if gain.dtype != F32:
        raise ShapeError(f"layer_norm gain must be float32, got {gain.dtype}")
    count_layer_norm(sink, n, m)
    # the centred rows serve the variance and then become the output; an
    # overflow warns here and raises at the variance check below
    mean = np.add.reduce(a, axis=1, keepdims=True)
    mean /= m
    out = a - mean
    var = np.add.reduce(np.multiply(out, out), axis=1, keepdims=True)
    var /= m
    # every variance is a sum of squares, >= 0 or NaN, so the largest is
    # finite exactly when all are; the max has no identity, so a block of
    # no rows skips the check and returns its empty output
    if n and not math.isfinite(np.maximum.reduce(var, axis=None)):
        raise FloatingPointError("layer_norm row variance overflowed float32")
    var += LN_EPS
    out /= np.sqrt(var, out=var)
    out *= gain
    return _check_finite(out, "layer_norm")


def layer_norm_backward(
    a: np.ndarray, gain: np.ndarray, d_out: np.ndarray, sink: CounterSink
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`layer_norm`; returns ``(d_a, d_gain)``.

    Statistics are recomputed from ``a`` rather than cached.

    Counts: flops ``12*n*m``, bytes read ``4*(2*n*m + m)``, bytes written
    ``4*(n*m + m)``.
    """
    a = _as_f32_matrix(a, "a", 2)
    d_out = _as_f32_matrix(d_out, "d_out", 2)
    if a.shape != d_out.shape:
        raise ShapeError(f"layer_norm backward: a is {a.shape}, d_out is {d_out.shape}")
    n, m = a.shape
    count_layer_norm_backward(sink, n, m)
    # the steps and their order are those of ``a.var`` and the textbook
    # formula, so the result is bit-identical; ``x_hat`` and ``prod`` are
    # reused in place
    x_hat = a - a.mean(axis=1, keepdims=True)
    prod = np.multiply(x_hat, x_hat)
    var = prod.sum(axis=1, keepdims=True)
    var /= m
    var += LN_EPS
    inv_std = 1.0 / np.sqrt(var, out=var)
    x_hat *= inv_std
    d_gain = np.multiply(d_out, x_hat, out=prod).sum(axis=0)
    d_a = d_out * gain
    proj = np.multiply(d_a, x_hat, out=prod).mean(axis=1, keepdims=True)
    d_a -= d_a.mean(axis=1, keepdims=True)
    d_a -= np.multiply(x_hat, proj, out=prod)
    d_a *= inv_std
    return _check_finite(d_a, "layer_norm backward"), d_gain


# -- elementwise -----------------------------------------------------------


def _check_add_operands(a: np.ndarray, b_shape: tuple[int, ...], b_dtype=np.dtype(F32)) -> None:
    """:func:`add`'s checks of ``a`` against a ``b`` of ``b_shape`` and ``b_dtype``."""
    if a.shape != b_shape:
        raise ShapeError(f"add: a is {a.shape}, b is {b_shape}")
    if a.dtype != F32 or b_dtype != F32:
        raise ShapeError(f"add: operands must be float32, got {a.dtype} and {b_dtype}")


def add(a: np.ndarray, b: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Elementwise sum.  Counts: flops ``n*m``, read ``8*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    b = np.asarray(b)
    _check_add_operands(a, b.shape, b.dtype)
    count_elementwise(sink, "add", a.size, 2)
    return _check_finite(a + b, "add")


def scale(a: np.ndarray, factor: float, sink: CounterSink) -> np.ndarray:
    """Multiply by a scalar.  Counts: flops ``n*m``, read ``4*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    if a.dtype != F32:
        raise ShapeError(f"scale: a must be float32, got {a.dtype}")
    count_elementwise(sink, "scale", a.size, 1)
    return _check_finite(a * F32(factor), "scale")


def relu(a: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Elementwise max(x, 0).  Counts: flops ``n*m``, read ``4*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    if a.dtype != F32:
        raise ShapeError(f"relu: a must be float32, got {a.dtype}")
    count_elementwise(sink, "relu", a.size, 1)
    return np.maximum(a, F32(0.0))


def relu_backward(a: np.ndarray, d_out: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Backward of :func:`relu` at input or output ``a``: ``relu(x) > 0``
    exactly when ``x > 0`` (NaN included), so either selects the same lanes.

    Counts: flops ``n*m``, read ``8*n*m``, written ``4*n*m``.
    """
    a = np.asarray(a)
    d_out = np.asarray(d_out)
    if a.shape != d_out.shape:
        raise ShapeError(f"relu backward: a is {a.shape}, d_out is {d_out.shape}")
    if d_out.dtype != F32:
        raise ShapeError(f"relu backward: d_out must be float32, got {d_out.dtype}")
    count_elementwise(sink, "relu_backward", a.size, 2)
    # branch-free select: an all-ones int32 lane where a > 0 keeps d_out's
    # bits (NaN and -0.0 included), a zero lane gives +0.0
    keep = np.negative(a > 0, dtype=np.int32)
    keep &= d_out.view(np.int32)
    return keep.view(F32)


# -- table lookups ---------------------------------------------------------


def _row_indices(indices: np.ndarray, rows: int, kind: str) -> np.ndarray:
    """``indices`` checked to be 1-D and to name rows ``0 .. rows-1``."""
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ShapeError(f"{kind} indices must be 1-D, got shape {indices.shape}")
    if indices.size:
        lo, hi = np.minimum.reduce(indices), np.maximum.reduce(indices)
        if lo < 0 or hi >= rows:
            raise ShapeError(
                f"{kind} index out of range: table has {rows} rows, indices span [{lo}, {hi}]"
            )
    return indices


def gather_rows(table: np.ndarray, indices: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Select rows of ``table [V,d]`` by integer index (embedding lookup).

    Pure data movement: zero flops; reads and writes ``4 * len(indices) * d``
    bytes (index bytes are not counted).  No model code calls it (the
    embedding is :func:`embed_rows`); like :func:`bmm`, it stays only as a
    name ``perfbench``'s tracer patches.
    """
    table = _as_f32_matrix(table, "table", 2)
    indices = _row_indices(indices, table.shape[0], "gather")
    count_gather(sink, indices.size, table.shape[1])
    return table[indices]


def embed_rows(
    table: np.ndarray, ids: np.ndarray, factor: float, positions: np.ndarray, sink: CounterSink
) -> np.ndarray:
    """Embedding of an ``ids [S,p]`` block: ``table[ids] * factor + positions``
    as ``[S*p, d]`` rows, the ``positions [p,d]`` broadcast over the ``S`` rows
    of the block.

    Checked, counted and bit-identical as ``add(scale(gather_rows(table,
    ids.reshape(-1)), factor), positions tiled S times)`` would be: ids out
    of range, a ``table`` that is not 2-D float32 and ``positions`` that are
    not float32 ``[p,d]`` raise :class:`ShapeError` before anything is
    counted.  A non-finite output raises naming ``scale`` if the scaled
    rows are non-finite, else ``add``.
    """
    table = _as_f32_matrix(table, "table", 2)
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeError(f"embed ids must be a 2-D [S, p] block, got shape {ids.shape}")
    s, p = ids.shape
    d = table.shape[1]
    flat = _row_indices(ids.reshape(-1), table.shape[0], "gather")
    positions = np.asarray(positions)
    if positions.shape != (p, d) or positions.dtype != F32:
        raise ShapeError(
            f"embed positions must be float32 ({p}, {d}), got {positions.dtype} {positions.shape}"
        )
    count_gather(sink, s * p, d)
    count_elementwise(sink, "scale", s * p * d, 1)
    count_elementwise(sink, "add", s * p * d, 2)
    out = table[flat]
    out *= F32(factor)
    np.add(out.reshape(s, p, d), positions, out=out.reshape(s, p, d))
    # one check for both elementwise steps, as in the matmul epilogue: adding
    # positions keeps a non-finite scaled row non-finite, and only a failed
    # check recomputes the scaled rows
    if not _finite(out):
        raise _non_finite("scale" if not _finite(table[flat] * F32(factor)) else "add")
    return out


def scatter_add_rows(
    acc: np.ndarray, indices: np.ndarray, rows: np.ndarray, sink: CounterSink
) -> None:
    """Accumulate ``rows`` into ``acc`` at ``indices`` in place (embedding grad).

    ``indices`` must be 1-D and in ``[0, V)`` for ``acc [V,d]``, as for
    :func:`gather_rows`; a bad index raises :class:`ShapeError` before
    ``acc`` is touched or anything is counted.

    Counts: flops ``len(indices)*d``, bytes read ``8*len(indices)*d``,
    bytes written ``4*len(indices)*d``.
    """
    acc = _as_f32_matrix(acc, "acc", 2)
    rows = _as_f32_matrix(rows, "rows", 2)
    indices = _row_indices(indices, acc.shape[0], "scatter_add")
    if rows.shape != (indices.size, acc.shape[1]):
        raise ShapeError(
            f"scatter_add: rows is {rows.shape}, want ({indices.size}, {acc.shape[1]})"
        )
    count_elementwise(sink, "scatter_add", rows.size, 2)
    np.add.at(acc, indices, rows)
