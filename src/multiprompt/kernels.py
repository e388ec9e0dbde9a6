"""Dense float32 kernels with exact operation and memory-traffic accounting.

Every kernel takes a :class:`CounterSink` and reports two things about the
call: arithmetic operations ("flops") and memory traffic in bytes.  The
counts are closed-form functions of the operand shapes, so tests can assert
them exactly.

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
* A fused kernel records each constituent's counts exactly as the separate
  calls would, in the same order: :func:`attention` reports what
  :func:`bmm`, :func:`softmax_rows` and :func:`bmm` would.  Fusion changes
  what is allocated and re-read on the host, never the counted traffic.
"""

from __future__ import annotations

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


class CounterSink:
    """Accumulates flop and byte counts for one run.

    A sink is owned by exactly one logical run; concurrent runs must use
    separate sinks.  Counts are integers, monotone non-decreasing while the
    run executes, and may be reset to zero only between runs.

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

    def component_totals(self) -> dict[str, tuple[int, int, int]]:
        """(flops, bytes_read, bytes_written) per component label."""
        totals: dict[str, tuple[int, int, int]] = {}
        for (label, _), (f, br, bw) in self._kinds.items():
            f0, br0, bw0 = totals.get(label, (0, 0, 0))
            totals[label] = (f0 + f, br0 + br, bw0 + bw)
        return totals

    def kind_totals(self) -> dict[tuple[str, str], tuple[int, int, int]]:
        """Subtotals keyed by (component, kernel kind)."""
        return {k: (v[0], v[1], v[2]) for k, v in self._kinds.items()}

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

    def reset(self) -> None:
        """Zero all counters.  Only legal between runs."""
        self._kinds.clear()


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


def _as_f32_matrix(a: np.ndarray, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {a.shape}")
    if a.dtype != F32:
        raise ShapeError(f"{name} must be float32, got {a.dtype}")
    return a


def _check_finite(out: np.ndarray, kind: str) -> np.ndarray:
    if out.size and not np.isfinite(out).all():
        raise FloatingPointError(f"{kind} produced non-finite values")
    return out


# -- matrix multiply ------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Product of ``a [m,k]`` and ``b [k,n]``.

    Counts: flops ``2*m*n*k``, bytes read ``4*(m*k + k*n)``, bytes written
    ``4*m*n``.
    """
    a = _as_f32_matrix(a, "a", 2)
    b = _as_f32_matrix(b, "b", 2)
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise ShapeError(f"matmul: a is {m}x{k}, b is {kb}x{n} (inner dimensions {k} != {kb})")
    sink.add("matmul", 2 * m * n * k, 4 * (m * k + k * n), 4 * m * n)
    return _check_finite(a @ b, "matmul")


def bmm(a: np.ndarray, b: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Batched product of ``a [B,m,k]`` and ``b [B,k,n]``.

    Equivalent to ``B`` independent :func:`matmul` calls and counted
    identically: each slice's operands are read once.  A shared operand
    must therefore be passed as a single slice (smaller ``B``) to be
    counted once; materializing copies costs the copies.
    """
    a = _as_f32_matrix(a, "a", 3)
    b = _as_f32_matrix(b, "b", 3)
    ba, m, k = a.shape
    bb, kb, n = b.shape
    if ba != bb or k != kb:
        raise ShapeError(f"bmm: a is {ba}x{m}x{k}, b is {bb}x{kb}x{n} (batch or inner mismatch)")
    sink.add("matmul", 2 * ba * m * n * k, 4 * ba * (m * k + k * n), 4 * ba * m * n)
    return _check_finite(a @ b, "bmm")


# fused kernels call the body bound here, so a wrapper installed on the
# module attribute ``bmm`` sees only direct calls
_bmm = bmm


# -- softmax ---------------------------------------------------------------


def _add_softmax(sink: CounterSink, n: int, m: int, masked: bool) -> None:
    sink.add("softmax", 4 * n * m, 4 * n * m + (n * m if masked else 0), 4 * n * m)


def _softmax_in_place(flat: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Row softmax of a non-empty ``flat [n,m]``, written over ``flat``.

    ``mask`` is None or a bool ``[nq,m]`` applied to every run of ``nq``
    rows (``nq`` divides ``n``); it is broadcast, never tiled.
    """
    if mask is not None:
        visible = mask.any(axis=1)
        if not visible.all():
            raise MaskError(f"softmax row {int(np.flatnonzero(~visible)[0])} has no visible entries")
        # hidden lanes may exceed the visible row max and would overflow;
        # at -inf they neither set the max nor survive the exponent
        np.copyto(flat.reshape(-1, *mask.shape), -np.inf, where=~mask)
    flat -= flat.max(axis=1, keepdims=True)
    np.exp(flat, out=flat)
    sums = flat.sum(axis=1, keepdims=True)
    flat /= sums
    # every lane is exp(x - rowmax), in [0, 1] or NaN, and the max lane is
    # 1, so a row sum is finite exactly when every output in its row is
    _check_finite(sums, "softmax")
    return flat


def softmax_rows(a: np.ndarray, sink: CounterSink, mask: np.ndarray | None = None) -> np.ndarray:
    """Row softmax of ``a [n,m]``, numerically stabilized by row-max subtraction.

    ``mask`` is an optional boolean ``[n,m]`` array; masked-out (False)
    entries receive exactly zero weight.  A row with no visible entries
    raises :class:`MaskError`.  Empty input returns an empty matrix.

    Counts: flops ``4*n*m`` (subtract, exp, accumulate, divide), bytes read
    ``4*n*m`` plus ``n*m`` for the mask, bytes written ``4*n*m``.
    """
    a = _as_f32_matrix(a, "a", 2)
    n, m = a.shape
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != a.shape or mask.dtype != np.bool_:
            raise ShapeError(f"softmax mask must be bool {a.shape}, got {mask.dtype} {mask.shape}")
    _add_softmax(sink, n, m, mask is not None)
    if a.size == 0:
        return a.copy()
    # one float32 temporary, in the input's memory order
    return _softmax_in_place(a.copy(order="K"), mask)


def attention(
    q4: np.ndarray,
    k4: np.ndarray,
    v4: np.ndarray,
    sink: CounterSink,
    mask_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention core ``softmax(q4 @ k4) @ v4`` per slice; returns ``(probs, ctx)``.

    ``q4`` is ``[B,r,dh]``, ``k4`` ``[B,dh,m]`` and ``v4`` ``[B,m,dh]``;
    ``probs`` is ``[B,r,m]`` and ``ctx`` ``[B,r,dh]``.  ``mask_rows`` is an
    optional bool ``[nq,m]`` mask applied to every run of ``nq`` of the
    ``B*r`` score rows.  The softmax runs in place on the score buffer,
    which becomes ``probs``, and the mask is broadcast rather than tiled.

    Counts, checks and exceptions are those of ``bmm(q4, k4)``, then
    :func:`softmax_rows` on the ``[B*r, m]`` scores with the tiled
    ``[B*r, m]`` mask, then ``bmm(probs, v4)``.
    """
    scores = _bmm(q4, k4, sink)
    slices, rows, m = scores.shape
    n = slices * rows
    if mask_rows is not None:
        mask_rows = np.asarray(mask_rows)
        nq = mask_rows.shape[0] if mask_rows.ndim == 2 else 0
        if mask_rows.dtype != np.bool_ or mask_rows.shape != (nq, m) or not nq or n % nq:
            raise ShapeError(
                f"attention mask must be bool [nq, {m}] with nq dividing {n} rows, "
                f"got {mask_rows.dtype} {mask_rows.shape}"
            )
    _add_softmax(sink, n, m, mask_rows is not None)
    if scores.size:
        _softmax_in_place(scores.reshape(n, m), mask_rows)
    return scores, _bmm(scores, v4, sink)


def softmax_rows_backward(
    probs: np.ndarray, d_probs: np.ndarray, sink: CounterSink
) -> np.ndarray:
    """Backward of :func:`softmax_rows` given its output ``probs``.

    ``dS = P * (dP - rowsum(dP * P))``.  Masked entries have ``P == 0`` and
    receive zero gradient automatically.

    Counts: flops ``4*n*m``, bytes read ``8*n*m``, bytes written ``4*n*m``.
    """
    probs = _as_f32_matrix(probs, "probs", 2)
    d_probs = _as_f32_matrix(d_probs, "d_probs", 2)
    if probs.shape != d_probs.shape:
        raise ShapeError(f"softmax backward: probs is {probs.shape}, d_probs is {d_probs.shape}")
    n, m = probs.shape
    sink.add("softmax_backward", 4 * n * m, 8 * n * m, 4 * n * m)
    inner = (d_probs * probs).sum(axis=1, keepdims=True)
    return _check_finite(probs * (d_probs - inner), "softmax backward")


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
    sink.add("layer_norm", 6 * n * m, 4 * (n * m + m), 4 * n * m)
    with np.errstate(over="ignore"):
        # the centred rows serve the variance and then become the output
        mean = a.sum(axis=1, keepdims=True)
        mean /= m
        out = a - mean
        var = np.multiply(out, out).sum(axis=1, keepdims=True)
        var /= m
    if not np.isfinite(var).all():
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
    sink.add("layer_norm_backward", 12 * n * m, 4 * (2 * n * m + m), 4 * (n * m + m))
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


def add(a: np.ndarray, b: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Elementwise sum.  Counts: flops ``n*m``, read ``8*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: a is {a.shape}, b is {b.shape}")
    if a.dtype != F32 or b.dtype != F32:
        raise ShapeError(f"add: operands must be float32, got {a.dtype} and {b.dtype}")
    size = a.size
    sink.add("add", size, 8 * size, 4 * size)
    return _check_finite(a + b, "add")


def scale(a: np.ndarray, factor: float, sink: CounterSink) -> np.ndarray:
    """Multiply by a scalar.  Counts: flops ``n*m``, read ``4*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    if a.dtype != F32:
        raise ShapeError(f"scale: a must be float32, got {a.dtype}")
    size = a.size
    sink.add("scale", size, 4 * size, 4 * size)
    return _check_finite(a * F32(factor), "scale")


def relu(a: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Elementwise max(x, 0).  Counts: flops ``n*m``, read ``4*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    if a.dtype != F32:
        raise ShapeError(f"relu: a must be float32, got {a.dtype}")
    size = a.size
    sink.add("relu", size, 4 * size, 4 * size)
    return np.maximum(a, F32(0.0))


def relu_backward(a: np.ndarray, d_out: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Backward of :func:`relu`.  Counts: flops ``n*m``, read ``8*n*m``, written ``4*n*m``."""
    a = np.asarray(a)
    d_out = np.asarray(d_out)
    if a.shape != d_out.shape:
        raise ShapeError(f"relu backward: a is {a.shape}, d_out is {d_out.shape}")
    if d_out.dtype != F32:
        raise ShapeError(f"relu backward: d_out must be float32, got {d_out.dtype}")
    size = a.size
    sink.add("relu_backward", size, 8 * size, 4 * size)
    # branch-free select: an all-ones int32 lane where a > 0 keeps d_out's
    # bits (NaN and -0.0 included), a zero lane gives +0.0
    keep = np.negative(a > 0, dtype=np.int32)
    keep &= d_out.view(np.int32)
    return keep.view(F32)


# -- table lookups ---------------------------------------------------------


def gather_rows(table: np.ndarray, indices: np.ndarray, sink: CounterSink) -> np.ndarray:
    """Select rows of ``table [V,d]`` by integer index (embedding lookup).

    Pure data movement: zero flops; reads and writes ``4 * len(indices) * d``
    bytes (index bytes are not counted).
    """
    table = _as_f32_matrix(table, "table", 2)
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ShapeError(f"gather indices must be 1-D, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise ShapeError(
            f"gather index out of range: table has {table.shape[0]} rows, "
            f"indices span [{indices.min()}, {indices.max()}]"
        )
    nbytes = 4 * indices.size * table.shape[1]
    sink.add("gather", 0, nbytes, nbytes)
    return table[indices]


def scatter_add_rows(
    acc: np.ndarray, indices: np.ndarray, rows: np.ndarray, sink: CounterSink
) -> None:
    """Accumulate ``rows`` into ``acc`` at ``indices`` in place (embedding grad).

    Counts: flops ``len(indices)*d``, bytes read ``8*len(indices)*d``,
    bytes written ``4*len(indices)*d``.
    """
    acc = _as_f32_matrix(acc, "acc", 2)
    rows = _as_f32_matrix(rows, "rows", 2)
    indices = np.asarray(indices)
    if rows.shape != (indices.size, acc.shape[1]):
        raise ShapeError(
            f"scatter_add: rows is {rows.shape}, want ({indices.size}, {acc.shape[1]})"
        )
    size = rows.size
    sink.add("scatter_add", size, 8 * size, 4 * size)
    np.add.at(acc, indices, rows)
