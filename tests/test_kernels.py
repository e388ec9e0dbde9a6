"""Kernel contracts: numeric results and exact counter accounting."""

import math
import warnings
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprompt import kernels
from multiprompt.bench import traced_peak_bytes
from multiprompt.engines import Instance, Workload, infer
from multiprompt.errors import MaskError, ShapeError
from multiprompt.kernels import CounterSink
from multiprompt.model import N_RESERVED, sinusoid_table

F32 = np.float32


def naive_matmul(a, b):
    """Triple-loop oracle, accumulating in float64."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape).astype(F32)


# -- matmul ---------------------------------------------------------------


def test_matmul_identity():
    sink = CounterSink()
    eye = np.eye(2, dtype=F32)
    b = np.array([[5, 6], [7, 8]], dtype=F32)
    np.testing.assert_array_equal(kernels.matmul(eye, b, sink), b)


def test_matmul_hand_example_and_flops():
    sink = CounterSink()
    out = kernels.matmul(np.array([[1, 2]], dtype=F32), np.array([[3], [4]], dtype=F32), sink)
    np.testing.assert_array_equal(out, [[11]])
    assert sink.flops == 4  # 2 * 1 * 1 * 2


def test_matmul_flop_formula_4x8x8():
    sink = CounterSink()
    rng = np.random.default_rng(0)
    kernels.matmul(rand(rng, 4, 8), rand(rng, 8, 8), sink)
    assert sink.flops == 512  # 2 * 4 * 8 * 8


def test_matmul_shape_error_names_operands():
    with pytest.raises(ShapeError, match="2x3.*4x5"):
        kernels.matmul(np.zeros((2, 3), dtype=F32), np.zeros((4, 5), dtype=F32), CounterSink())


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 64),
    k=st.integers(1, 64),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_matmul_matches_triple_loop_oracle(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, m, k), rand(rng, k, n)
    sink = CounterSink()
    got = kernels.matmul(a, b, sink)
    want = naive_matmul(a, b)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    assert sink.flops == 2 * m * n * k
    assert sink.bytes_read == 4 * (m * k + k * n)
    assert sink.bytes_written == 4 * m * n


def test_bmm_equals_per_slice_matmul_and_counts():
    rng = np.random.default_rng(7)
    a, b = rand(rng, 5, 3, 4), rand(rng, 5, 4, 2)
    sink = CounterSink()
    got = kernels.bmm(a, b, sink)
    for i in range(5):
        ref_sink = CounterSink()
        np.testing.assert_allclose(got[i], kernels.matmul(a[i], b[i], ref_sink), rtol=1e-6)
    assert sink.flops == 5 * 2 * 3 * 2 * 4
    assert sink.bytes_read == 4 * 5 * (3 * 4 + 4 * 2)
    assert sink.bytes_written == 4 * 5 * 3 * 2


# -- softmax ---------------------------------------------------------------


def test_softmax_symmetric_zero_row():
    out = kernels.softmax_rows(np.array([[0.0, 0.0]], dtype=F32), CounterSink())
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_softmax_large_values_stabilized():
    out = kernels.softmax_rows(np.array([[1000.0, 1000.0]], dtype=F32), CounterSink())
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_softmax_closed_form_ln3():
    # softmax([0, ln 3]) = [1/4, 3/4]
    out = kernels.softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=F32), CounterSink())
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)


def test_softmax_empty_matrix():
    out = kernels.softmax_rows(np.zeros((0, 4), dtype=F32), CounterSink())
    assert out.shape == (0, 4)


def test_softmax_mask_zeroes_entries():
    a = np.array([[1.0, 2.0, 3.0]], dtype=F32)  # attention's masked softmax, in place
    kernels._softmax_in_place(a, np.array([[True, False, True]]))
    assert a[0, 1] == 0.0
    e = math.exp(1.0 - 3.0)
    np.testing.assert_allclose(a, [[e / (1 + e), 0.0, 1 / (1 + e)]], atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 16),
    scale=st.sampled_from([1.0, 10.0, 1e4]),
    seed=st.integers(0, 2**31),
)
def test_softmax_rows_are_probability_vectors(n, m, scale, seed):
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1, 1, size=(n, m)) * scale).astype(F32)
    sink = CounterSink()
    out = kernels.softmax_rows(a, sink)
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-6)
    assert sink.flops == 4 * n * m


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = rand(rng, 3, 5).astype(np.float64)
    d_out = rand(rng, 3, 5).astype(np.float64)

    def f(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p = f(a)
    got = kernels.softmax_rows_backward(p.astype(F32), d_out.astype(F32), CounterSink())
    eps = 1e-6
    num = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            up, dn = a.copy(), a.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            num[i, j] = ((f(up) - f(dn)) * d_out).sum() / (2 * eps)
    np.testing.assert_allclose(got, num, atol=1e-4)


# -- layer norm -------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = kernels.layer_norm(np.ones((1, 3), dtype=F32), np.ones(3, dtype=F32), CounterSink())
    np.testing.assert_allclose(out, [[0.0, 0.0, 0.0]], atol=1e-3)


def test_layer_norm_hand_example():
    out = kernels.layer_norm(np.array([[1.0, -1.0]], dtype=F32), np.ones(2, dtype=F32), CounterSink())
    np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_gain_length_mismatch():
    with pytest.raises(ShapeError, match="gain"):
        kernels.layer_norm(np.ones((2, 3), dtype=F32), np.ones(4, dtype=F32), CounterSink())


def row_means_within_float32_bound(a, out):
    """Whether each normalised row's mean is 0 up to float32 rounding.

    Centring a row of m values is off by about m·eps32·max|a| and the
    normalisation divides that by the row's std, so a near-constant row
    misses 0 by far more than well-conditioned rows do.
    """
    a64 = a.astype(np.float64)
    bound = a.shape[1] * np.finfo(F32).eps * np.abs(a64).max(axis=1) / a64.std(axis=1) + 1e-6
    return bool((np.abs(out.astype(np.float64).mean(axis=1)) <= bound).all())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(2, 32), seed=st.integers(0, 2**31))
@example(n=2, m=2, seed=458)  # rows [-2.459, -2.449]: mean 2.2e-5, over a fixed 1e-5
def test_layer_norm_row_statistics(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rand(rng, n, m) * 3.0
    sink = CounterSink()
    out = kernels.layer_norm(a, np.ones(m, dtype=F32), sink)
    assert row_means_within_float32_bound(a, out)
    # the stabilizing epsilon shrinks unit variance to var / (var + eps)
    expected_var = a.var(axis=1) / (a.var(axis=1) + kernels.LN_EPS)
    np.testing.assert_allclose(out.var(axis=1), expected_var, atol=1e-5)
    assert sink.flops == 6 * n * m


def test_row_mean_bound_rejects_a_mean_shifted_output():
    rng = np.random.default_rng(0)
    a = rand(rng, 4, 8) * 3.0
    out = kernels.layer_norm(a, np.ones(8, dtype=F32), CounterSink())
    assert row_means_within_float32_bound(a, out)
    # well-conditioned rows allow a few 1e-6; a shift the old atol=1e-5 let through fails
    assert not row_means_within_float32_bound(a, out + F32(5e-6))


def all_finite_layer_norm(a, gain, sink):
    """:func:`kernels.layer_norm` with its variance checked entry by entry,
    by ``np.isfinite(var).all()``."""
    m = a.shape[1]
    kernels.count_layer_norm(sink, *a.shape)
    mean = a.sum(axis=1, keepdims=True)
    mean /= m
    out = a - mean
    var = np.multiply(out, out).sum(axis=1, keepdims=True)
    var /= m
    if not np.isfinite(var).all():
        raise FloatingPointError("layer_norm row variance overflowed float32")
    var += kernels.LN_EPS
    out /= np.sqrt(var, out=var)
    out *= gain
    if out.size and not np.isfinite(out).all():
        raise FloatingPointError("layer_norm produced non-finite values")
    return out


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, np.nan, 2.0]],
        [[1.0, np.inf, 2.0]],
        [[1.0, -np.inf, 2.0]],
        [[1e20, -1e20, 0.0]],  # finite entries whose squares overflow
        [[-1e20, 3.0, 1e20], [1.0, 2.0, 3.0]],
        [[1.0, 2.0, 3.0], [np.nan, 0.0, 0.0], [1e20, -1e20, 0.0]],  # NaN before +inf
        [[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0]],  # +inf before NaN
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # zero variance, kept finite by the epsilon
        [[3e38, 3e38, 3e38]],
        np.zeros((0, 3)),  # no rows
        np.zeros((2, 0)),  # rows without columns: a 0/0 variance
    ],
    ids=[
        "nan", "inf", "negative_inf", "squares_overflow", "squares_overflow_first_row",
        "nan_then_overflow", "inf_then_nan", "all_zero_rows", "huge_constant_row", "zero_rows",
        "zero_columns",
    ],
)
def test_layer_norm_variance_check_agrees_with_the_entrywise_check(rows):
    # every variance is >= 0 or NaN, so one max over them is finite exactly
    # when every entry is; the max has no identity, and a block of no rows
    # returns its empty output as the entrywise check lets it
    a = np.array(rows, F32)
    gain = np.ones(a.shape[1], F32)
    got, counts = outcome(kernels.layer_norm, a, gain)
    want, want_counts = outcome(all_finite_layer_norm, a, gain)
    assert fingerprint(got) == fingerprint(want)
    assert counts == want_counts


def test_layer_norm_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    a64 = rng.uniform(-1, 1, size=(2, 6))
    gain64 = rng.uniform(0.5, 1.5, size=6)
    d_out64 = rng.uniform(-1, 1, size=(2, 6))

    def f(x, g):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + kernels.LN_EPS) * g

    d_a, d_gain = kernels.layer_norm_backward(
        a64.astype(F32), gain64.astype(F32), d_out64.astype(F32), CounterSink()
    )
    eps = 1e-6
    num_a = np.zeros_like(a64)
    for i in range(2):
        for j in range(6):
            up, dn = a64.copy(), a64.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            num_a[i, j] = ((f(up, gain64) - f(dn, gain64)) * d_out64).sum() / (2 * eps)
    num_g = np.zeros_like(gain64)
    for j in range(6):
        up, dn = gain64.copy(), gain64.copy()
        up[j] += eps
        dn[j] -= eps
        num_g[j] = ((f(a64, up) - f(a64, dn)) * d_out64).sum() / (2 * eps)
    np.testing.assert_allclose(d_a, num_a, atol=1e-4)
    np.testing.assert_allclose(d_gain, num_g, atol=1e-4)


# -- elementwise and lookups -------------------------------------------------


def test_add_and_counts():
    sink = CounterSink()
    out = kernels.add(np.ones((2, 3), dtype=F32), np.full((2, 3), 2.0, dtype=F32), sink)
    np.testing.assert_array_equal(out, np.full((2, 3), 3.0, dtype=F32))
    assert (sink.flops, sink.bytes_read, sink.bytes_written) == (6, 48, 24)


def test_relu_and_backward():
    sink = CounterSink()
    a = np.array([[-1.0, 2.0]], dtype=F32)
    np.testing.assert_array_equal(kernels.relu(a, sink), [[0.0, 2.0]])
    d = kernels.relu_backward(a, np.array([[5.0, 7.0]], dtype=F32), sink)
    np.testing.assert_array_equal(d, [[0.0, 7.0]])
    with pytest.raises(ShapeError, match="d_out must be float32"):
        kernels.relu_backward(a, np.array([[5.0, 7.0]]), sink)


def test_gather_and_scatter_roundtrip():
    sink = CounterSink()
    table = np.arange(12, dtype=F32).reshape(4, 3)
    rows = kernels.gather_rows(table, np.array([2, 0]), sink)
    np.testing.assert_array_equal(rows, table[[2, 0]])
    assert sink.flops == 0 and sink.bytes_read == 4 * 2 * 3
    acc = np.zeros((4, 3), dtype=F32)
    kernels.scatter_add_rows(acc, np.array([1, 1]), np.ones((2, 3), dtype=F32), sink)
    np.testing.assert_array_equal(acc[1], [2.0, 2.0, 2.0])


def test_gather_out_of_range():
    with pytest.raises(ShapeError, match="out of range"):
        kernels.gather_rows(np.zeros((2, 3), dtype=F32), np.array([5]), CounterSink())


@pytest.mark.parametrize("index", [-1, 4])
def test_scatter_add_out_of_range_touches_nothing(index):
    acc = np.arange(8, dtype=F32).reshape(4, 2)
    sink = CounterSink()
    with pytest.raises(ShapeError, match="out of range"):
        kernels.scatter_add_rows(acc, np.array([0, index]), np.ones((2, 2), F32), sink)
    assert np.array_equal(acc, np.arange(8, dtype=F32).reshape(4, 2))
    assert sink.kind_totals() == {}


# -- counter sink -------------------------------------------------------------


def test_scope_attribution_and_reset():
    sink = CounterSink()
    a = np.ones((2, 2), dtype=F32)
    with sink.scope("encoder_self"):
        kernels.matmul(a, a, sink)
    kernels.add(a, a, sink)  # top level -> "other"
    totals = sink.component_totals()
    assert totals["encoder_self"][0] == 16
    assert totals["other"][0] == 4
    assert sink.flops == 20
    # what was recorded after a snapshot, in a fresh sink
    snapshot = sink.kind_totals()
    assert sink.since(snapshot).component_totals() == {}
    with sink.scope("encoder_self"):
        kernels.add(a, a, sink)
    later = sink.since(snapshot)
    assert later.kind_totals() == {("encoder_self", "add"): (4, 32, 16)}
    assert sink.flops == 24


def test_scope_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown component"):
        with CounterSink().scope("not-a-component"):
            pass


def test_nested_scopes_restore_the_outer_label():
    sink = CounterSink()
    a = np.ones((1, 1), dtype=F32)
    with sink.scope("decoder_self") as entered:
        assert entered is sink
        with sink.scope("feed_forward"):
            kernels.add(a, a, sink)
        assert sink.current_component == "decoder_self"
        kernels.scale(a, 2.0, sink)
    assert sink.current_component == "other"
    kernels.relu(a, sink)
    assert list(sink.kind_totals()) == [
        ("feed_forward", "add"), ("decoder_self", "scale"), ("other", "relu"),
    ]


def test_scope_restores_the_label_when_the_block_raises():
    sink = CounterSink()
    with sink.scope("encoder_self"):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            with sink.scope("decoder_cross"):
                kernels.add(np.full((1, 1), F32(3e38)), np.full((1, 1), F32(3e38)), sink)
        assert sink.current_component == "encoder_self"
    assert sink.current_component == "other"


class WrappingSink(CounterSink):
    """Wraps ``super().scope`` in a generator context manager, as a timing sink does."""

    def __init__(self) -> None:
        super().__init__()
        self.opened = []

    @contextmanager
    def scope(self, component):
        with super().scope(component):
            self.opened.append(component)
            try:
                yield self
            finally:
                self.opened.pop()


class FirstCallSink(CounterSink):
    """Records each (component, kind) key the first time a kernel reports it."""

    def __init__(self) -> None:
        super().__init__()
        self.first_calls = []

    def add(self, kind, flops, bytes_read, bytes_written):
        key = (self.current_component, kind)
        if key not in self.first_calls:
            self.first_calls.append(key)
        super().add(kind, flops, bytes_read, bytes_written)


def small_run(engine, config, weights, sink):
    rng = np.random.default_rng(4)
    wl = Workload(
        instances=tuple(
            Instance(
                x=rng.integers(N_RESERVED, config.vocab_size, size=6),
                prompts=tuple(rng.integers(N_RESERVED, config.vocab_size, size=2) for _ in range(3)),
            )
            for _ in range(2)
        ),
        max_new_tokens=4,
    )
    return infer(engine, config, weights, wl, sink=sink)


@pytest.mark.parametrize("engine", ["pie", "pid"])
def test_wrapped_scope_attributes_counts_to_the_innermost_label(tiny_config, tiny_weights, engine):
    plain, wrapped = CounterSink(), WrappingSink()
    small_run(engine, tiny_config, tiny_weights, plain)
    small_run(engine, tiny_config, tiny_weights, wrapped)
    assert list(wrapped.kind_totals().items()) == list(plain.kind_totals().items())
    assert wrapped.opened == [] and wrapped.current_component == "other"
    with wrapped.scope("decoder_self"), wrapped.scope("decoder_cross"):
        kernels.relu(np.ones((1, 1), dtype=F32), wrapped)
    assert ("decoder_cross", "relu") in wrapped.kind_totals()
    assert ("decoder_self", "relu") not in wrapped.kind_totals()


@pytest.mark.parametrize("engine", ["pie", "pid"])
def test_kind_totals_keys_in_first_call_order(tiny_config, tiny_weights, engine):
    sink = FirstCallSink()
    small_run(engine, tiny_config, tiny_weights, sink)
    assert list(sink.kind_totals()) == sink.first_calls
    assert len(sink.first_calls) > 5


def test_counters_monotone_within_run():
    sink = CounterSink()
    a = np.ones((3, 3), dtype=F32)
    seen = []
    for _ in range(4):
        kernels.matmul(a, a, sink)
        seen.append((sink.flops, sink.bytes_read, sink.bytes_written))
    assert seen == sorted(seen)


# -- finite checks: negative controls -------------------------------------------

HUGE = F32(1e30)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: kernels.matmul(np.full((1, 1), HUGE), np.full((1, 1), HUGE), s),
         "matmul produced non-finite values"),
        (lambda s: kernels.bmm(np.full((2, 1, 1), HUGE), np.full((2, 1, 1), HUGE), s),
         "bmm produced non-finite values"),
        (lambda s: kernels.softmax_rows(np.array([[0.0, np.nan]], dtype=F32), s),
         "softmax produced non-finite values"),
        # a NaN score in a hidden lane still fails the score product's check
        (lambda s: kernels.attention(np.ones((1, 1, 1), F32), np.array([[[0.0, np.nan]]], F32),
                                     np.ones((1, 2, 1), F32), s, np.array([[True, False]])),
         "bmm produced non-finite values"),
        (lambda s: kernels.layer_norm(
            np.array([[1.0, np.inf, 2.0]], dtype=F32), np.ones(3, dtype=F32), s),
         "layer_norm row variance overflowed float32"),
        (lambda s: kernels.layer_norm(
            np.array([[0.0, 1e30], [1.0, 2.0]], dtype=F32), np.ones(2, dtype=F32), s),
         "layer_norm row variance overflowed float32"),
        (lambda s: kernels.layer_norm(
            np.array([[0.0, 1.0]], dtype=F32), np.array([np.inf, 1.0], dtype=F32), s),
         "layer_norm produced non-finite values"),
        (lambda s: kernels.add(np.full((2, 2), F32(3e38)), np.full((2, 2), F32(3e38)), s),
         "add produced non-finite values"),
        (lambda s: kernels.scale(np.full((2, 2), HUGE), 1e10, s),
         "scale produced non-finite values"),
    ],
    ids=[
        "matmul", "bmm", "softmax_nan", "attention_nan_in_hidden_lane", "layer_norm_inf_row",
        "layer_norm_variance_overflow", "layer_norm_inf_gain", "add", "scale",
    ],
)
def test_finite_checks_raise(call, message):
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            call(CounterSink())


#: the squares of ±3e38 and ±2e19 overflow float32, so the sum-of-squares
#: check overflows on finite entries and must fall back to the entrywise check
FINITE_SALTS = (np.nan, np.inf, -np.inf, 3e38, -3e38, 2e19, -2e19)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 5), max_size=3).map(tuple),
    layout=st.sampled_from(["C", "F", "strided", "transposed"]),
    salts=st.lists(st.tuples(st.integers(0, 124), st.sampled_from(FINITE_SALTS)), max_size=4),
    seed=st.integers(0, 2**31),
)
@example(shape=(3,), layout="C", salts=[(1, 2e19)], seed=0)
@example(shape=(2, 2), layout="F", salts=[(0, np.nan)], seed=0)
def test_finite_check_equals_numpys_definition(shape, layout, salts, seed):
    # the fused kernels and their unfused compositions share this check, so
    # the "raises like" tests cannot catch a wrong one; pin it to NumPy here
    rng = np.random.default_rng(seed)
    base = rng.standard_normal([2 * n for n in shape] if layout == "strided" else shape).astype(F32)
    x = {
        "C": base,
        "F": np.asfortranarray(base),
        "strided": base[(..., *[slice(None, None, 2)] * base.ndim)],
        "transposed": base.T,
    }[layout]
    for pos, value in salts:
        if x.size:
            x.flat[pos % x.size] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself may raise no RuntimeWarning
        assert kernels._finite(x) == bool(np.isfinite(x).all())


def test_softmax_masked_nan_in_hidden_lane_is_inert():
    # a hidden lane never reaches the exponent, so its NaN cannot leak
    a = np.array([[0.0, np.nan, math.log(3.0)]], dtype=F32)
    sums = kernels._softmax_in_place(a, np.array([[True, False, True]]))
    assert kernels._finite(sums)
    np.testing.assert_allclose(a, [[0.25, 0.0, 0.75]], atol=1e-6)


# -- in-place kernels equal the textbook formulas bit for bit ----------------------


def textbook_softmax(a, mask=None):
    if mask is None:
        e = np.exp(a - a.max(axis=1, keepdims=True))
    else:
        row_max = np.where(mask, a, -np.inf).max(axis=1, keepdims=True)
        e = np.exp(np.where(mask, a - row_max, -np.inf)).astype(F32)
    return (e / e.sum(axis=1, keepdims=True)).astype(F32)


def textbook_layer_norm(a, gain):
    mu = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    return (((a - mu) / np.sqrt(var + kernels.LN_EPS)).astype(F32) * gain).astype(F32)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 70),
    magnitude=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    seed=st.integers(0, 2**31),
)
def test_kernels_bit_identical_to_textbook_formulas(n, m, magnitude, seed):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, m)) * magnitude + rng.standard_normal((n, 1))).astype(F32)
    gain = rng.uniform(0.5, 1.5, size=m).astype(F32)
    mask = rng.random((n, m)) < 0.7
    mask[np.arange(n), rng.integers(0, m, size=n)] = True  # every row keeps a visible lane
    factor = float(rng.uniform(0.01, 3.0))
    sink = CounterSink()
    assert np.array_equal(kernels.softmax_rows(a, sink), textbook_softmax(a))
    masked = a.copy()  # attention's masked softmax, in place on its scores
    kernels._softmax_in_place(masked, mask)
    assert np.array_equal(masked, textbook_softmax(a, mask))
    assert np.array_equal(kernels.layer_norm(a, gain, sink), textbook_layer_norm(a, gain))
    assert np.array_equal(kernels.scale(a, factor, sink), (a * F32(factor)).astype(F32))
    for out in (kernels.softmax_rows(a, sink), kernels.layer_norm(a, gain, sink)):
        assert out.dtype == F32


SALTS = (np.nan, np.inf, -np.inf, 3e38, -3e38)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 9),
    salts=st.lists(st.tuples(st.integers(0, 53), st.sampled_from(SALTS)), max_size=4),
    masked=st.booleans(),
    seed=st.integers(0, 2**31),
)
@example(n=1, m=2, salts=[(1, -3e38), (0, 3e38)], masked=False, seed=0)
@example(n=2, m=3, salts=[(1, np.nan)], masked=True, seed=1)
def test_softmax_row_sum_check_equals_full_check(n, m, salts, masked, seed):
    # the [n, 1] row sums the in-place softmax returns, which softmax_rows
    # checks, must flag exactly the inputs whose textbook softmax has a
    # non-finite entry anywhere, with or without a mask
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m)).astype(F32)
    for pos, value in salts:
        a.flat[pos % a.size] = value
    mask = None
    if masked:
        mask = rng.random((n, m)) < 0.6
        mask[np.arange(n), rng.integers(0, m, size=n)] = True
    out = a.copy()
    with np.errstate(all="ignore"):
        expected = textbook_softmax(a, mask)
        sums = kernels._softmax_in_place(out, mask)
    finite = bool(np.isfinite(expected).all())
    assert kernels._finite(sums) == finite
    assert np.array_equal(out, expected) or not finite
    if mask is None:  # softmax_rows raises on exactly these inputs
        got, _ = outcome(kernels.softmax_rows, a)
        error = (FloatingPointError, "softmax produced non-finite values")
        assert fingerprint(got) == fingerprint(expected if finite else error)


# -- backward kernels equal the textbook formulas bit for bit ------------------------


def textbook_relu_backward(a, d_out):
    return np.where(a > 0, d_out, F32(0.0)).astype(F32)


def textbook_softmax_backward(probs, d_probs):
    inner = (d_probs * probs).sum(axis=1, keepdims=True)
    return (probs * (d_probs - inner)).astype(F32)


def textbook_layer_norm_backward(a, gain, d_out):
    mu = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + kernels.LN_EPS)
    x_hat = (a - mu) * inv_std
    d_gain = (d_out * x_hat).sum(axis=0).astype(F32)
    d_hat = d_out * gain
    d_a = inv_std * (
        d_hat - d_hat.mean(axis=1, keepdims=True) - x_hat * (d_hat * x_hat).mean(axis=1, keepdims=True)
    )
    return d_a.astype(F32), d_gain


#: NaNs with the sign bit and a payload set, besides the usual specials
ODD_NANS = tuple(np.array([0xFFC00000, 0x7FC00001, 0x7F800001], dtype=np.uint32).view(F32))
RELU_SALTS = (np.nan, np.inf, -np.inf, -0.0, 0.0, *ODD_NANS)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (3, 5), (4, 7), (2, 3, 4), (0, 3)]),
    a_salts=st.lists(st.tuples(st.integers(0, 83), st.sampled_from(RELU_SALTS)), max_size=6),
    d_salts=st.lists(st.tuples(st.integers(0, 83), st.sampled_from(RELU_SALTS)), max_size=6),
    transposed=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_relu_backward_byte_equal_to_where_formula(shape, a_salts, d_salts, transposed, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape).astype(F32)
    d_out = rng.standard_normal(shape[::-1] if transposed else shape).astype(F32)
    for arr, salts in ((a, a_salts), (d_out, d_salts)):
        for pos, value in salts:
            if arr.size:
                arr.flat[pos % arr.size] = value
    if transposed:
        d_out = d_out.T  # a strided view, as a transposed gradient would be
    want = textbook_relu_backward(a, d_out)
    # relu(x) > 0 exactly when x > 0, so the kernel may mask on its output
    for at in (a, kernels.relu(a, CounterSink())):
        assert fingerprint(kernels.relu_backward(at, d_out, CounterSink())) == fingerprint(want)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 70),
    magnitude=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    seed=st.integers(0, 2**31),
)
def test_backward_kernels_bit_identical_to_textbook_formulas(n, m, magnitude, seed):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, m)) * magnitude + rng.standard_normal((n, 1))).astype(F32)
    gain = rng.uniform(0.5, 1.5, size=m).astype(F32)
    d_out = (rng.standard_normal((n, m)) * magnitude).astype(F32)
    sink = CounterSink()
    probs = kernels.softmax_rows(a, sink)
    got = kernels.softmax_rows_backward(probs, d_out, sink)
    want = textbook_softmax_backward(probs, d_out)
    assert got.dtype == want.dtype == F32 and np.array_equal(got, want)
    got_a, got_gain = kernels.layer_norm_backward(a, gain, d_out, sink)
    want_a, want_gain = textbook_layer_norm_backward(a, gain, d_out)
    for got, want in ((got_a, want_a), (got_gain, want_gain)):
        assert got.dtype == want.dtype == F32 and got.shape == want.shape
        assert np.array_equal(got, want)


# -- fused kernels equal their unfused compositions ----------------------------------
#
# One table, a row per fused kernel: its unfused composition in plain NumPy,
# which records every constituent's counts through the ``count_*`` helpers up
# front, as the fused kernels do, then computes and checks each constituent
# in order; an operand strategy with pinned examples; and error cases, each
# an exact (type, message).  Two generic tests run every row.


class Case(NamedTuple):
    """One call, and the score bytes an attention chunk holds (None: the module's)."""

    operands: tuple
    options: dict
    budget: int | None = None


def chunk_bytes(slices_per_chunk, slice_bytes):
    """A budget of ``slices_per_chunk`` slices (0 is below one slice), or None."""
    return None if slices_per_chunk is None else slices_per_chunk * slice_bytes


def outcome(kernel, *operands, budget=None, **options):
    """``kernel(*operands, sink, **options)``, under an attention chunk
    ``budget`` if given, as (result or (exception type, message), per-kind
    counts in insertion order)."""
    sink = CounterSink()
    try:
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as monkeypatch:
            if budget is not None:
                monkeypatch.setattr(kernels, "ATTENTION_CHUNK_BYTES", budget)
            result = kernel(*operands, sink, **options)
    except (FloatingPointError, MaskError, ShapeError) as exc:
        result = (type(exc), str(exc))
    return result, list(sink.kind_totals().items())


def fingerprint(result):
    """An :func:`outcome` error as it is; each result array as (dtype, shape, bytes)."""
    if isinstance(result, tuple) and isinstance(result[0], type):
        return result
    arrays = result if isinstance(result, tuple) else [result]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def finite(x, kind):
    """``x``, or the error a kernel raises when ``kind`` produced a non-finite entry."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"{kind} produced non-finite values")
    return x


def unfused_probs(q4, k4, mask_rows):
    """``q4 @ k4``, then a row softmax with the ``[r, m]`` mask tiled over the slices."""
    probs = finite(q4 @ k4, "bmm")
    if probs.size:
        mask = None if mask_rows is None else np.tile(mask_rows, (q4.shape[0], 1))
        probs = textbook_softmax(probs.reshape(-1, k4.shape[2]), mask).reshape(probs.shape)
    # finite scores keep every probability in [0, 1]: the softmax needs no check
    return probs


def unfused_attention(q4, k4, v4, sink, mask_rows=None):
    """:func:`unfused_probs`, then ``@ v4``."""
    (slices, r, dh), m = q4.shape, k4.shape[2]
    kernels.count_attention(sink, slices, r, dh, m, v4.shape[2], mask_rows is not None)
    return finite(unfused_probs(q4, k4, mask_rows) @ v4, "bmm")


def unfused_attention_backward(q4, k4, v4, mask_rows, d_ctx, sink):
    """:func:`unfused_probs`, ``d_probs = d_ctx @ v4ᵀ``, ``d_v4 = probsᵀ @ d_ctx``, the
    softmax backward on the ``[B*r, m]`` rows, ``d_q4 = d_scores @ k4ᵀ`` and ``d_k4 =
    d_scoresᵀ @ q4``, where ``ᵀ`` swaps the last two axes."""
    slices, r, dv = d_ctx.shape
    m = k4.shape[2]
    kernels.count_matmul(sink, r, q4.shape[2], m, slices)
    kernels.count_softmax(sink, slices * r, m, mask_rows is not None)
    kernels.count_matmul(sink, r, dv, m, slices)
    kernels.count_matmul(sink, m, r, dv, slices)
    kernels.count_softmax_backward(sink, slices * r, m)
    kernels.count_matmul(sink, r, m, k4.shape[1], slices)
    kernels.count_matmul(sink, m, r, q4.shape[2], slices)
    probs = unfused_probs(q4, k4, mask_rows)
    d_probs = finite(d_ctx @ v4.transpose(0, 2, 1), "bmm")
    d_v4 = finite(probs.transpose(0, 2, 1) @ d_ctx, "bmm")
    flat = (slices * r, m)
    d_scores = textbook_softmax_backward(probs.reshape(flat), d_probs.reshape(flat))
    d_scores = finite(d_scores, "softmax backward").reshape(probs.shape)
    d_q4 = finite(d_scores @ k4.transpose(0, 2, 1), "bmm")
    return d_q4, finite(d_scores.transpose(0, 2, 1) @ q4, "bmm"), d_v4


def unfused_matmul(a, b, sink, scale=None, residual=None):
    """``a @ b``, then ``* F32(scale)`` or ``residual +``."""
    (m, k), n = a.shape, b.shape[1]
    kernels.count_matmul(sink, m, k, n)
    if scale is not None:
        kernels.count_elementwise(sink, "scale", m * n, 1)
        return finite(finite(a @ b, "matmul") * F32(scale), "scale")
    kernels.count_elementwise(sink, "add", m * n, 2)
    return finite(residual + finite(a @ b, "matmul"), "add")


def unfused_embed(table, ids, factor, positions, sink):
    """``table[ids] * factor`` as rows, plus the position rows tiled over the block."""
    (s, p), d = ids.shape, table.shape[1]
    kernels.count_gather(sink, s * p, d)
    kernels.count_elementwise(sink, "scale", s * p * d, 1)
    kernels.count_elementwise(sink, "add", s * p * d, 2)
    scaled = finite(table[ids.reshape(-1)] * F32(factor), "scale")
    return finite(scaled + np.tile(positions, (s, 1)), "add")


# -- operand strategies: a case from drawn sizes and a seed --------------------------


def attention_case(slices, r, m, dh, masked, chunk, seed):
    rng = np.random.default_rng(seed)
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    k4 = rand(rng, slices, m, dh).transpose(0, 2, 1)  # keys stored transposed, read as a view
    v4 = rand(rng, slices, m, dh)
    mask_rows = None
    if masked:
        mask_rows = rng.random((r, m)) < 0.5
        if m:
            mask_rows[np.arange(r), rng.integers(0, m, size=r)] = True
    return Case((q4, k4, v4), {"mask_rows": mask_rows}, chunk_bytes(chunk, 4 * r * m))


def backward_case(slices, r, m, dh, dv, masked, chunk, seed):
    rng = np.random.default_rng(seed)
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    k4 = rand(rng, slices, m, dh).transpose(0, 2, 1)
    v4 = rand(rng, slices, m, dv)
    # causal: masked probabilities are exact zeros
    mask_rows = np.tri(r, m, dtype=bool) if masked and r and m else None
    d_ctx = rand(rng, slices, r, dv)
    return Case((q4, k4, v4, mask_rows, d_ctx), {}, chunk_bytes(chunk, 8 * r * m))


def matmul_case(m, k, n, epilogue, salts, transposed, seed):
    rng = np.random.default_rng(seed)
    # uniform operands; strided transposed views when asked
    arrays = {
        name: rand(rng, *shape[::-1]).T if transposed else rand(rng, *shape)
        for name, shape in (("a", (m, k)), ("b", (k, n)), ("r", (m, n)))
    }
    for name, pos, value in salts:
        arr = arrays[name]
        if arr.size:
            arr[np.unravel_index(pos % arr.size, arr.shape)] = value
    kind, factor = epilogue
    options = {"scale": factor} if kind == "scale" else {"residual": arrays["r"]}
    return Case((arrays["a"], arrays["b"]), options)


def embed_case(s, p, start, d, seed):
    rng = np.random.default_rng(seed)
    table = rand(rng, 11, d)
    ids = rng.integers(0, 11, size=(s, p))
    return Case((table, ids, math.sqrt(d), sinusoid_table(start + p, d)[start:]), {})


CHUNKS = st.sampled_from([None, 0, 1, 2, 3])  # slices per chunk
SEEDS = st.integers(0, 2**31)


# -- error cases ---------------------------------------------------------------------


def salted(shape, at, value, fill=1.0):
    """A float32 array of ``fill`` with ``value`` at index ``at``."""
    a = np.full(shape, fill, F32)
    a[at] = value
    return a


def attention_error(id, error, q4, k4, v4, mask_rows=None, chunk=None):
    budget = chunk_bytes(chunk, 4 * q4.shape[1] * k4.shape[2])
    return pytest.param(Case((q4, k4, v4), {"mask_rows": mask_rows}, budget), error, id=id)


ONES = np.ones((3, 1, 1), F32)
ONES_K = np.ones((3, 1, 2), F32)
ONES_V = np.ones((3, 2, 1), F32)
Q2, K2, V2 = np.ones((2, 2, 1), F32), np.ones((2, 1, 3), F32), np.ones((2, 3, 1), F32)
HIDDEN = np.array([[False, False]])  # every score row hidden
BMM = (FloatingPointError, "bmm produced non-finite values")
HIDDEN_ROW_0 = (MaskError, "softmax row 0 has no visible entries")
V4_MISMATCH = (ShapeError, "bmm: a is 3x1x2, b is 3x3x1 (batch or inner mismatch)")

ATTENTION_ERRORS = [
    attention_error("score_overflow", BMM, np.full((2, 1, 1), HUGE), np.full((2, 1, 3), HUGE), V2),
    attention_error("score_negative_overflow", BMM,
                    np.full((2, 1, 1), HUGE), np.full((2, 1, 3), -HUGE), V2),
    attention_error("nan_in_v4", BMM,
                    np.ones((2, 1, 1), F32), K2, np.full((2, 3, 1), np.nan, F32)),
    attention_error("masked_row_without_lane", (MaskError, "softmax row 1 has no visible entries"),
                    Q2, K2, V2, np.array([[True, False, True], [False, False, False]])),
    # one slice per chunk: the context product fails in the first chunk,
    # before the score product fails in the last
    attention_error("chunked_nan_in_first_v4_inf_in_last_q4", BMM,
                    salted((3, 1, 1), 2, np.inf), ONES_K, salted((3, 2, 1), 0, np.nan), chunk=1),
    # a validation fault is raised before any chunk is computed
    attention_error("chunked_hidden_row_inf_in_last_q4", HIDDEN_ROW_0,
                    salted((3, 1, 1), 2, np.inf), ONES_K, ONES_V, HIDDEN, 1),
    attention_error("chunked_nan_in_first_v4_hidden_row", HIDDEN_ROW_0,
                    ONES, ONES_K, salted((3, 2, 1), 0, np.nan), HIDDEN, 1),
    attention_error("chunked_nan_in_last_v4", BMM,
                    ONES, ONES_K, salted((3, 2, 1), 2, np.nan), chunk=1),
    attention_error("chunked_float64_v4_inf_in_last_q4", (ShapeError, "v4 must be float32, got float64"),
                    salted((3, 1, 1), 2, np.inf), ONES_K, np.ones((3, 2, 1)), chunk=1),
    attention_error("chunked_v4_mismatch_hidden_row", V4_MISMATCH,
                    ONES, ONES_K, np.ones((3, 3, 1), F32), HIDDEN, 1),
    attention_error("chunked_v4_mismatch", V4_MISMATCH, ONES, ONES_K, np.ones((3, 3, 1), F32), chunk=1),
    # the mask is one slice's [r, m]: not a row for r = 2 rows, not two slices' rows
    attention_error("mask_of_one_row",
                    (ShapeError, "attention mask must be bool (2, 3), got bool (1, 3)"),
                    Q2, K2, V2, np.ones((1, 3), bool)),
    attention_error("mask_of_two_slices",
                    (ShapeError, "attention mask must be bool (2, 3), got bool (4, 3)"),
                    Q2, K2, V2, np.ones((4, 3), bool)),
    attention_error("float_mask",
                    (ShapeError, "attention mask must be bool (2, 3), got float64 (2, 3)"),
                    Q2, K2, V2, np.ones((2, 3))),
]


def backward_error(id, error, **salts):
    """Three one-slice chunks of all-ones backward operands (``r=1``, ``m=2``,
    ``dh=dv=1``, no mask), with ``salts`` replacing whole operands."""
    operands = dict(q4=ONES, k4=ONES_K, v4=ONES_V, mask_rows=None, d_ctx=ONES)
    operands.update(salts)
    return pytest.param(Case(tuple(operands.values()), {}, chunk_bytes(1, 8 * 1 * 2)), error, id=id)


# only the softmax backward overflows, on the last slice: there the keys [0, -200] give
# P = [1, 0] (exp(-200) is 0 in float32) and dP = d_ctx @ v4ᵀ is [3e38, -3e38], so
# dP - rowsum(dP * P) = [0, -inf] and the hidden lane's -inf * 0 is NaN
OVERFLOW = dict(
    k4=np.array([[[1.0, 1.0]], [[1.0, 1.0]], [[0.0, -200.0]]], F32),
    v4=np.array([[[3e19], [3e19]], [[3e19], [3e19]], [[3e19], [-3e19]]], F32),
    d_ctx=np.full((3, 1, 1), 1e19, F32),
)
NAN_Q4, NAN_K4 = salted((3, 1, 1), 0, np.nan), salted((3, 1, 2), 0, np.nan)  # in the first chunk

ATTENTION_BACKWARD_ERRORS = [
    backward_error("nan_in_last_v4_nan_in_first_k4", BMM, v4=salted((3, 2, 1), 2, np.nan), k4=NAN_K4),
    backward_error("nan_in_first_d_ctx", BMM, d_ctx=salted((3, 1, 1), 0, np.nan)),
    backward_error("softmax_overflow_in_last",
                   (FloatingPointError, "softmax backward produced non-finite values"), **OVERFLOW),
    # the recomputed score product fails in the first chunk, before the
    # softmax backward fails in the last: the first failure found wins
    backward_error("softmax_overflow_in_last_nan_in_first_k4", BMM,
                   **dict(OVERFLOW, k4=np.concatenate([NAN_K4[:1], OVERFLOW["k4"][1:]]))),
    backward_error("nan_in_last_k4_nan_in_first_q4", BMM, k4=salted((3, 1, 2), 2, np.nan), q4=NAN_Q4),
    backward_error("inf_in_last_q4", BMM, q4=salted((3, 1, 1), 2, np.inf)),
    # the forward's mask checks, made before any chunk is computed
    backward_error("float_mask_nan_in_first_q4",
                   (ShapeError, "attention mask must be bool (1, 2), got float64 (1, 2)"),
                   mask_rows=np.ones((1, 2)), q4=NAN_Q4),
    backward_error("mask_of_two_rows", (ShapeError, "attention mask must be bool (1, 2), got bool (2, 2)"),
                   mask_rows=np.ones((2, 2), bool)),
    backward_error("hidden_row_nan_in_first_q4", HIDDEN_ROW_0, mask_rows=HIDDEN, q4=NAN_Q4),
    backward_error("two_d_v4", (ShapeError, "v4 must be 3-D, got shape (3, 2)"), v4=np.ones((3, 2), F32)),
    backward_error("k4_mismatch_nan_in_first_q4",
                   (ShapeError, "bmm: a is 3x1x1, b is 2x1x2 (batch or inner mismatch)"),
                   k4=np.ones((2, 1, 2), F32), q4=NAN_Q4),
    backward_error("q4_mismatch", (ShapeError, "bmm: a is 3x2x2, b is 3x1x1 (batch or inner mismatch)"),
                   q4=np.ones((3, 2, 1), F32)),
    # every backward product fits; only the forward's q4 @ k4 does not
    backward_error("head_width_mismatch",
                   (ShapeError, "bmm: a is 2x3x2, b is 2x3x4 (batch or inner mismatch)"),
                   q4=np.ones((2, 3, 2), F32), k4=np.ones((2, 3, 4), F32), v4=np.ones((2, 4, 1), F32),
                   d_ctx=np.ones((2, 3, 1), F32)),
]


def matmul_error(id, error, a, b, **options):
    return pytest.param(Case((a, b), options), error, id=id)


PRODUCT = (FloatingPointError, "matmul produced non-finite values")
ADD = (FloatingPointError, "add produced non-finite values")
RESIDUAL_SHAPE = (ShapeError, "add: a is (2, 1), b is (2, 2)")
A, B = np.ones((2, 1), F32), np.ones((1, 2), F32)

MATMUL_ERRORS = [
    matmul_error("product_overflow_scale", PRODUCT,
                 np.full((1, 2), HUGE), np.full((2, 1), HUGE), scale=0.5),
    matmul_error("product_overflow_residual", PRODUCT,
                 np.full((1, 2), HUGE), np.full((2, 1), -HUGE), residual=np.ones((1, 1), F32)),
    matmul_error("scale_overflow", (FloatingPointError, "scale produced non-finite values"),
                 np.full((2, 1), HUGE), B, scale=1e10),
    matmul_error("add_overflow", ADD,
                 np.full((2, 1), F32(3e38)), B, residual=np.full((2, 2), F32(3e38))),
    matmul_error("nan_residual", ADD, A, B, residual=np.array([[0.0, np.nan], [0.0, 0.0]], F32)),
    matmul_error("residual_shape", RESIDUAL_SHAPE, A, B, residual=np.ones((2, 1), F32)),
    matmul_error("residual_dtype",
                 (ShapeError, "add: operands must be float32, got float64 and float32"),
                 A, B, residual=np.ones((2, 2))),
    # the residual is validated before the product is computed
    matmul_error("product_overflow_before_residual_shape", RESIDUAL_SHAPE,
                 np.full((2, 1), HUGE), np.full((1, 2), HUGE), residual=np.ones((2, 1), F32)),
]


EMBED_TABLE = np.arange(12, dtype=F32).reshape(4, 3)
EMBED_POSITIONS = np.ones((2, 3), F32)


def embed_error(id, error, table, ids, positions=EMBED_POSITIONS):
    # the factor 4 (sqrt(16)) takes 8e37 to 3.2e38, still finite, and 1e38
    # past float32's max of 3.4e38
    return pytest.param(Case((table, np.array(ids), 4.0, positions), {}), error, id=id)


SCALE = (FloatingPointError, "scale produced non-finite values")

EMBED_ERRORS = [
    embed_error("id_equal_to_vocab",
                (ShapeError, "gather index out of range: table has 4 rows, indices span [0, 4]"),
                EMBED_TABLE, [[0, 4]]),
    embed_error("negative_id",
                (ShapeError, "gather index out of range: table has 4 rows, indices span [-1, 2]"),
                EMBED_TABLE, [[-1, 2], [1, 0]]),
    embed_error("position_rows",
                (ShapeError, "embed positions must be float32 (2, 3), got float32 (3, 3)"),
                EMBED_TABLE, [[0, 1]], np.ones((3, 3), F32)),
    embed_error("float64_positions",
                (ShapeError, "embed positions must be float32 (2, 3), got float64 (2, 3)"),
                EMBED_TABLE, [[0, 1]], np.ones((2, 3))),
    embed_error("float64_table", (ShapeError, "table must be float32, got float64"),
                EMBED_TABLE.astype(np.float64), [[0, 1]]),
    # non-finite outputs, with every constituent's counts recorded
    embed_error("scale_overflow", SCALE, salted((4, 3), (2, 1), 1e38, fill=0.0), [[0, 2]]),
    embed_error("nan_table_entry", SCALE, salted((4, 3), (2, 1), np.nan, fill=0.0), [[2, 0], [0, 0]]),
    embed_error("add_overflow", ADD, salted((4, 3), (1, 0), 8e37, fill=0.0), [[0, 1]],
                salted((2, 3), (1, 0), 3e38, fill=0.0)),
    embed_error("inf_position", ADD, EMBED_TABLE, [[0, 1]], salted((2, 3), (0, 2), np.inf)),
]


# -- the table and its two generic tests ---------------------------------------------


class Fused(NamedTuple):
    kernel: object
    composition: object
    cases: st.SearchStrategy
    examples: tuple
    errors: list
    max_examples: int


FUSED = {
    "attention": Fused(
        kernels.attention, unfused_attention,
        st.builds(attention_case, st.integers(0, 7), st.integers(0, 6), st.integers(0, 9),
                  st.integers(1, 8), st.booleans(), CHUNKS, SEEDS),
        (  # slices, r, m, dh, masked, chunk, seed
            attention_case(2, 3, 0, 2, True, None, 0), attention_case(2, 2, 5, 3, True, None, 3),
            attention_case(0, 3, 4, 2, False, None, 0), attention_case(4, 3, 3, 2, False, 4, 5),
            # 4 and 3 chunks, the last partial; one slice per chunk, by budget or over it
            attention_case(7, 2, 5, 3, True, 2, 1), attention_case(5, 3, 4, 2, False, 2, 2),
            attention_case(6, 2, 4, 2, True, 1, 4), attention_case(3, 2, 4, 2, True, 0, 8),
            attention_case(4, 0, 3, 2, False, 1, 6), attention_case(4, 3, 0, 2, True, 1, 7),  # empty
        ),
        ATTENTION_ERRORS, 80,
    ),
    "backward": Fused(
        kernels.attention_backward, unfused_attention_backward,
        st.builds(backward_case, st.integers(0, 7), st.integers(0, 6), st.integers(0, 9),
                  st.integers(1, 8), st.integers(1, 8), st.booleans(), CHUNKS, SEEDS),
        (  # slices, r, m, dh, dv, masked, chunk, seed
            # 4, 2 and 3 chunks; a slice over the budget; empty r*m
            backward_case(7, 2, 5, 3, 2, True, 2, 1), backward_case(5, 3, 4, 2, 3, False, 3, 2),
            backward_case(3, 3, 4, 2, 2, False, 1, 3), backward_case(3, 2, 4, 2, 2, True, 0, 7),
            backward_case(4, 0, 3, 2, 2, False, 1, 4), backward_case(4, 3, 0, 2, 2, False, 1, 5),
            # no slices; with no score bytes either, the chunk step must still be 1
            backward_case(0, 3, 4, 2, 2, False, None, 6), backward_case(0, 0, 3, 2, 2, False, None, 8),
        ),
        ATTENTION_BACKWARD_ERRORS, 80,
    ),
    "matmul": Fused(
        kernels.matmul, unfused_matmul,
        st.builds(
            matmul_case, st.integers(0, 5), st.integers(0, 6), st.integers(0, 5),
            st.sampled_from([("scale", 0.125), ("scale", 1 / math.sqrt(3)), ("scale", 1e10),
                             ("scale", 0.0), ("residual", None)]),
            st.lists(st.tuples(st.sampled_from("abr"), st.integers(0, 35), st.sampled_from(SALTS)),
                     max_size=4),
            st.booleans(), SEEDS,
        ),
        (  # m, k, n, epilogue, salts, transposed, seed
            matmul_case(1, 1, 1, ("scale", 1e10), [("a", 0, 3e38)], False, 0),
            matmul_case(2, 1, 2, ("residual", None), [("r", 3, 3e38), ("a", 1, 3e38)], True, 1),
            matmul_case(2, 0, 3, ("residual", None), [("r", 0, np.nan)], False, 2),
        ),
        MATMUL_ERRORS, 120,
    ),
    "embed_rows": Fused(
        kernels.embed_rows, unfused_embed,
        st.builds(embed_case, st.integers(1, 5), st.integers(1, 6), st.integers(0, 6),
                  st.integers(1, 8), SEEDS),
        (  # s, p, start, d, seed
            embed_case(1, 1, 0, 4, 0),  # a decode step of one stream
            embed_case(3, 1, 5, 4, 1),  # a decode step of three streams
            embed_case(2, 4, 3, 6, 2),  # a prefill past the first position
        ),
        EMBED_ERRORS, 60,
    ),
}


def equals_its_composition(row):
    """On every case the kernel's outputs (bits, dtype, shape) or error,
    and its ``kind_totals()``, equal the composition's."""

    @settings(max_examples=row.max_examples, deadline=None)
    @given(case=row.cases)
    def test(case):
        got, counts = outcome(row.kernel, *case.operands, budget=case.budget, **case.options)
        want, want_counts = outcome(row.composition, *case.operands, **case.options)
        assert fingerprint(got) == fingerprint(want)
        assert counts == want_counts

    for case in row.examples:
        test = example(case=case)(test)
    return test


def raises_like_its_composition(row):
    """Each error case raises its (type, message) with the composition's
    sink state: empty for a validation fault, and for a non-finite output
    the full counts of a composition that fails too."""

    @pytest.mark.parametrize("case, error", row.errors)
    def test(case, error):
        got, counts = outcome(row.kernel, *case.operands, budget=case.budget, **case.options)
        assert got == error
        if error[0] is FloatingPointError:
            want, want_counts = outcome(row.composition, *case.operands, **case.options)
            assert want[0] is FloatingPointError
            assert counts == want_counts
        else:
            assert counts == []

    return test


# each row under the names its hand-written test pair had, so the test ids stay
test_attention_bit_identical_to_three_kernels = equals_its_composition(FUSED["attention"])
test_attention_raises_like_three_kernels = raises_like_its_composition(FUSED["attention"])
test_attention_backward_bit_identical_to_five_kernels = equals_its_composition(FUSED["backward"])
test_attention_backward_raises_like_five_kernels = raises_like_its_composition(FUSED["backward"])
test_matmul_epilogue_bit_identical_to_two_kernels = equals_its_composition(FUSED["matmul"])
test_matmul_epilogue_raises_like_two_kernels = raises_like_its_composition(FUSED["matmul"])
test_embed_rows_bit_identical_to_three_kernels = equals_its_composition(FUSED["embed_rows"])
test_embed_rows_raises_like_three_kernels = raises_like_its_composition(FUSED["embed_rows"])


# -- the attention kernels' chunks ---------------------------------------------------


#: operand values from zero through float32's extremes to the non-finite
EXTREMES = np.array([0, 1, -1, 3e38, -3e38, 1e19, -1e19, 1e-45, np.inf, -np.inf, np.nan], F32)


@pytest.mark.parametrize("masked", [False, True])
def test_attention_softmax_cannot_fail_once_scores_are_finite(masked):
    # finite scores give every row a finite max, so every probability lies
    # in [0, 1] and every row sum is finite: operands that pass attention's
    # checks give the score product's error or finite probabilities
    rng = np.random.default_rng(17 + masked)
    returned = 0
    for _ in range(2000):
        slices, r, m, dh = (int(x) for x in rng.integers(1, 4, size=4))
        shapes = ((slices, r, dh), (slices, dh, m), (slices, m, dh))
        q4, k4, v4 = (rng.choice(EXTREMES, size=shape) for shape in shapes)
        mask_rows = rng.random((r, m)) < 0.7 if masked else None
        try:
            q4, k4, _, mask_rows = kernels._attention_operands(q4, k4, v4, mask_rows)
            with np.errstate(all="ignore"):
                probs = kernels._probs_into(q4, k4, mask_rows, None)
        except (ShapeError, MaskError):
            continue
        except FloatingPointError as exc:
            assert str(exc) == "bmm produced non-finite values"
            continue
        assert np.isfinite(probs).all()
        returned += 1
    assert returned >= 20


@pytest.mark.parametrize(
    "slices, r, m, nq, chunk, chunks, backward_chunks",
    [
        (7, 2, 5, None, 2, 4, 4),  # the last chunk partial
        (5, 3, 4, None, 2, 3, 3),
        (6, 2, 4, 2, 1, 6, 6),  # masked, one slice per chunk
        (7, 2, 5, 2, 3, 3, 3),
        (4, 3, 3, None, 4, 1, 1),
        (4, 3, 3, None, None, 1, 1),  # the module's budget
        (4, 0, 3, None, 1, 1, 1),  # empty r*m: one chunk
        (4, 3, 0, 3, 1, 1, 1),
        (64, 197, 197, None, None, 11, 22),  # pie's encoder on shared-input
        (4, 192, 192, None, None, 1, 2),  # pid's encoder on shared-input
        (8, 128, 128, None, None, 1, 1),  # pid's encoder on long-decode
    ],
)
def test_attention_kernels_make_one_pass_per_chunk(
    slices, r, m, nq, chunk, chunks, backward_chunks, monkeypatch
):
    # each chunk runs every product once: 2 in the forward, 5 in the backward
    # (the recomputed scores, then 4), whose chunks hold 2 score-shaped arrays
    # per slice; a masked row (nq = r) chunks as an unmasked one
    rng = np.random.default_rng(0)
    q4, k4, v4 = rand(rng, slices, r, 4), rand(rng, slices, 4, m), rand(rng, slices, m, 4)
    mask_rows = None if nq is None else np.ones((nq, m), bool)
    products = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        products.append(args[0].shape[0])
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    ctx, _ = outcome(kernels.attention, q4, k4, v4, mask_rows=mask_rows, budget=chunk_bytes(chunk, 4 * r * m))
    assert len(products) == 2 * chunks and sum(products) == 2 * slices
    products.clear()
    outcome(kernels.attention_backward, q4, k4, v4, mask_rows, ctx, budget=chunk_bytes(chunk, 8 * r * m))
    assert len(products) == 5 * backward_chunks and sum(products) == 5 * slices


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("slices, r, chunk", [(8, 1, 1), (8, 1, 3), (6, 3, 2), (4, 4, 1)])
def test_attention_one_chunk_path_equals_the_chunk_loop(slices, r, chunk, masked, monkeypatch):
    # keys and values are strided views of head-major caches, read up to the
    # filled length as the decoder's self-attention reads them; with the
    # module's budget one chunk holds every slice and the products write into
    # no ``out=`` buffer, with a smaller one the loop writes each chunk into
    # its buffers
    rng = np.random.default_rng(slices * r + chunk)
    dh, capacity, end = 4, 12, 9
    k4 = rand(rng, slices, dh, capacity)[:, :, :end]
    v4 = rand(rng, slices, capacity, dh)[:, :end]
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    mask_rows = np.tri(r, end, end - r, dtype=bool) if masked else None
    outs = []
    matmul = np.matmul

    def recorded(*args, **kwargs):
        outs.append(kwargs.get("out") is not None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    whole, whole_counts = outcome(kernels.attention, q4, k4, v4, mask_rows=mask_rows)
    assert outs == [False, False]
    outs.clear()
    looped, loop_counts = outcome(
        kernels.attention, q4, k4, v4, mask_rows=mask_rows, budget=chunk_bytes(chunk, 4 * r * end)
    )
    assert outs == [True, True] * -(-slices // chunk)
    assert fingerprint(whole) == fingerprint(looped)
    assert whole_counts == loop_counts


# -- what an attention call holds --------------------------------------------------

#: 64 slices of [64, 64] scores, 1 MiB in all, run in chunks of 2 slices
PEAK_SLICES, PEAK_ROWS, PEAK_DH = 64, 64, 16
PEAK_SCORE_BYTES = 4 * PEAK_SLICES * PEAK_ROWS * PEAK_ROWS
PEAK_CHUNK_BYTES = PEAK_SCORE_BYTES // PEAK_SLICES * 2
#: what a call holds besides its score buffer and ``ctx``: NumPy's ufunc
#: buffers (8,192 elements), the chunk's row maxima and sums, the inverted mask
PEAK_SLACK = 64 << 10


def attention_peak(masked, budget, monkeypatch):
    """The ``tracemalloc`` peak of one attention call in chunks of ``budget`` bytes, above its operands."""
    rng = np.random.default_rng(3)
    q4 = rand(rng, PEAK_SLICES, PEAK_ROWS, PEAK_DH)
    k4 = rand(rng, PEAK_SLICES, PEAK_ROWS, PEAK_DH).transpose(0, 2, 1)
    v4 = rand(rng, PEAK_SLICES, PEAK_ROWS, PEAK_DH)
    mask_rows = np.tri(PEAK_ROWS, dtype=bool) if masked else None
    monkeypatch.setattr(kernels, "ATTENTION_CHUNK_BYTES", budget)
    sink = CounterSink()
    return traced_peak_bytes(lambda: kernels.attention(q4, k4, v4, sink, mask_rows))


@pytest.mark.parametrize("masked", [False, True])
def test_attention_holds_no_more_than_its_chunk_budget_of_scores(masked, monkeypatch):
    ctx_bytes = 4 * PEAK_SLICES * PEAK_ROWS * PEAK_DH
    held = attention_peak(masked, PEAK_CHUNK_BYTES, monkeypatch)
    assert held <= PEAK_CHUNK_BYTES + ctx_bytes + PEAK_SLACK, held


@pytest.mark.parametrize("masked", [False, True])
def test_attention_in_one_chunk_of_every_slice_holds_every_score(masked, monkeypatch):
    # the negative control: in one chunk of every slice the call keeps every
    # probability at once, the whole [B, r, m] scores, so the gate can fail
    held = attention_peak(masked, PEAK_SCORE_BYTES, monkeypatch)
    assert held > PEAK_SCORE_BYTES, held


def test_matmul_takes_one_epilogue():
    ones = np.ones((1, 1), F32)
    with pytest.raises(ValueError, match="not both"):
        kernels.matmul(ones, ones, CounterSink(), scale=2.0, residual=ones)


def test_embed_rows_takes_a_two_d_block():
    sink = CounterSink()
    with pytest.raises(ShapeError, match=r"2-D \[S, p\] block"):
        kernels.embed_rows(EMBED_TABLE, np.array([0, 1]), 1.0, EMBED_POSITIONS, sink)
    assert sink.kind_totals() == {}
