"""Kernel contracts: numeric results and exact counter accounting."""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprompt import kernels
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
    a = np.array([[1.0, 2.0, 3.0]], dtype=F32)
    mask = np.array([[True, False, True]])
    out = kernels.softmax_rows(a, CounterSink(), mask=mask)
    assert out[0, 1] == 0.0
    e = math.exp(1.0 - 3.0)
    np.testing.assert_allclose(out, [[e / (1 + e), 0.0, 1 / (1 + e)]], atol=1e-6)


def test_softmax_fully_masked_row_raises():
    a = np.zeros((2, 3), dtype=F32)
    mask = np.array([[True, True, True], [False, False, False]])
    sink = CounterSink()
    with pytest.raises(MaskError, match="row 1"):
        kernels.softmax_rows(a, sink, mask=mask)
    assert sink.kind_totals() == {}  # a mask fault is found before counting


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
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
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
        (lambda s: kernels.softmax_rows(
            np.array([[0.0, np.nan]], dtype=F32), s, mask=np.array([[True, True]])),
         "softmax produced non-finite values"),
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
        "matmul", "bmm", "softmax_nan", "softmax_masked_nan", "layer_norm_inf_row",
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
    out = kernels.softmax_rows(a, CounterSink(), mask=np.array([[True, False, True]]))
    np.testing.assert_allclose(out, [[0.25, 0.0, 0.75]], atol=1e-6)


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
    assert np.array_equal(kernels.softmax_rows(a, sink, mask=mask), textbook_softmax(a, mask))
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
    # the kernel checks the [n, 1] row sums; that must flag exactly the
    # inputs whose textbook softmax has a non-finite entry anywhere
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m)).astype(F32)
    for pos, value in salts:
        a.flat[pos % a.size] = value
    mask = None
    if masked:
        mask = rng.random((n, m)) < 0.6
        mask[np.arange(n), rng.integers(0, m, size=n)] = True
    with np.errstate(all="ignore"):
        expected = textbook_softmax(a, mask)
        if np.isfinite(expected).all():
            assert np.array_equal(kernels.softmax_rows(a, CounterSink(), mask=mask), expected)
        else:
            with pytest.raises(FloatingPointError, match="^softmax produced non-finite values$"):
                kernels.softmax_rows(a, CounterSink(), mask=mask)


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
        got = kernels.relu_backward(at, d_out, CounterSink())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


# -- fused attention equals bmm -> softmax_rows -> bmm -------------------------------


def three_kernel_attention(q4, k4, v4, sink, mask_rows=None):
    scores = kernels.bmm(q4, k4, sink)
    slices, rows, m = scores.shape
    flat = scores.reshape(slices * rows, m)
    mask = None if mask_rows is None else np.tile(mask_rows, (flat.shape[0] // len(mask_rows), 1))
    probs = kernels.softmax_rows(flat, sink, mask=mask).reshape(slices, rows, m)
    return probs, kernels.bmm(probs, v4, sink)


def outcome(kernel, *operands, **options):
    """``kernel(*operands, sink, **options)`` as (result or (exception type,
    message), per-kind counts in insertion order)."""
    sink = CounterSink()
    try:
        with np.errstate(all="ignore"):
            result = kernel(*operands, sink, **options)
    except (FloatingPointError, MaskError, ShapeError) as exc:
        result = (type(exc), str(exc))
    return result, list(sink.kind_totals().items())


def chunk_budget(monkeypatch, slices_per_chunk, slice_bytes):
    """Set ``kernels.ATTENTION_CHUNK_BYTES`` to hold ``slices_per_chunk``
    slices of ``slice_bytes`` score bytes each; None keeps the module's."""
    if slices_per_chunk is not None:
        monkeypatch.setattr(kernels, "ATTENTION_CHUNK_BYTES", slices_per_chunk * slice_bytes)


@settings(max_examples=80, deadline=None)
@given(
    slices=st.integers(0, 7),
    r=st.integers(0, 6),
    m=st.integers(0, 9),
    dh=st.integers(1, 8),
    runs=st.sampled_from([None, 1, 2, 3]),
    chunk=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**31),
)
@example(slices=2, r=3, m=0, dh=2, runs=3, chunk=None, seed=0)
@example(slices=2, r=2, m=5, dh=3, runs=2, chunk=None, seed=3)
@example(slices=0, r=3, m=4, dh=2, runs=None, chunk=None, seed=0)
@example(slices=7, r=2, m=5, dh=3, runs=7, chunk=2, seed=1)  # masked, 4 chunks, last partial
@example(slices=5, r=3, m=4, dh=2, runs=None, chunk=2, seed=2)  # 3 chunks, last partial
@example(slices=6, r=2, m=4, dh=2, runs=2, chunk=1, seed=4)  # a mask run spans 3 slices
@example(slices=4, r=3, m=3, dh=2, runs=None, chunk=4, seed=5)  # one full chunk
@example(slices=4, r=0, m=3, dh=2, runs=None, chunk=1, seed=6)  # empty r*m
@example(slices=4, r=3, m=0, dh=2, runs=1, chunk=1, seed=7)
def test_attention_bit_identical_to_three_kernels(slices, r, m, dh, runs, chunk, seed):
    rng = np.random.default_rng(seed)
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    k4 = rand(rng, slices, m, dh).transpose(0, 2, 1)  # keys stored transposed, read as a view
    v4 = rand(rng, slices, m, dh)
    mask_rows = None
    n = slices * r
    if runs is not None and n % runs == 0:
        nq = max(n // runs, 1)
        mask_rows = rng.random((nq, m)) < 0.5
        if m:
            mask_rows[np.arange(nq), rng.integers(0, m, size=nq)] = True
    with pytest.MonkeyPatch.context() as monkeypatch:
        chunk_budget(monkeypatch, chunk, 4 * r * m)
        (probs, ctx), counts = outcome(kernels.attention, q4, k4, v4, mask_rows=mask_rows)
    (ref_probs, ref_ctx), ref_counts = outcome(
        three_kernel_attention, q4, k4, v4, mask_rows=mask_rows
    )
    for got, want in ((probs, ref_probs), (ctx, ref_ctx)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert counts == ref_counts


def salted(shape, at, value, fill=1.0):
    """A float32 array of ``fill`` with ``value`` at index ``at``."""
    a = np.full(shape, fill, F32)
    a[at] = value
    return a


def zeroed(x):
    """A float32 array's zeros of the same shape, which no kernel finds
    non-finite; anything else (a mask, a scale factor) as it is."""
    return np.zeros_like(x) if isinstance(x, np.ndarray) and x.dtype == F32 else x


def assert_fails_fast(kernel, reference, error, *operands, **options):
    """``kernel`` raises ``error`` where its unfused ``reference`` raises,
    and fails fast: a validation fault (shape, dtype, mask) before anything
    is counted, a non-finite output with every constituent's counts
    recorded, as ``reference`` records them on finite operands of the same
    shapes."""
    # ValueError covers ShapeError, MaskError and NumPy's own shape errors
    with np.errstate(all="ignore"), pytest.raises((FloatingPointError, ValueError)):
        reference(*operands, CounterSink(), **options)
    got, counts = outcome(kernel, *operands, **options)
    assert got == error
    if error[0] is FloatingPointError:
        sink = CounterSink()
        reference(*map(zeroed, operands), sink, **{k: zeroed(v) for k, v in options.items()})
        assert counts == list(sink.kind_totals().items())
    else:
        assert counts == []


ONES = np.ones((3, 1, 1), F32)
ONES_K = np.ones((3, 1, 2), F32)
ONES_V = np.ones((3, 2, 1), F32)
HIDDEN = np.array([[False, False]])  # every score row hidden


@pytest.mark.parametrize(
    "args, chunk, error",
    [
        ((np.full((2, 1, 1), HUGE), np.full((2, 1, 3), HUGE), np.ones((2, 3, 1), F32), None),
         None, (FloatingPointError, "bmm produced non-finite values")),
        ((np.full((2, 1, 1), HUGE), np.full((2, 1, 3), -HUGE), np.ones((2, 3, 1), F32), None),
         None, (FloatingPointError, "bmm produced non-finite values")),
        ((np.ones((2, 1, 1), F32), np.ones((2, 1, 3), F32), np.full((2, 3, 1), np.nan, F32), None),
         None, (FloatingPointError, "bmm produced non-finite values")),
        ((np.ones((2, 2, 1), F32), np.ones((2, 1, 3), F32), np.ones((2, 3, 1), F32),
          np.array([[True, False, True], [False, False, False]])),
         None, (MaskError, "softmax row 1 has no visible entries")),
        # one slice per chunk: the context product fails in the first
        # chunk, before the score product fails in the last
        ((salted((3, 1, 1), 2, np.inf), ONES_K, salted((3, 2, 1), 0, np.nan), None),
         1, (FloatingPointError, "bmm produced non-finite values")),
        # a validation fault is raised before any chunk is computed
        ((salted((3, 1, 1), 2, np.inf), ONES_K, ONES_V, HIDDEN),
         1, (MaskError, "softmax row 0 has no visible entries")),
        ((ONES, ONES_K, salted((3, 2, 1), 0, np.nan), HIDDEN),
         1, (MaskError, "softmax row 0 has no visible entries")),
        ((ONES, ONES_K, salted((3, 2, 1), 2, np.nan), None),
         1, (FloatingPointError, "bmm produced non-finite values")),
        ((salted((3, 1, 1), 2, np.inf), ONES_K, np.ones((3, 2, 1)), None),
         1, (ShapeError, "v4 must be float32, got float64")),
        ((ONES, ONES_K, np.ones((3, 3, 1), F32), HIDDEN),
         1, (ShapeError, "bmm: a is 3x1x2, b is 3x3x1 (batch or inner mismatch)")),
        ((ONES, ONES_K, np.ones((3, 3, 1), F32), None),
         1, (ShapeError, "bmm: a is 3x1x2, b is 3x3x1 (batch or inner mismatch)")),
    ],
    ids=[
        "score_overflow", "score_negative_overflow", "nan_in_v4", "masked_row_without_lane",
        "chunked_nan_in_first_v4_inf_in_last_q4", "chunked_hidden_row_inf_in_last_q4",
        "chunked_nan_in_first_v4_hidden_row", "chunked_nan_in_last_v4",
        "chunked_float64_v4_inf_in_last_q4", "chunked_v4_mismatch_hidden_row",
        "chunked_v4_mismatch",
    ],
)
def test_attention_raises_like_three_kernels(args, chunk, error, monkeypatch):
    *operands, mask_rows = args
    q4, k4, _ = operands
    chunk_budget(monkeypatch, chunk, 4 * q4.shape[1] * k4.shape[2])
    assert_fails_fast(
        kernels.attention, three_kernel_attention, error, *operands, mask_rows=mask_rows
    )


#: operand values from zero through float32's extremes to the non-finite
EXTREMES = np.array([0, 1, -1, 3e38, -3e38, 1e19, -1e19, 1e-45, np.inf, -np.inf, np.nan], F32)


@pytest.mark.parametrize("masked", [False, True])
def test_attention_softmax_cannot_fail_once_scores_are_finite(masked):
    # finite scores give every row a finite max, so every probability lies
    # in [0, 1] and every row sum is finite: attention raises a validation
    # error or a product's error, or returns finite probabilities
    rng = np.random.default_rng(17 + masked)
    returned = 0
    for _ in range(2000):
        slices, r, m, dh = (int(x) for x in rng.integers(1, 4, size=4))
        shapes = ((slices, r, dh), (slices, dh, m), (slices, m, dh))
        q4, k4, v4 = (rng.choice(EXTREMES, size=shape) for shape in shapes)
        mask_rows = rng.random((r, m)) < 0.7 if masked else None
        try:
            with np.errstate(all="ignore"):
                probs, _ = kernels.attention(q4, k4, v4, CounterSink(), mask_rows)
        except (ShapeError, MaskError):
            continue
        except FloatingPointError as exc:
            assert str(exc) == "bmm produced non-finite values"
            continue
        assert np.isfinite(probs).all()
        returned += 1
    assert returned >= 20


# -- fused attention backward equals the five kernels it replaces ----------------------


def five_kernel_attention_backward(q4, k4, v4, probs, d_ctx, sink):
    d_probs = kernels.bmm(d_ctx, v4.transpose(0, 2, 1), sink)
    d_v4 = kernels.bmm(probs.transpose(0, 2, 1), d_ctx, sink)
    d_scores = kernels.softmax_rows_backward(
        probs.reshape(probs.shape[0] * probs.shape[1], probs.shape[2]),
        d_probs.reshape(d_probs.shape[0] * d_probs.shape[1], d_probs.shape[2]),
        sink,
    ).reshape(probs.shape)
    d_q4 = kernels.bmm(d_scores, k4.transpose(0, 2, 1), sink)
    d_k4 = kernels.bmm(d_scores.transpose(0, 2, 1), q4, sink)
    kernels._check_bmm(q4.shape, k4.shape)  # the forward's score product
    return d_q4, d_k4, d_v4


@settings(max_examples=80, deadline=None)
@given(
    slices=st.integers(0, 7),
    r=st.integers(0, 6),
    m=st.integers(0, 9),
    dh=st.integers(1, 8),
    dv=st.integers(1, 8),
    masked=st.booleans(),
    chunk=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**31),
)
@example(slices=7, r=2, m=5, dh=3, dv=2, masked=True, chunk=2, seed=1)  # 4 chunks
@example(slices=5, r=3, m=4, dh=2, dv=3, masked=False, chunk=3, seed=2)  # 2 chunks
@example(slices=3, r=3, m=4, dh=2, dv=2, masked=False, chunk=1, seed=3)  # 3 chunks
@example(slices=4, r=0, m=3, dh=2, dv=2, masked=False, chunk=1, seed=4)  # empty r*m
@example(slices=4, r=3, m=0, dh=2, dv=2, masked=False, chunk=1, seed=5)
@example(slices=0, r=3, m=4, dh=2, dv=2, masked=False, chunk=None, seed=6)
def test_attention_backward_bit_identical_to_five_kernels(
    slices, r, m, dh, dv, masked, chunk, seed
):
    rng = np.random.default_rng(seed)
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    k4 = rand(rng, slices, m, dh).transpose(0, 2, 1)
    v4 = rand(rng, slices, m, dv)
    mask_rows = None
    if masked and r and m:
        mask_rows = np.tri(r, m, dtype=bool)  # causal: masked probabilities are exact zeros
    probs, _ = kernels.attention(q4, k4, v4, CounterSink(), mask_rows)
    d_ctx = rand(rng, slices, r, dv)
    operands = (q4, k4, v4, probs, d_ctx)
    with pytest.MonkeyPatch.context() as monkeypatch:
        chunk_budget(monkeypatch, chunk, 8 * r * m)
        got, counts = outcome(kernels.attention_backward, *operands)
    want, ref_counts = outcome(five_kernel_attention_backward, *operands)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert counts == ref_counts


def backward_operands(**salts):
    """Three one-slice chunks of all-ones backward operands (``r=1``,
    ``m=2``, ``dh=dv=1``, uniform ``probs``), with ``salts`` replacing
    whole operands."""
    operands = dict(
        q4=np.ones((3, 1, 1), F32),
        k4=np.ones((3, 1, 2), F32),
        v4=np.ones((3, 2, 1), F32),
        probs=np.full((3, 1, 2), 0.5, F32),
        d_ctx=np.ones((3, 1, 1), F32),
    )
    operands.update(salts)
    return tuple(operands.values())


# only the softmax backward overflows, on the last slice: there dP = d_ctx
# @ v4ᵀ is [3e38, -3e38] and P = [1, 0], so dP - rowsum(dP * P) = [0, -inf]
# and the hidden lane's -inf * 0 is NaN
OVERFLOW = dict(
    probs=np.array([[[0.5, 0.5]], [[0.5, 0.5]], [[1.0, 0.0]]], F32),
    v4=np.array([[[3e19], [3e19]], [[3e19], [3e19]], [[3e19], [-3e19]]], F32),
    d_ctx=np.full((3, 1, 1), 1e19, F32),
)
BMM = (FloatingPointError, "bmm produced non-finite values")


@pytest.mark.parametrize(
    "salts, error",
    [
        (dict(v4=salted((3, 2, 1), 2, np.nan), k4=salted((3, 1, 2), 0, np.nan)), BMM),
        (dict(d_ctx=salted((3, 1, 1), 0, np.nan)), BMM),
        (dict(probs=salted((3, 1, 2), 2, np.nan), q4=salted((3, 1, 1), 0, np.nan)), BMM),
        (OVERFLOW, (FloatingPointError, "softmax backward produced non-finite values")),
        # the d_q4 product fails in the first chunk, before the softmax
        # backward fails in the last: the first failure found wins
        (dict(OVERFLOW, k4=salted((3, 1, 2), 0, np.nan)), BMM),
        (dict(k4=salted((3, 1, 2), 2, np.nan), q4=salted((3, 1, 1), 0, np.nan)), BMM),
        (dict(q4=salted((3, 1, 1), 2, np.inf)), BMM),
        (dict(probs=np.full((3, 1, 3), 0.5, F32)),
         (ShapeError, "softmax backward: probs is (3, 3), d_probs is (3, 2)")),
        (dict(probs=np.full((3, 1, 2), 0.5), q4=salted((3, 1, 1), 0, np.nan)),
         (ShapeError, "probs must be float32, got float64")),
        (dict(v4=np.ones((3, 2), F32)), (ShapeError, "v4 must be 3-D, got shape (3, 2)")),
        (dict(k4=np.ones((2, 1, 2), F32), q4=salted((3, 1, 1), 0, np.nan)),
         (ShapeError, "bmm: a is 3x1x2, b is 2x2x1 (batch or inner mismatch)")),
        (dict(q4=np.ones((3, 2, 1), F32), probs=salted((3, 1, 2), 2, np.nan)),
         (ShapeError, "bmm: a is 3x2x1, b is 3x2x1 (batch or inner mismatch)")),
        (dict(q4=np.ones((3, 2, 1), F32)),
         (ShapeError, "bmm: a is 3x2x1, b is 3x2x1 (batch or inner mismatch)")),
        # every backward product fits; only the forward's q4 @ k4 does not
        (dict(q4=np.ones((2, 3, 2), F32), k4=np.ones((2, 3, 4), F32), v4=np.ones((2, 4, 1), F32),
              probs=np.full((2, 3, 4), 0.25, F32), d_ctx=np.ones((2, 3, 1), F32)),
         (ShapeError, "bmm: a is 2x3x2, b is 2x3x4 (batch or inner mismatch)")),
    ],
    ids=[
        "nan_in_last_v4_nan_in_first_k4", "nan_in_first_d_ctx",
        "nan_in_last_probs_nan_in_first_q4", "softmax_overflow_in_last",
        "softmax_overflow_in_last_nan_in_first_k4",
        "nan_in_last_k4_nan_in_first_q4", "inf_in_last_q4", "probs_mismatch",
        "float64_probs_nan_in_first_q4", "two_d_v4", "k4_mismatch_nan_in_first_q4",
        "q4_mismatch_nan_in_last_probs", "q4_mismatch", "head_width_mismatch",
    ],
)
def test_attention_backward_raises_like_five_kernels(salts, error, monkeypatch):
    # one slice per chunk, so each operand's slices fall in three chunks
    chunk_budget(monkeypatch, 1, 8 * 1 * 2)
    assert_fails_fast(
        kernels.attention_backward, five_kernel_attention_backward, error,
        *backward_operands(**salts),
    )


@pytest.mark.parametrize(
    "slices, r, m, nq, chunk, chunks, backward_chunks",
    [
        (7, 2, 5, None, 2, 4, 4),  # the last chunk partial
        (5, 3, 4, None, 2, 3, 3),
        (6, 2, 4, 6, 1, 2, 6),  # a mask run spans 3 forward slices: chunks of whole runs
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
    # each chunk runs every product once: 2 in the forward, 4 in the
    # backward, whose chunks hold 2 score-shaped arrays per slice and need
    # not align with a mask
    rng = np.random.default_rng(0)
    q4, k4, v4 = rand(rng, slices, r, 4), rand(rng, slices, 4, m), rand(rng, slices, m, 4)
    mask_rows = None if nq is None else np.ones((nq, m), bool)
    products = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        products.append(args[0].shape[0])
        return matmul(*args, **kwargs)

    chunk_budget(monkeypatch, chunk, 4 * r * m)
    monkeypatch.setattr(np, "matmul", counted)
    probs, ctx = kernels.attention(q4, k4, v4, CounterSink(), mask_rows)
    assert len(products) == 2 * chunks and sum(products) == 2 * slices
    products.clear()
    chunk_budget(monkeypatch, chunk, 8 * r * m)
    kernels.attention_backward(q4, k4, v4, probs, ctx, CounterSink())
    assert len(products) == 4 * backward_chunks and sum(products) == 4 * slices


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("slices, r, chunk", [(8, 1, 1), (8, 1, 3), (6, 3, 2), (4, 4, 1)])
def test_attention_one_chunk_path_equals_the_chunk_loop(slices, r, chunk, masked, monkeypatch):
    # keys and values are strided views of head-major caches, read up to the
    # filled length as the decoder's self-attention reads them; with the
    # module's budget one chunk holds every slice and the products write no
    # ``out=``, with a smaller one the loop writes each chunk into its buffers
    rng = np.random.default_rng(slices * r + chunk)
    dh, capacity, end = 4, 12, 9
    k4 = rand(rng, slices, dh, capacity)[:, :, :end]
    v4 = rand(rng, slices, capacity, dh)[:, :end]
    q4 = (rand(rng, slices, r, dh) * 4).astype(F32)
    mask_rows = np.tri(r, end, end - r, dtype=bool) if masked else None
    outs = []
    matmul = np.matmul

    def recorded(*args, **kwargs):
        outs.append("out" in kwargs)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    whole, whole_counts = outcome(kernels.attention, q4, k4, v4, mask_rows=mask_rows)
    assert outs == [False, False]
    outs.clear()
    chunk_budget(monkeypatch, chunk, 4 * r * end)
    looped, loop_counts = outcome(kernels.attention, q4, k4, v4, mask_rows=mask_rows)
    assert outs == [True, True] * -(-slices // chunk)
    for w, lp in zip(whole, looped, strict=True):
        assert w.dtype == lp.dtype and w.shape == lp.shape
        assert w.tobytes() == lp.tobytes()
    assert whole_counts == loop_counts


# -- matmul epilogues equal matmul -> scale and matmul -> add ------------------------


def two_kernel_matmul(a, b, sink, scale=None, residual=None):
    product = kernels.matmul(a, b, sink)
    if scale is not None:
        return kernels.scale(product, scale, sink)
    return kernels.add(residual, product, sink)


def operand(rng, shape, transposed):
    """Uniform float32 ``shape``; a strided transposed view when asked."""
    if transposed:
        return rand(rng, *shape[::-1]).T
    return rand(rng, *shape)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(0, 5),
    k=st.integers(0, 6),
    n=st.integers(0, 5),
    epilogue=st.sampled_from([("scale", 0.125), ("scale", 1 / math.sqrt(3)),
                              ("scale", 1e10), ("scale", 0.0), ("residual", None)]),
    salts=st.lists(
        st.tuples(st.sampled_from("abr"), st.integers(0, 35), st.sampled_from(SALTS)),
        max_size=4,
    ),
    transposed=st.booleans(),
    seed=st.integers(0, 2**31),
)
@example(m=1, k=1, n=1, epilogue=("scale", 1e10), salts=[("a", 0, 3e38)], transposed=False, seed=0)
@example(m=2, k=1, n=2, epilogue=("residual", None), salts=[("r", 3, 3e38), ("a", 1, 3e38)],
         transposed=True, seed=1)
@example(m=2, k=0, n=3, epilogue=("residual", None), salts=[("r", 0, np.nan)],
         transposed=False, seed=2)
def test_matmul_epilogue_bit_identical_to_two_kernels(m, k, n, epilogue, salts, transposed, seed):
    rng = np.random.default_rng(seed)
    arrays = {
        "a": operand(rng, (m, k), transposed),
        "b": operand(rng, (k, n), transposed),
        "r": operand(rng, (m, n), transposed),
    }
    for name, pos, value in salts:
        arr = arrays[name]
        if arr.size:
            idx = np.unravel_index(pos % arr.size, arr.shape)
            arr[idx] = value
    kind, factor = epilogue
    options = {"scale": factor} if kind == "scale" else {"residual": arrays["r"]}
    got, counts = outcome(kernels.matmul, arrays["a"], arrays["b"], **options)
    want, want_counts = outcome(two_kernel_matmul, arrays["a"], arrays["b"], **options)
    if isinstance(want, tuple):
        # both check the product first, so they name the same failing
        # kernel; the fused kernel has counted its epilogue as well
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert counts == want_counts


@pytest.mark.parametrize(
    "a, b, options, error",
    [
        (np.full((1, 2), HUGE), np.full((2, 1), HUGE), {"scale": 0.5},
         (FloatingPointError, "matmul produced non-finite values")),
        (np.full((1, 2), HUGE), np.full((2, 1), -HUGE), {"residual": np.ones((1, 1), F32)},
         (FloatingPointError, "matmul produced non-finite values")),
        (np.full((2, 1), HUGE), np.ones((1, 2), F32), {"scale": 1e10},
         (FloatingPointError, "scale produced non-finite values")),
        (np.full((2, 1), F32(3e38)), np.ones((1, 2), F32), {"residual": np.full((2, 2), F32(3e38))},
         (FloatingPointError, "add produced non-finite values")),
        (np.ones((2, 1), F32), np.ones((1, 2), F32),
         {"residual": np.array([[0.0, np.nan], [0.0, 0.0]], F32)},
         (FloatingPointError, "add produced non-finite values")),
        (np.ones((2, 1), F32), np.ones((1, 2), F32), {"residual": np.ones((2, 1), F32)},
         (ShapeError, "add: a is (2, 1), b is (2, 2)")),
        (np.ones((2, 1), F32), np.ones((1, 2), F32), {"residual": np.ones((2, 2))},
         (ShapeError, "add: operands must be float32, got float64 and float32")),
        # the residual is validated before the product is computed
        (np.full((2, 1), HUGE), np.full((1, 2), HUGE), {"residual": np.ones((2, 1), F32)},
         (ShapeError, "add: a is (2, 1), b is (2, 2)")),
    ],
    ids=[
        "product_overflow_scale", "product_overflow_residual", "scale_overflow",
        "add_overflow", "nan_residual", "residual_shape", "residual_dtype",
        "product_overflow_before_residual_shape",
    ],
)
def test_matmul_epilogue_raises_like_two_kernels(a, b, options, error):
    assert_fails_fast(kernels.matmul, two_kernel_matmul, error, a, b, **options)


def test_matmul_takes_one_epilogue():
    ones = np.ones((1, 1), F32)
    with pytest.raises(ValueError, match="not both"):
        kernels.matmul(ones, ones, CounterSink(), scale=2.0, residual=ones)


# -- the fused embedding equals gather_rows -> scale -> add -------------------------


def three_kernel_embed(table, ids, factor, positions, sink):
    rows = kernels.gather_rows(table, ids.reshape(-1), sink)
    scaled = kernels.scale(rows, factor, sink)
    return kernels.add(scaled, np.tile(positions, (len(ids), 1)), sink)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 5),
    p=st.integers(1, 6),
    start=st.integers(0, 6),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
@example(s=1, p=1, start=0, d=4, seed=0)  # a decode step of one stream
@example(s=3, p=1, start=5, d=4, seed=1)  # a decode step of three streams
@example(s=2, p=4, start=3, d=6, seed=2)  # a prefill past the first position
def test_embed_rows_bit_identical_to_three_kernels(s, p, start, d, seed):
    rng = np.random.default_rng(seed)
    table = rand(rng, 11, d)
    ids = rng.integers(0, 11, size=(s, p))
    positions = sinusoid_table(start + p, d)[start:]
    operands = (table, ids, math.sqrt(d), positions)
    got, counts = outcome(kernels.embed_rows, *operands)
    want, want_counts = outcome(three_kernel_embed, *operands)
    assert got.dtype == want.dtype and got.shape == want.shape == (s * p, d)
    assert got.tobytes() == want.tobytes()
    assert counts == want_counts


EMBED_TABLE = np.arange(12, dtype=F32).reshape(4, 3)
EMBED_POSITIONS = np.ones((2, 3), F32)


@pytest.mark.parametrize(
    "table, ids, positions, error",
    [
        (EMBED_TABLE, np.array([[0, 4]]), EMBED_POSITIONS,
         (ShapeError, "gather index out of range: table has 4 rows, indices span [0, 4]")),
        (EMBED_TABLE, np.array([[-1, 2], [1, 0]]), EMBED_POSITIONS,
         (ShapeError, "gather index out of range: table has 4 rows, indices span [-1, 2]")),
        (EMBED_TABLE, np.array([[0, 1]]), np.ones((3, 3), F32),
         (ShapeError, "embed positions must be float32 (2, 3), got float32 (3, 3)")),
        (EMBED_TABLE, np.array([[0, 1]]), np.ones((2, 3)),
         (ShapeError, "embed positions must be float32 (2, 3), got float64 (2, 3)")),
        (EMBED_TABLE.astype(np.float64), np.array([[0, 1]]), EMBED_POSITIONS,
         (ShapeError, "table must be float32, got float64")),
        # non-finite outputs, with every constituent's counts recorded
        (salted((4, 3), (2, 1), 1e38, fill=0.0), np.array([[0, 2]]), EMBED_POSITIONS,
         (FloatingPointError, "scale produced non-finite values")),
        (salted((4, 3), (2, 1), np.nan, fill=0.0), np.array([[2, 0], [0, 0]]), EMBED_POSITIONS,
         (FloatingPointError, "scale produced non-finite values")),
        (salted((4, 3), (1, 0), 8e37, fill=0.0), np.array([[0, 1]]),
         salted((2, 3), (1, 0), 3e38, fill=0.0),
         (FloatingPointError, "add produced non-finite values")),
        (EMBED_TABLE, np.array([[0, 1]]), salted((2, 3), (0, 2), np.inf),
         (FloatingPointError, "add produced non-finite values")),
    ],
    ids=[
        "id_equal_to_vocab", "negative_id", "position_rows", "float64_positions",
        "float64_table", "scale_overflow", "nan_table_entry", "add_overflow", "inf_position",
    ],
)
def test_embed_rows_raises_like_three_kernels(table, ids, positions, error):
    # the factor 4 (sqrt(16)) takes 8e37 to 3.2e38, still finite, and 1e38 past
    # float32's max of 3.4e38
    assert_fails_fast(
        kernels.embed_rows, three_kernel_embed, error, table, ids, 4.0, positions
    )


def test_embed_rows_takes_a_two_d_block():
    sink = CounterSink()
    with pytest.raises(ShapeError, match=r"2-D \[S, p\] block"):
        kernels.embed_rows(EMBED_TABLE, np.array([0, 1]), 1.0, EMBED_POSITIONS, sink)
    assert sink.kind_totals() == {}
