import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rorokit.autodiff import (
    AutodiffError,
    Tensor,
    gather_rows,
    grad_check,
    layer_norm,
    linear,
    softmax_lastdim,
)


def rand(*shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=shape)


def check(loss_fn, params, tol=1e-4, **kw):
    worst = grad_check(loss_fn, params, **kw)
    assert worst < tol, worst


# --- basic gradients ---


def test_quadratic_gradient_is_nearly_exact():
    p = Tensor(rand(5, seed=1), requires_grad=True)
    check(lambda: (p * p).sum(), {"p": p}, tol=1e-8)
    assert np.allclose(p.grad, 2 * p.data)


def test_arithmetic_chain():
    a = Tensor(rand(3, 4, seed=2), requires_grad=True)
    b = Tensor(rand(3, 4, seed=3) + 3.0, requires_grad=True)

    def loss():
        return ((a * b - a / b + 2.0 * a) ** 2).sum()

    check(loss, {"a": a, "b": b})


def test_exp_log_relu():
    p = Tensor(np.abs(rand(6, seed=4)) + 0.5, requires_grad=True)
    check(lambda: p.exp().sum(), {"p": p})
    q = Tensor(rand(8, seed=5), requires_grad=True)
    check(lambda: (q.relu() * q).sum(), {"q": q})


def relu_oracle(x):
    return np.where(x > 0, x, 0.0)


EXTREMES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.finfo(float).tiny,
    np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, 1.0, -1.0,
])


def test_relu_forward_is_bit_identical_to_the_masked_select():
    rng = np.random.default_rng(0)
    # -0.0 at every position of every length up to 40 reaches both the SIMD
    # body and the scalar tail of np.maximum.
    for n in range(1, 41):
        for pos in range(n):
            x = rng.normal(size=n)
            x[pos] = -0.0
            assert Tensor(x).relu().data.tobytes() == relu_oracle(x).tobytes()
    for x in (EXTREMES, rng.permutation(np.tile(EXTREMES, 7)).reshape(7, 13)):
        assert Tensor(x).relu().data.tobytes() == relu_oracle(x).tobytes()
    x = rng.normal(size=(28, 256))
    x[rng.random(x.shape) < 0.1] = -0.0
    assert Tensor(x).relu().data.tobytes() == relu_oracle(x).tobytes()


def test_relu_forward_is_positive_zero_whichever_zero_maximum_picks(monkeypatch):
    # Which operand np.maximum returns for -0.0 against 0.0 is not specified;
    # a platform that returns the first one must still give +0.0.
    monkeypatch.setattr(np, "maximum", lambda a, b: np.where(a < b, b, a))
    x = np.array([-0.0, 0.0, -1.0, 2.0, -0.0])
    assert Tensor(x).relu().data.tobytes() == relu_oracle(x).tobytes()


def test_relu_propagates_nan():
    out = Tensor(np.array([np.nan, -1.0, 1.0])).relu().data
    assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 1.0]


def test_relu_backward_passes_the_gradient_where_the_input_is_positive():
    rng = np.random.default_rng(1)
    x = np.concatenate([EXTREMES, rng.normal(size=20)])
    w = rng.normal(size=x.shape)
    q = Tensor(x, requires_grad=True)
    (q.relu() * Tensor(w)).sum().backward()
    assert q.grad.tobytes() == (w * (x > 0)).tobytes()


def test_broadcast_add_and_mul_accumulate_correctly():
    m = Tensor(rand(4, 3, seed=6), requires_grad=True)
    row = Tensor(rand(3, seed=7), requires_grad=True)
    col = Tensor(rand(4, 1, seed=8), requires_grad=True)
    check(lambda: ((m + row) * col).sum(), {"m": m, "row": row, "col": col})
    (m + row).sum().backward()
    assert row.grad.shape == (3,)


def test_scalar_coercion():
    p = Tensor([2.0], requires_grad=True)
    out = 1.0 - p * 3.0 + 4.0 / p
    out.sum().backward()
    assert out.data[0] == pytest.approx(1 - 6 + 2)
    assert p.grad[0] == pytest.approx(-3 - 4 / 4)


# --- matmul variants ---


@pytest.mark.parametrize(
    "ashape,bshape",
    [
        ((3, 4), (4, 5)),
        ((2, 3, 4), (2, 4, 5)),
        ((4,), (4, 5)),
        ((3, 4), (4,)),
        ((4,), (4,)),
        ((2, 3, 4), (4,)),
        ((4,), (2, 4, 5)),
    ],
)
def test_matmul_gradients(ashape, bshape):
    a = Tensor(rand(*ashape, seed=9), requires_grad=True)
    b = Tensor(rand(*bshape, seed=10), requires_grad=True)

    def loss():
        out = a @ b
        return (out * out).sum()

    check(loss, {"a": a, "b": b})


def test_matmul_forward_matches_numpy():
    a, b = rand(2, 3, 4, seed=11), rand(2, 4, 2, seed=12)
    assert np.array_equal((Tensor(a) @ Tensor(b)).data, a @ b)


# --- reductions and shape moves ---


def test_sum_axis_variants():
    p = Tensor(rand(3, 4, 5, seed=13), requires_grad=True)
    check(lambda: (p.sum(axis=1) ** 2).sum(), {"p": p})
    check(lambda: (p.sum(axis=(0, 2), keepdims=True) ** 2).sum(), {"p": p})
    check(lambda: p.mean() * 3.0, {"p": p})
    check(lambda: (p.mean(axis=-1) ** 2).sum(), {"p": p})


def test_reshape_transpose_slice():
    p = Tensor(rand(4, 6, seed=14), requires_grad=True)

    def loss():
        q = p.reshape(2, 2, 6).transpose(2, 0, 1)
        return ((q * 2.0) ** 2).sum()

    check(loss, {"p": p})


def test_gather_rows_accumulates_duplicates():
    table = Tensor(rand(5, 3, seed=15), requires_grad=True)
    out = gather_rows([table], [[1, 1, 4]])
    out.sum().backward()
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[4], 1.0)
    assert np.allclose(table.grad[0], 0.0)
    check(lambda: (gather_rows([table], [[0, 2, 2]]) ** 2).sum(), {"t": table})


# --- composites ---


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 6)),
        elements=st.floats(-50, 50),
    )
)
@settings(derandomize=True, database=None)
def test_softmax_rows_sum_to_one(data):
    out = softmax_lastdim(Tensor(data))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_is_shift_invariant_and_differentiable():
    x = Tensor(rand(3, 5, seed=18), requires_grad=True)
    shifted = softmax_lastdim(Tensor(x.data + 100.0))
    assert np.allclose(softmax_lastdim(x).data, shifted.data, atol=1e-12)
    w = Tensor(rand(3, 5, seed=19))
    check(lambda: (softmax_lastdim(x) * w).sum(), {"x": x})


def test_layer_norm_statistics_and_gradient():
    x = Tensor(rand(4, 8, seed=20) * 3 + 1, requires_grad=True)
    gain = Tensor(np.ones(8), requires_grad=True)
    bias = Tensor(np.zeros(8), requires_grad=True)
    out = layer_norm(x, gain, bias)
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)
    check(
        lambda: (layer_norm(x, gain, bias) ** 2).sum(),
        {"x": x, "gain": gain, "bias": bias},
    )


# --- fused nodes against composites of primitive ops ---


def composite_softmax(x):
    shift = Tensor(x.data.max(axis=-1, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


def composite_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gain + bias


def values_and_grads(forward, inputs, weights):
    for t in inputs:
        t.grad = None
    out = forward(*inputs)
    (out * Tensor(weights)).sum().backward()
    return out.data, [t.grad.copy() for t in inputs]


SHAPES = [(5, 7), (2, 3, 4, 4)]  # (tokens, dim) and (batch, heads, n, n)


@pytest.mark.parametrize("shape", SHAPES)
def test_fused_softmax_matches_composite(shape):
    x = Tensor(rand(*shape, seed=30, scale=3.0), requires_grad=True)
    w = rand(*shape, seed=31)
    fused, (g_fused,) = values_and_grads(softmax_lastdim, [x], w)
    ref, (g_ref,) = values_and_grads(composite_softmax, [x], w)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=0)
    np.testing.assert_allclose(g_fused, g_ref, rtol=1e-10, atol=1e-15)
    check(lambda: (softmax_lastdim(x) * Tensor(w)).sum(), {"x": x})


@pytest.mark.parametrize("shape", SHAPES)
def test_fused_layer_norm_matches_composite(shape):
    x = Tensor(rand(*shape, seed=32) * 2 + 0.5, requires_grad=True)
    gain = Tensor(rand(shape[-1], seed=33) + 1.0, requires_grad=True)
    bias = Tensor(rand(shape[-1], seed=34), requires_grad=True)
    w = rand(*shape, seed=35)
    inputs = [x, gain, bias]
    fused, g_fused = values_and_grads(layer_norm, inputs, w)
    ref, g_ref = values_and_grads(composite_layer_norm, inputs, w)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=0)
    for a, b in zip(g_fused, g_ref):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)
    check(
        lambda: (layer_norm(x, gain, bias) * Tensor(w)).sum(),
        {"x": x, "gain": gain, "bias": bias},
    )


@pytest.mark.parametrize("with_residual", [False, True])
def test_fused_linear_is_bit_identical_to_composite(with_residual):
    x = Tensor(rand(5, 4, seed=42), requires_grad=True)
    weight = Tensor(rand(4, 3, seed=43), requires_grad=True)
    bias = Tensor(rand(3, seed=44), requires_grad=True)
    inputs = [x, weight, bias]
    if with_residual:
        inputs.append(Tensor(rand(5, 3, seed=45), requires_grad=True))

    def composite(x, weight, bias, residual=None):
        if residual is None:
            return x @ weight + bias
        return residual + x @ weight + bias

    w = rand(5, 3, seed=46)
    fused, g_fused = values_and_grads(linear, inputs, w)
    ref, g_ref = values_and_grads(composite, inputs, w)
    np.testing.assert_array_equal(fused, ref)
    for a, b in zip(g_fused, g_ref):
        np.testing.assert_array_equal(a, b)


def test_row_sparse_gather_matches_dense_reference():
    table = Tensor(rand(6, 3, seed=36), requires_grad=True)
    first, second = [4, 1, 4, 4, 0], [1, 1, 5]
    w1, w2 = rand(5, 3, seed=37), rand(3, 3, seed=38)
    loss = (gather_rows([table], [first]) * Tensor(w1)).sum() + (
        gather_rows([table], [second]) * Tensor(w2)
    ).sum()
    loss.backward()
    dense = np.zeros_like(table.data)
    np.add.at(dense, first, w1)
    np.add.at(dense, second, w2)
    np.testing.assert_allclose(table.grad, dense, rtol=1e-15, atol=0)
    assert not table.grad[[2, 3]].any()


def test_gather_backward_matches_add_at_over_five_tables():
    # Heavy repeats (40 lookups into 3 rows), then a second lookup that adds
    # into the gradients the first one left.
    rng = np.random.default_rng(51)
    tables = [Tensor(rand(7, 3, seed=52 + t), requires_grad=True) for t in range(5)]
    first = [rng.integers(0, 3, size=40) for _ in tables]
    second = [rng.integers(0, 7, size=25) for _ in tables]
    w1, w2 = rand(40, 3, seed=60), rand(25, 3, seed=61)
    (gather_rows(tables, first) * Tensor(w1)).sum().backward()
    (gather_rows(tables, second) * Tensor(w2)).sum().backward()
    for t, a, b in zip(tables, first, second):
        dense = np.zeros_like(t.data)
        np.add.at(dense, a, w1)
        np.add.at(dense, b, w2)
        # Only the order of additions differs: bound the error by the
        # magnitude of what was summed into each cell.
        magnitude = np.zeros_like(dense)
        np.add.at(magnitude, a, np.abs(w1))
        np.add.at(magnitude, b, np.abs(w2))
        assert (np.abs(t.grad - dense) <= 1e-15 * magnitude).all()


def test_summed_lookups_are_bit_identical_to_chained_ones():
    tables = [Tensor(rand(6, 3, seed=s), requires_grad=True) for s in (47, 48, 49)]
    indices = [[4, 1, 4], [0, 0, 5], [2, 3, 1]]
    w = rand(3, 3, seed=50)

    def chained(*tables):
        out = gather_rows([tables[0]], [indices[0]])
        for t, idx in zip(tables[1:], indices[1:]):
            out = out + gather_rows([t], [idx])
        return out

    fused, g_fused = values_and_grads(lambda *t: gather_rows(t, indices), tables, w)
    ref, g_ref = values_and_grads(chained, tables, w)
    np.testing.assert_array_equal(fused, ref)
    for a, b in zip(g_fused, g_ref):
        np.testing.assert_array_equal(a, b)


def test_first_gradient_is_copied_not_aliased():
    # x's gradient arrives from two shape moves; whichever comes first hands
    # x a view of its own gradient, and the second is added after it.
    x = Tensor(rand(2, 6, seed=39), requires_grad=True) * 1.0
    flat = x.reshape(3, 4)
    turned = x.transpose()
    w_flat, w_turned = rand(3, 4, seed=40), rand(6, 2, seed=41)
    ((flat * Tensor(w_flat)).sum() + (turned * Tensor(w_turned)).sum()).backward()
    np.testing.assert_array_equal(flat.grad, w_flat)
    np.testing.assert_array_equal(turned.grad, w_turned)
    np.testing.assert_array_equal(x.grad, w_flat.reshape(2, 6) + w_turned.T)


def handed_over_and_copied(monkeypatch, build):
    """The gradients of every node ``build()`` returns after its loss's
    backward, run once as is and once with ``_accumulate`` copying every
    first gradient, and the number of first gradients handed over."""
    accumulate, handed = Tensor._accumulate, []

    def counting(self, grad, fresh=False):
        handed.append(fresh and self.grad is None)
        accumulate(self, grad, fresh)

    def copying(self, grad, fresh=False):
        accumulate(self, grad)

    runs = []
    for spy in (counting, copying):
        monkeypatch.setattr(Tensor, "_accumulate", spy)
        loss, nodes = build()
        loss.backward()
        runs.append(nodes)
    monkeypatch.setattr(Tensor, "_accumulate", accumulate)
    return runs, sum(handed)


def test_handed_over_gradients_match_copied_ones_and_share_no_buffer(monkeypatch):
    def build():
        x0 = Tensor(rand(4, 6, seed=50), requires_grad=True)
        w1, b1 = (Tensor(rand(*s, seed=51 + i), requires_grad=True)
                  for i, s in enumerate([(6, 6), (6,)]))
        gain, beta = (Tensor(rand(6, seed=53 + i), requires_grad=True) for i in range(2))
        w2, b2 = (Tensor(rand(*s, seed=55 + i), requires_grad=True)
                  for i, s in enumerate([(6, 5), (5,)]))
        x = x0 * 1.0
        h = linear(x, w1, b1, x)  # x is both the input and the residual
        y = h + h  # one gradient array handed to both parents
        z = layer_norm(y, gain, beta).relu()
        s = softmax_lastdim(linear(z, w2, b2))
        nodes = [x0, w1, b1, gain, beta, w2, b2, x, h, y, z, s]
        return (s * Tensor(rand(4, 5, seed=57))).sum(), nodes

    (handed, copied), count = handed_over_and_copied(monkeypatch, build)
    assert count > 0
    for a, b in zip(handed, copied):
        assert a.grad.tobytes() == b.grad.tobytes()
    for i, a in enumerate(handed):
        for b in handed[i + 1 :]:
            assert not np.shares_memory(a.grad, b.grad)


def test_handed_over_encoder_gradients_match_copied_ones(monkeypatch):
    from rorokit.layout import BBox
    from rorokit.nn import EncoderConfig, encoder_forward, init_encoder_params

    config = EncoderConfig(layers=2, model_dim=8, heads=2, vocab_hash_size=16,
                           coord_buckets=50, ffn_dim=16)
    tokens = ["a", "b", "c", "a", "d"]
    boxes = [BBox(i, 2 * i, i + 5, 2 * i + 3) for i in range(5)]

    def build():
        store = init_encoder_params(config, seed=3)
        out = encoder_forward(config, store, tokens, boxes, lengths=[3, 2])
        return (out * Tensor(rand(5, 8, seed=58))).sum(), [t for _, t in store.items()]

    (handed, copied), count = handed_over_and_copied(monkeypatch, build)
    assert count > 0
    for a, b in zip(handed, copied):
        assert a.grad.tobytes() == b.grad.tobytes()


# --- engine behavior ---


def test_backward_frees_the_traversed_graph():
    p = Tensor(rand(3, 4, seed=42), requires_grad=True)
    hidden = p * 2.0
    watch = weakref.ref(hidden.data)
    loss = (hidden * hidden).sum()
    del hidden
    loss.backward()
    assert watch() is None  # only the graph held the intermediate array
    np.testing.assert_allclose(p.grad, 8.0 * p.data)


def test_backward_is_iterative_on_deep_graphs():
    p = Tensor([1.0], requires_grad=True)
    node = p
    for _ in range(3000):
        node = node + 0.001
    node.sum().backward()
    assert p.grad[0] == pytest.approx(1.0)


def test_gradient_accumulates_over_shared_subexpressions():
    p = Tensor([3.0], requires_grad=True)
    q = p * 2.0
    (q + q).sum().backward()
    assert p.grad[0] == pytest.approx(4.0)


def test_backward_requires_scalar():
    with pytest.raises(AutodiffError):
        Tensor(rand(3, seed=21), requires_grad=True).backward()


def test_grad_check_rejects_non_finite_loss():
    p = Tensor([0.0], requires_grad=True)
    with np.errstate(divide="ignore"), pytest.raises(AutodiffError):
        grad_check(lambda: (p ** -1.0).sum(), {"p": p})


def test_forward_is_reproducible():
    x = rand(5, 5, seed=22)
    a = softmax_lastdim(Tensor(x) @ Tensor(x))
    b = softmax_lastdim(Tensor(x) @ Tensor(x))
    assert np.array_equal(a.data, b.data)
