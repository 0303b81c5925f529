import base64
import json
import tracemalloc
from collections import namedtuple
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.autodiff import Tensor, gather_rows, grad_check
from rorokit.layout import BBox
from rorokit.nn import (
    AttentionBias,
    CheckpointError,
    EncoderConfig,
    MissingGradientError,
    NonFiniteGradientError,
    Padding,
    ParameterError,
    ParameterStore,
    TokenOverflowError,
    attention,
    attention_weights,
    checkpoint_from_json,
    embed,
    encoder_forward,
    encoder_param_table,
    fnv1a_hash,
    init_encoder_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    sinusoidal_table,
)
from rorokit.rop import GlobalPointerHead, ROPConfig, ROPModel

SMALL = EncoderConfig(layers=1, model_dim=8, heads=2, vocab_hash_size=16, max_tokens=16)


def boxes_for(n):
    return [BBox(25 * i, 50, 25 * i + 25, 100) for i in range(n)]


def tiny_inputs(n=3):
    return [f"tok{i}" for i in range(n)], boxes_for(n)


# --- config and store ---


def test_config_validation():
    assert EncoderConfig(layers=0).layers == 0
    assert EncoderConfig(model_dim=64).ffn_dim == 256
    with pytest.raises(ValueError):
        EncoderConfig(model_dim=10, heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(heads=0)
    with pytest.raises(ValueError, match="ffn_dim must be non-negative"):
        EncoderConfig(ffn_dim=-1)
    cfg = EncoderConfig()
    assert EncoderConfig(**asdict(cfg)) == cfg


def test_store_rejects_duplicates_and_unknown_names():
    store = ParameterStore()
    store.add("w", np.zeros(3))
    with pytest.raises(ParameterError):
        store.add("w", np.zeros(3))
    with pytest.raises(ParameterError):
        store["missing"]
    assert "w" in store and store.names() == ["w"]


def test_store_keeps_a_writable_float64_array_and_copies_anything_else():
    store = ParameterStore()
    fresh = np.zeros(3)
    assert store.add("fresh", fresh).data is fresh
    frozen = np.zeros(3)
    frozen.flags.writeable = False
    for name, values in [("frozen", frozen), ("ints", np.arange(3)), ("list", [1.0, 2.0])]:
        data = store.add(name, values).data
        assert data is not values and data.dtype == np.float64
        assert data.flags.writeable and data.flags.owndata


def test_init_peaks_below_its_parameters_bytes():
    # A store that copied what it was handed held each fresh table twice.
    tracemalloc.start()
    try:
        store = init_encoder_params(EncoderConfig(layers=0, vocab_hash_size=50000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * sum(p.data.nbytes for _, p in store.items())


def test_every_stored_array_is_writable_and_its_own(tmp_path):
    # Checkpoint values are decoded into read-only buffers; the store copies them.
    model = ROPModel.create(SMALL, ROPConfig(head_dim=4), np.random.default_rng(0))
    save_checkpoint(tmp_path / "model.json", {}, model.store)
    _, loaded = load_checkpoint(tmp_path / "model.json")
    for store in (model.store, loaded):
        assert all(p.data.flags.writeable and p.data.flags.owndata for _, p in store.items())
    for (_, made), (_, read) in zip(model.store.items(), loaded.items()):
        assert np.array_equal(made.data, read.data)


def test_fnv1a_is_stable():
    # Pinned reference values of the 64-bit FNV-1a function.
    assert fnv1a_hash("") == 0xCBF29CE484222325
    assert fnv1a_hash("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_hash("hello") != fnv1a_hash("Hello")


# --- embedding ---


def test_embed_zero_tables_gives_zero():
    store = ParameterStore()
    d = SMALL.model_dim
    store.add("enc.tok_embed", np.zeros((SMALL.vocab_hash_size, d)))
    for coord in ("x0", "y0", "x1", "y1"):
        store.add(f"enc.coord_{coord}", np.zeros((SMALL.coord_buckets, d)))
    texts, bxs = tiny_inputs()
    out = embed(SMALL, store, list(zip(texts, bxs)), [3])
    assert np.array_equal(out.data, np.zeros((3, d)))


def test_embed_one_hot_token_table():
    store = ParameterStore()
    d = SMALL.model_dim
    table = np.zeros((SMALL.vocab_hash_size, d))
    tok_id = fnv1a_hash("word") % SMALL.vocab_hash_size
    table[tok_id] = np.arange(d)
    store.add("enc.tok_embed", table)
    for coord in ("x0", "y0", "x1", "y1"):
        store.add(f"enc.coord_{coord}", np.zeros((SMALL.coord_buckets, d)))
    out = embed(SMALL, store, [("word", boxes_for(1)[0])], [1])
    assert np.array_equal(out.data[0], np.arange(d))


def test_embed_identical_tokens_identical_rows():
    store = init_encoder_params(SMALL, seed=0)
    box = boxes_for(1)[0]
    out = embed(SMALL, store, [("same", box), ("same", box)], [2])
    assert np.array_equal(out.data[0], out.data[1])


# Any object with x0..y1 is a box to embed; BBox itself refuses negatives.
RawBox = namedtuple("RawBox", "x0 y0 x1 y1")


def test_embed_sums_hashed_and_clamped_rows_of_a_packed_pair():
    cfg = EncoderConfig(layers=0, model_dim=8, heads=2, vocab_hash_size=16,
                        coord_buckets=50, max_tokens=16)
    store = init_encoder_params(cfg, seed=3, coord_init="normal")
    first = [("alpha", RawBox(-7, 0, 12, 49)), ("beta", RawBox(3, -1, 50, 120))]
    second = [
        ("gamma", RawBox(0, 0, 0, 0)),
        ("alpha", RawBox(60, 200, -3, 49)),
        ("\u00e9t\u00e9", RawBox(49, 51, 1000, -100)),
    ]
    out = embed(cfg, store, first + second, lengths=[2, 3])
    assert out.shape == (5, cfg.model_dim)
    for row, (text, box) in zip(out.data, first + second):
        want = store["enc.tok_embed"].data[fnv1a_hash(text) % cfg.vocab_hash_size]
        for coord in ("x0", "y0", "x1", "y1"):
            bucket = min(max(getattr(box, coord), 0), cfg.coord_buckets - 1)
            want = want + store[f"enc.coord_{coord}"].data[bucket]
        assert np.array_equal(row, want)


def test_embed_rejects_overflow():
    store = init_encoder_params(SMALL, seed=0)
    texts, bxs = tiny_inputs(SMALL.max_tokens + 1)
    pairs = list(zip(texts, [BBox(0, 0, 10, 10)] * len(texts)))
    with pytest.raises(TokenOverflowError):
        embed(SMALL, store, pairs, [len(pairs)])


def test_sinusoidal_rows_bounded_and_distinct():
    table = sinusoidal_table(1, (1001, 64))
    rows = table[:, 16:32]
    assert not table[:, :16].any() and not table[:, 32:].any()
    assert np.abs(rows).max() <= 1.0
    # Lattice coordinates (multiples of 25) map to distinct feature rows.
    lattice = rows[::25]
    dists = np.linalg.norm(lattice[:, None] - lattice[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 1e-3


# --- initialization from the parameter table ---


def reference_sinusoidal_rows(n_values, dim):
    periods = np.geomspace(50.0, 2000.0, dim // 2)
    angles = 2.0 * np.pi * np.arange(n_values)[:, None] / periods[None, :]
    out = np.empty((n_values, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def reference_encoder_params(config, seed, store, coord_init):
    """The hand-written initializer the parameter table replaced."""
    rng = np.random.default_rng(seed)
    d = config.model_dim
    store.add("enc.tok_embed", rng.normal(0.0, 0.02, size=(config.vocab_hash_size, d)))
    quarter = d // 4
    for idx, coord in enumerate(("x0", "y0", "x1", "y1")):
        if coord_init == "sinusoidal" and quarter >= 2 and quarter % 2 == 0:
            table = np.zeros((config.coord_buckets, d))
            table[:, idx * quarter : (idx + 1) * quarter] = reference_sinusoidal_rows(
                config.coord_buckets, quarter
            )
        else:
            table = rng.normal(0.0, 0.02, size=(config.coord_buckets, d))
        store.add(f"enc.coord_{coord}", table)
    for layer in range(config.layers):
        base = f"enc.l{layer}."
        store.add(base + "ln1.gain", np.ones(d))
        store.add(base + "ln1.bias", np.zeros(d))
        for proj in ("Wq", "Wk", "Wv", "Wo"):
            store.add(base + "attn." + proj, rng.normal(0.0, 0.02, size=(d, d)))
        for proj in ("bq", "bv", "bo"):
            store.add(base + "attn." + proj, np.zeros(d))
        store.add(base + "ln2.gain", np.ones(d))
        store.add(base + "ln2.bias", np.zeros(d))
        store.add(base + "ffn.W1", rng.normal(0.0, 0.02, size=(d, config.ffn_dim)))
        store.add(base + "ffn.b1", np.zeros(config.ffn_dim))
        store.add(base + "ffn.W2", rng.normal(0.0, 0.02, size=(config.ffn_dim, d)))
        store.add(base + "ffn.b2", np.zeros(d))
    return store


def reference_head_params(model_dim, head_dim, store, seed):
    """The hand-written ``GlobalPointerHead.create`` the table replaced."""
    rng = np.random.default_rng(seed)
    store.add("gp.Wq", rng.normal(0.0, 0.02, size=(model_dim, head_dim)))
    store.add("gp.bq", np.zeros(head_dim))
    store.add("gp.Wk", rng.normal(0.0, 0.02, size=(model_dim, head_dim)))
    store.add("gp.bk", np.zeros(head_dim))
    return store


@pytest.mark.parametrize(
    "config, coord_init, shared_rng",
    [
        (EncoderConfig(), "sinusoidal", False),
        (EncoderConfig(model_dim=12, heads=2, ffn_dim=20), "sinusoidal", False),
        (EncoderConfig(model_dim=4, heads=2), "sinusoidal", False),
        (EncoderConfig(layers=0, model_dim=16), "sinusoidal", False),
        (EncoderConfig(layers=1, model_dim=16, vocab_hash_size=40), "normal", False),
        (EncoderConfig(), "sinusoidal", True),
        (EncoderConfig(layers=3, model_dim=8, heads=2), "normal", True),
    ],
    ids=["default", "odd-quarter", "quarter-below-2", "no-layers", "normal-coords",
         "generator", "generator-normal-coords"],
)
def test_table_driven_init_matches_the_hand_written_reference(
    config, coord_init, shared_rng
):
    # With shared_rng the encoder and then the head draw from one generator,
    # as ROPModel.create does; otherwise each starts from its own seed.
    def seeds():
        if shared_rng:
            rng = np.random.default_rng(7)
            return rng, rng
        return 7, 8

    enc_seed, head_seed = seeds()
    got = init_encoder_params(config, enc_seed, ParameterStore(), coord_init)
    GlobalPointerHead.create(config.model_dim, 6, got, head_seed)
    enc_seed, head_seed = seeds()
    want = reference_encoder_params(config, enc_seed, ParameterStore(), coord_init)
    reference_head_params(config.model_dim, 6, want, head_seed)
    assert list(got.as_dict()) == list(want.as_dict())
    for (name, a), (_, b) in zip(got.items(), want.items()):
        assert a.shape == b.shape and np.array_equal(a.data, b.data), name
    rows = [*encoder_param_table(config), *GlobalPointerHead.PARAM_TABLE]
    assert [name for name, _, _ in rows] == list(got.as_dict())


# --- padded layout ---


@pytest.mark.parametrize(
    "counts", [(3, 3, 3), (5,), (1, 4, 2, 4)], ids=["uniform", "one", "ragged"]
)
@pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
def test_padding_matches_per_document_layout(counts, pairs):
    sizes = [n * n for n in counts] if pairs else list(counts)
    packed = np.random.default_rng(0).normal(size=(sum(sizes),) + (() if pairs else (3,)))
    packed[1] = -0.0  # told apart from +0.0 only bit for bit
    layout = Padding(counts, pairs)
    padded = layout.pad(packed)
    # The reference: each document's rows, or (n, n) block, in its own
    # corner of the (B, n, ...) array, and 0 in every other cell.
    n = max(counts)
    want = np.zeros((len(counts), n, n) if pairs else (len(counts), n, 3))
    starts = np.cumsum([0, *sizes])
    for b, m in enumerate(counts):
        block = packed[starts[b] : starts[b + 1]]
        if pairs:
            want[b, :m, :m] = block.reshape(m, m)
        else:
            want[b, :m] = block
    assert padded.tobytes() == want.tobytes()
    assert layout.unpad(padded).tobytes() == packed.tobytes()
    uniform = len(set(counts)) == 1
    assert (layout.mask is None) == uniform
    assert np.shares_memory(padded, packed) == uniform
    if not uniform:
        assert layout.mask.shape == padded.shape[: 3 if pairs else 2]
        assert not np.signbit(padded[~layout.mask]).any()
        assert not padded[~layout.mask].any()


# --- attention ---


def test_bias_softmax_example():
    # d_k = 1, zero logits, rho row picks out token 1 with lambda 1.
    q = Tensor(np.zeros((2, 1)))
    k = Tensor(np.zeros((2, 1)))
    bias = AttentionBias(np.array([[0, 1], [0, 0]]), [Tensor(np.array(1.0))])
    w = attention_weights(q, k, heads=1, bias=bias, layer=0)
    assert w.data[0, 0, 0] == pytest.approx((0.26894142, 0.73105858), abs=1e-6)
    assert w.data[0, 0, 1] == pytest.approx((0.5, 0.5))


def test_zero_lambda_matches_vanilla_exactly():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(5, 8)))
    k = Tensor(rng.normal(size=(5, 8)))
    v = Tensor(rng.normal(size=(5, 8)))
    rho = (rng.random((5, 5)) < 0.4).astype(float)
    bias = AttentionBias(rho, [Tensor(np.array(0.0))])
    plain = attention(q, k, v, 2, None, 0, Padding([5]))
    biased = attention(q, k, v, 2, bias, 0, Padding([5]))
    assert np.abs(plain.data - biased.data).max() <= 1e-12


def test_none_lambda_layer_is_untouched():
    rng = np.random.default_rng(4)
    q = Tensor(rng.normal(size=(4, 4)))
    k = Tensor(rng.normal(size=(4, 4)))
    bias = AttentionBias(np.ones((4, 4)) - np.eye(4), [None, Tensor(np.array(5.0))])
    assert np.array_equal(
        attention_weights(q, k, 2, bias, layer=0).data,
        attention_weights(q, k, 2).data,
    )
    # Past the configured list, no bias applies either.
    assert np.array_equal(
        attention_weights(q, k, 2, bias, layer=7).data,
        attention_weights(q, k, 2).data,
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40, derandomize=True, database=None)
def test_attention_rows_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    q = Tensor(rng.normal(scale=3.0, size=(n, 8)))
    k = Tensor(rng.normal(scale=3.0, size=(n, 8)))
    rho = (rng.random((n, n)) < 0.5).astype(float)
    bias = AttentionBias(rho, [Tensor(np.array(10.0))])
    w = attention_weights(q, k, heads=4, bias=bias, layer=0)
    assert np.abs(w.data.sum(axis=-1) - 1.0).max() <= 1e-9


def test_bias_weight_increases_with_lambda():
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(rng.normal(size=(3, 4)))
    rho = np.zeros((3, 3))
    rho[0, 2] = 1.0
    previous = -1.0
    for lam in (0.0, 1.0, 10.0):
        bias = AttentionBias(rho, [Tensor(np.array(lam))])
        w = attention_weights(q, k, heads=2, bias=bias, layer=0)
        current = w.data[0, 0, 0, 2]
        assert current > previous
        previous = current


def test_attention_shape_errors():
    q = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        attention_weights(q, Tensor(np.zeros((2, 4))), heads=2)
    with pytest.raises(ValueError):
        attention(q, q, Tensor(np.zeros((2, 4))), 2, None, 0, Padding([3]))
    bad_bias = AttentionBias(np.zeros((2, 2)), [Tensor(np.array(1.0))])
    with pytest.raises(ValueError):
        attention_weights(q, q, heads=2, bias=bad_bias)
    with pytest.raises(ValueError):
        AttentionBias(np.full((2, 2), 0.5), [None])
    with pytest.raises(ValueError, match="square"):
        AttentionBias(np.zeros((2, 3)), [None])


# --- encoder ---


def test_zero_layer_encoder_is_identity_on_embeddings():
    cfg = EncoderConfig(layers=0, model_dim=8, heads=2, vocab_hash_size=16)
    store = init_encoder_params(cfg, seed=1)
    texts, bxs = tiny_inputs()
    out = encoder_forward(cfg, store, texts, bxs)
    expected = embed(cfg, store, list(zip(texts, bxs)), [len(texts)])
    assert np.array_equal(out.data, expected.data)


def test_encoder_deterministic():
    store = init_encoder_params(SMALL, seed=2)
    texts, bxs = tiny_inputs(4)
    a = encoder_forward(SMALL, store, texts, bxs)
    b = encoder_forward(SMALL, store, texts, bxs)
    assert np.array_equal(a.data, b.data)


def test_encoder_requires_initialized_params():
    with pytest.raises(ParameterError):
        encoder_forward(SMALL, ParameterStore(), *tiny_inputs())


def test_encoder_rejects_misaligned_inputs():
    store = init_encoder_params(SMALL, seed=0)
    with pytest.raises(ValueError):
        encoder_forward(SMALL, store, ["a", "b"], boxes_for(3))


def test_encoder_bias_dimension_checked():
    store = init_encoder_params(SMALL, seed=0)
    texts, bxs = tiny_inputs(3)
    bias = AttentionBias(np.zeros((2, 2)), [Tensor(np.array(1.0))])
    with pytest.raises(ValueError):
        encoder_forward(SMALL, store, texts, bxs, bias=bias)


def test_encoder_gradients_match_finite_differences():
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, vocab_hash_size=8, ffn_dim=8)
    store = init_encoder_params(cfg, seed=3, coord_init="normal")
    texts, bxs = tiny_inputs(3)

    def loss():
        out = encoder_forward(cfg, store, texts, bxs)
        return (out * out).sum()

    worst = grad_check(loss, store.as_dict(), samples_per_param=2)
    assert worst < 1e-4, worst


def test_encoder_lambda_gradient_flows():
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, vocab_hash_size=8, ffn_dim=8)
    store = init_encoder_params(cfg, seed=4)
    lam = store.add("bias.lambda.0", np.array(2.0))
    texts, bxs = tiny_inputs(3)
    rho = np.zeros((3, 3))
    rho[0, 1] = rho[1, 2] = 1.0

    def loss():
        bias = AttentionBias(rho, [store["bias.lambda.0"]])
        out = encoder_forward(cfg, store, texts, bxs, bias=bias)
        return (out * out).sum()

    worst = grad_check(loss, {"lambda": lam}, samples_per_param=1)
    assert worst < 1e-4, worst
    assert lam.grad is not None and abs(lam.grad) > 0


# --- optimizer ---


def test_adamw_zero_gradient_shrinks_by_decay():
    store = ParameterStore()
    p = store.add("w", np.full(4, 2.0))
    p.grad = np.zeros(4)
    optimizer_step(store, learning_rate=0.5)
    assert np.allclose(p.data, 2.0 - 0.5 * 0.01 * 2.0)


def test_adamw_first_step_is_minus_lr():
    store = ParameterStore()
    p = store.add("w", np.array([0.0]))
    p.grad = np.array([1.0])
    optimizer_step(store, learning_rate=0.1)
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)  # the decay of 0.0 is 0.0


def test_adamw_deterministic_across_stores():
    def run():
        store = ParameterStore()
        p = store.add("w", np.arange(3, dtype=float))
        for step in range(5):
            p.grad = np.array([1.0, -2.0, 0.5]) * (step + 1)
            optimizer_step(store, learning_rate=0.01)
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adamw_requires_gradients():
    store = ParameterStore()
    store.add("w", np.zeros(2))
    with pytest.raises(MissingGradientError):
        optimizer_step(store, learning_rate=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_refuses_non_finite_gradient_and_names_it(bad):
    store = ParameterStore()
    a = store.add("a", np.ones(2))
    b = store.add("b", np.ones(3))
    a.grad = np.array([0.5, 0.5])
    b.grad = np.array([1.0, bad, 1.0])
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        optimizer_step(store, learning_rate=0.1)
    # Nothing moved, not even the parameter checked before the bad one.
    assert np.array_equal(a.data, np.ones(2))
    assert np.array_equal(b.data, np.ones(3))


def test_adamw_updates_scalar_parameters():
    # RORE's per-layer lambdas are 0-d parameters.
    store = ParameterStore()
    lam = store.add("lam", np.array(0.5))
    for step in range(3):
        lam.grad = np.array(1.0 + step)
        optimizer_step(store, learning_rate=0.1)
    state = store.opt_state("lam")
    assert lam.shape == () and state["m"].shape == () and state["v"].shape == ()
    m = v = 0.0
    for g in (1.0, 2.0, 3.0):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
    assert state["m"] == pytest.approx(m, rel=1e-12)
    assert state["v"] == pytest.approx(v, rel=1e-12)
    assert lam.item() < 0.5


def reference_adamw(store, state, learning_rate, weight_decay=0.01,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """The dense AdamW step: the whole formula over every element.

    ``state`` maps each name to its own ``t``, ``m`` and ``v``; no gradient
    check, since the oracle tests only compare finite steps.
    """
    for name, p in store.items():
        st = state.setdefault(
            name, {"t": 0, "m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
        )
        st["t"] += 1
        t = st["t"]
        st["m"] = beta1 * st["m"] + (1.0 - beta1) * p.grad
        st["v"] = beta2 * st["v"] + (1.0 - beta2) * p.grad**2
        m_hat = st["m"] / (1.0 - beta1**t)
        v_hat = st["v"] / (1.0 - beta2**t)
        p.data -= learning_rate * (
            m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data
        )


def gather_grad(table, sub_batches):
    """Backward through ``gather_rows`` once per (rows, upstream gradient)
    sub-batch, adding up, as ``rop.fit``'s sub-batches do: the way a lookup
    table gets its gradient and its record of the rows written."""
    for rows, weight in sub_batches:
        (gather_rows([table], [rows]) * Tensor(weight)).sum().backward()


def feed(store, ref, grads):
    """Give ``store`` and the reference the same gradients: a list of
    sub-batches goes through ``gather_rows`` on ``store`` and its result is
    copied to ``ref``; an array is set on both."""
    store.zero_grads()
    for name, grad in grads.items():
        if isinstance(grad, list):
            gather_grad(store[name], grad)
            grad = store[name].grad
        else:
            store[name].grad = grad.copy()
        if ref is not None:
            ref[name].grad = grad.copy()


def oracle_store():
    """Two tables, a weight, a bias and a scalar, with signed zeros."""
    rng = np.random.default_rng(7)
    store = ParameterStore()
    for name, shape in [("once", (6, 3)), ("late", (5, 3)), ("w", (4, 3)),
                        ("b", (3,)), ("s", ())]:
        values = rng.normal(size=shape)
        values.flat[-1] = -0.0
        store.add(name, values)
    return store


def oracle_grads(step, rng):
    """Step ``step``'s gradients. ``once`` is gathered at row 1 only at step
    0, at row 3 always and at row 4 with a zero upstream gradient; ``late``
    at row 2 with a zero upstream gradient until step 3; row 0 of ``w`` is
    always zero (partly -0.0)."""
    once = [([3, 4, 3], np.vstack([rng.normal(size=3), np.zeros(3), rng.normal(size=3)]))]
    if step == 0:
        once.append(([1], rng.normal(size=(1, 3))))
    late = [([2], rng.normal(size=(1, 3)) if step >= 3 else np.zeros((1, 3)))]
    w = rng.normal(size=(4, 3))
    w[0] = [0.0, -0.0, 0.0]
    return {"once": once, "late": late, "w": w, "b": rng.normal(size=3),
            "s": np.array(rng.normal())}


def assert_same_bytes(store, ref, ref_state):
    """Same values and step counts; a table's moments are the reference's
    masked rows, and the reference's other rows are exactly zero."""
    for name, p in store.items():
        assert p.data.tobytes() == ref[name].data.tobytes(), name
        st = store.opt_state(name)
        assert st["t"] == ref_state[name]["t"], name
        for key in ("m", "v"):
            expected = np.asarray(ref_state[name][key])
            if st["rows"] is not None:
                assert not expected[~st["rows"]].any(), (name, key)
                expected = expected[st["rows"]]
            assert np.asarray(st[key]).tobytes() == expected.tobytes(), (name, key)


def test_adamw_row_sparse_step_matches_dense_reference_bytes():
    store, ref, ref_state = oracle_store(), oracle_store(), {}
    rng = np.random.default_rng(3)
    for step in range(6):
        feed(store, ref, oracle_grads(step, rng))
        optimizer_step(store, learning_rate=0.05)
        reference_adamw(ref, ref_state, learning_rate=0.05)
        assert_same_bytes(store, ref, ref_state)
    # The masks are the rows gather_rows ever wrote, zero gradients included;
    # every other parameter is in the dense block.
    assert store.opt_state("once")["rows"].tolist() == [0, 1, 0, 1, 1, 0]
    assert store.opt_state("late")["rows"].tolist() == [0, 0, 1, 0, 0]
    for name in ("w", "b", "s"):
        assert store.opt_state(name)["rows"] is None
    # Moments are kept for the masked rows alone.
    assert store.opt_state("once")["m"].shape == store.opt_state("once")["v"].shape == (3, 3)
    assert store["once"].data[-1, -1] == 0.0
    assert np.signbit(store["once"].data[-1, -1])


def test_adamw_table_keeps_its_mask_once_every_row_had_a_gradient():
    store, ref, ref_state = ParameterStore(), ParameterStore(), {}
    for s in (store, ref):
        s.add("table", np.arange(12.0).reshape(4, 3))
    for step in range(5):
        feed(store, ref, {"table": [([step % 4], np.full((1, 3), step + 1.0))]})
        optimizer_step(store, learning_rate=0.1)
        reference_adamw(ref, ref_state, learning_rate=0.1)
        assert_same_bytes(store, ref, ref_state)
        rows = store.opt_state("table")["rows"]
        assert rows.tolist() == [r <= step for r in range(4)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_refuses_non_finite_gradient_in_an_idle_table_row(bad):
    store = oracle_store()
    rng = np.random.default_rng(3)
    for step in range(2):
        feed(store, None, oracle_grads(step, rng))
        optimizer_step(store, learning_rate=0.05)
    before = {
        name: (p.data.copy(), {k: np.copy(v) for k, v in store.opt_state(name).items()})
        for name, p in store.items()
    }
    grads = oracle_grads(2, rng)
    # Row 4 of ``late`` was never written before this step.
    grads["late"].append(([4], np.array([[0.5, bad, 0.5]])))
    feed(store, None, grads)
    with pytest.raises(NonFiniteGradientError, match="'late'"):
        optimizer_step(store, learning_rate=0.05)
    for name, p in store.items():
        data, state = before[name]
        assert p.data.tobytes() == data.tobytes(), name
        after = store.opt_state(name)
        assert after["t"] == state["t"]
        for key in ("m", "v", "rows"):
            assert np.asarray(after[key]).tobytes() == np.asarray(state[key]).tobytes()


def test_adamw_table_keeps_moments_for_its_masked_rows_and_one_table_of_scratch():
    store = ParameterStore()
    table = store.add("table", np.ones((200000, 8)))
    rng = np.random.default_rng(9)
    for _ in range(2):
        store.zero_grads()
        gather_grad(table, [([3, 7, 11], rng.normal(size=(3, 8)))])
        tracemalloc.start()
        try:
            optimizer_step(store, learning_rate=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The decay of the whole table needs one table-sized buffer; moments
        # and the update of the masked rows take a few rows.
        assert peak <= 1.1 * table.data.nbytes
    state = store.opt_state("table")
    assert state["m"].shape == state["v"].shape == (3, 8)
    assert np.flatnonzero(state["rows"]).tolist() == [3, 7, 11]


def test_adamw_one_rule_matches_the_per_parameter_dense_reference_bytes():
    """A table fed by gather_rows over two sub-batches, a weight with a row
    that never gets a gradient, a 1-D and a 0-D parameter, a parameter added
    after the first step, one whose ``data`` is rebound after it, one that
    switches from gather_rows to a set gradient and back, and its mirror,
    which switches from a set gradient to gather_rows and back. Each switcher
    keeps the route of its first step."""
    def build():
        rng = np.random.default_rng(21)
        store = ParameterStore()
        for name, shape in [("table", (7, 3)), ("w", (4, 3)), ("b", (3,)), ("s", ()),
                            ("switch", (5, 3)), ("mirror", (5, 3))]:
            store.add(name, rng.normal(size=shape))
        return store

    store, ref, ref_state = build(), build(), {}
    rng, mirror_rng = np.random.default_rng(22), np.random.default_rng(23)
    for step in range(6):
        if step == 2:
            for s in (store, ref):
                s.add("added", np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        if step == 3:
            rebound = store["w"].data * 0.5
            store["w"].data, ref["w"].data = rebound, rebound.copy()
        first = rng.integers(0, 4, size=5)
        w = rng.normal(size=(4, 3))
        w[2] = 0.0
        grads = {
            "table": [(first, rng.normal(size=(5, 3))), ([step % 7, 6], rng.normal(size=(2, 3)))],
            "w": w, "b": rng.normal(size=3), "s": np.array(rng.normal()),
            "switch": ([([1], rng.normal(size=(1, 3)))] if step in (0, 1, 4, 5)
                       else rng.normal(size=(5, 3))),
        }
        if step >= 2:
            grads["added"] = rng.normal(size=(2, 3))
        grads["mirror"] = ([([0, 3], mirror_rng.normal(size=(2, 3)))] if step in (2, 3)
                           else mirror_rng.normal(size=(5, 3)))
        feed(store, ref, grads)
        optimizer_step(store, learning_rate=0.05)
        reference_adamw(ref, ref_state, learning_rate=0.05)
        assert_same_bytes(store, ref, ref_state)
        # The set-first parameter stays in the dense block; the gathered-first
        # one stays a table, its mask every row after a step without a record.
        assert store.opt_state("mirror")["rows"] is None
        assert store["mirror"].data.base is store["b"].data.base
        assert store.opt_state("switch")["rows"].all() == (step >= 2)
    assert store.opt_state("table")["rows"].any()
    for name in ("w", "b", "s", "added"):
        assert store.opt_state(name)["rows"] is None
        assert store[name].data.base is store["b"].data.base  # one dense block


def test_training_and_demo_match_the_dense_reference_step(monkeypatch, tmp_path):
    from rorokit import rop
    from rorokit.rore import DemoConfig, rore_demo_entity_linking
    from rorokit.synth import SynthConfig, synth_forms, synth_generate

    corpus = synth_generate(SynthConfig(n_docs=24), seed=0)
    forms = synth_forms(20, seed=2)
    config = rop.ROPConfig(epochs=2, batch_size=8, seed=0)

    def run(tag):
        model, report = rop.train(corpus, config)
        model.save(tmp_path / f"{tag}.json")
        demo = rore_demo_entity_linking(forms, DemoConfig(epochs=2, seed=5))
        return ((tmp_path / f"{tag}.json").read_bytes(),
                json.dumps(asdict(report)), json.dumps(demo, sort_keys=True))

    sparse = run("sparse")
    states = {}

    def dense_step(store, learning_rate):
        # Holding each store keeps its id from being reused by a later one.
        _, state = states.setdefault(id(store), (store, {}))
        reference_adamw(store, state, learning_rate)

    monkeypatch.setattr(rop, "optimizer_step", dense_step)
    dense = run("dense")
    assert sparse[0] == dense[0]
    assert sparse[1] == dense[1]
    assert sparse[2] == dense[2]


def block_store():
    """A fully touched weight, a weight with an always-zero row (as a dead
    ReLU unit leaves in ``ffn.W2``), a bias and a scalar, each with a -0.0:
    all of them are in the dense block."""
    rng = np.random.default_rng(11)
    store = ParameterStore()
    for name, shape in [("dense", (4, 3)), ("dead", (4, 3)), ("b", (3,)), ("s", ())]:
        values = rng.normal(size=shape)
        values.flat[-1] = -0.0
        store.add(name, values)
    return store


def set_block_grads(stores, step, rng):
    """The same gradients on every store: row 0 of ``dead`` always zero,
    the -0.0 entries of ``dense`` and ``b`` a signed zero gradient."""
    for name, p in stores[0].items():
        grad = rng.normal(size=p.shape)
        if name == "dead":
            grad[0] = 0.0
        if name in ("dense", "b"):
            grad.flat[-1] = -0.0 if step % 2 else 0.0
        for store in stores:
            store[name].grad = grad.copy()


def test_adamw_dense_block_matches_dense_reference_bytes():
    store, ref, ref_state = block_store(), block_store(), {}
    rng = np.random.default_rng(5)
    for step in range(6):
        set_block_grads((store, ref), step, rng)
        optimizer_step(store, learning_rate=0.05)
        reference_adamw(ref, ref_state, learning_rate=0.05)
        assert_same_bytes(store, ref, ref_state)
    for name in ("dense", "dead", "b", "s"):
        assert store.opt_state(name)["rows"] is None
        assert store[name].shape == store.opt_state(name)["m"].shape
    assert np.signbit(store["dense"].data.flat[-1])


def test_adamw_dense_block_takes_one_call_from_the_first_step(monkeypatch):
    from rorokit import nn

    store = block_store()
    table = store.add("table", np.ones((6, 3)))
    adamw, sizes = nn._adamw, []

    def counting(data, *args):
        sizes.append(data.size)
        adamw(data, *args)

    monkeypatch.setattr(nn, "_adamw", counting)
    rng = np.random.default_rng(5)
    for step in range(4):
        set_block_grads((store,), step, rng)
        table.grad = table.grad_rows = None  # its gradient comes from gather_rows
        gather_grad(table, [([2, 2], rng.normal(size=(2, 3)))])  # only row 2
        sizes.clear()
        optimizer_step(store, learning_rate=0.05)
        # One call for dense, dead, b and s together (12 + 12 + 3 + 1
        # floats) and one for the table's row.
        assert sorted(sizes) == [3, 28]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("member", ["dense", "s"])
def test_adamw_refuses_non_finite_gradient_in_a_dense_block_member(member, bad):
    store = block_store()
    rng = np.random.default_rng(5)
    for step in range(2):
        set_block_grads((store,), step, rng)
        optimizer_step(store, learning_rate=0.05)
    before = {
        name: (p.data.copy(), {k: np.copy(v) for k, v in store.opt_state(name).items()})
        for name, p in store.items()
    }
    set_block_grads((store,), 2, rng)
    store[member].grad.flat[0] = bad
    with pytest.raises(NonFiniteGradientError, match=f"'{member}'"):
        optimizer_step(store, learning_rate=0.05)
    for name, p in store.items():
        data, state = before[name]
        assert p.data.tobytes() == data.tobytes(), name
        after = store.opt_state(name)
        assert after["t"] == state["t"]
        for key in ("m", "v", "rows"):
            assert np.asarray(after[key]).tobytes() == np.asarray(state[key]).tobytes()


def test_adamw_in_place_write_between_steps_is_what_the_next_step_updates():
    store, ref, ref_state = block_store(), block_store(), {}
    rng = np.random.default_rng(5)
    for step in range(4):
        if step == 2:  # as rop.fit's restore of the best epoch writes
            for s in (store, ref):
                for name, p in s.items():
                    p.data[...] = np.linspace(-1.0, 1.0, p.data.size).reshape(p.shape)
        set_block_grads((store, ref), step, rng)
        optimizer_step(store, learning_rate=0.05)
        reference_adamw(ref, ref_state, learning_rate=0.05)
        assert_same_bytes(store, ref, ref_state)


@pytest.mark.parametrize("edit", ["data", "moments", "added"])
def test_adamw_never_skips_an_array_rebound_or_added_after_the_layout(edit):
    store, ref, ref_state = block_store(), block_store(), {}
    rng = np.random.default_rng(5)
    for step in range(5):
        if step == 2 and edit == "data":
            rebound = store["b"].data * 0.5
            store["b"].data, ref["b"].data = rebound, rebound.copy()
        elif step == 2 and edit == "moments":
            state = store.opt_state("dense")
            for key in ("m", "v"):
                state[key] = state[key] * 0.5
                ref_state["dense"][key] = ref_state["dense"][key] * 0.5
        elif step == 2:
            for s in (store, ref):
                s.add("late", np.linspace(-1.0, 1.0, 3))
        set_block_grads((store, ref), step, rng)
        optimizer_step(store, learning_rate=0.05)
        reference_adamw(ref, ref_state, learning_rate=0.05)
        assert_same_bytes(store, ref, ref_state)
        # Laid out again: every member is a view of the one block.
        assert store["b"].data.base is store["dense"].data.base


# --- checkpoints ---


def extreme_store():
    """Edge values a lossless checkpoint keeps bit for bit: a negative zero,
    subnormals (one in a 0-D parameter) and the largest finite float64 of
    either sign."""
    store = ParameterStore()
    big = np.finfo(float).max
    store.add("x", np.array([[-0.0, 5e-324], [big, -big]]))
    store.add("s", np.array(np.finfo(float).tiny / 3))
    return store


def test_checkpoint_round_trip_exact_and_stable(tmp_path):
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, vocab_hash_size=8, ffn_dim=8)
    for store in (init_encoder_params(cfg, seed=5), extreme_store()):
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_checkpoint(path, asdict(cfg), store)
        loaded_cfg, loaded = load_checkpoint(path)
        assert EncoderConfig(**loaded_cfg) == cfg
        assert loaded.names() == store.names()
        for name, tensor in store.items():
            assert loaded[name].data.shape == tensor.data.shape
            assert loaded[name].data.tobytes() == tensor.data.tobytes()
        save_checkpoint(again, loaded_cfg, loaded)
        assert again.read_bytes() == path.read_bytes()


def one_json_text(config, store) -> bytes:
    """The reference checkpoint bytes: one ``json.dumps`` of the whole
    object with ``sort_keys``, plus a newline."""
    whole = {
        "format_version": 3,
        "config": config,
        "params": {
            name: {
                "shape": list(t.shape),
                "values": base64.b64encode(t.data.astype("<f8").tobytes()).decode(),
            }
            for name, t in store.items()
        },
    }
    return (json.dumps(whole, sort_keys=True) + "\n").encode("utf-8")


def test_saved_checkpoint_is_one_json_text(tmp_path):
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, vocab_hash_size=8, ffn_dim=8)
    escaped = extreme_store()
    escaped.add('q"uote', np.arange(3.0))
    escaped.add("é", np.ones((2, 0)))
    escaped.add("a\\b\n", np.array([[1.5]]))
    config = {"encoder": asdict(cfg), "note": {"b": [1.5, None], "a": "x\u00e9"}}
    path = tmp_path / "model.json"
    for store in (init_encoder_params(cfg, seed=6), escaped, ParameterStore()):
        save_checkpoint(path, config, store)
        assert path.read_bytes() == one_json_text(config, store)
    assert path.read_bytes().endswith(b'"params": {}}\n')


@pytest.mark.parametrize("config", [{"bad": {1, 2}}, {"nested": {"bad": object()}}])
def test_save_refuses_a_config_json_cannot_encode_and_writes_nothing(tmp_path, config):
    path = tmp_path / "model.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_checkpoint(path, config, extreme_store())
    assert not path.exists()


def test_save_peaks_below_the_size_of_the_file_it_writes(tmp_path):
    model = ROPModel.create(EncoderConfig(), ROPConfig(), np.random.default_rng(0))
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        save_checkpoint(path, {}, model.store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One parameter's base64 at a time; one json.dumps of the whole object
    # would hold the text, its base64 strings and its encoded copy, about
    # three times the file.
    assert peak < path.stat().st_size


def test_load_peaks_below_the_text_and_its_parsed_json(tmp_path):
    from rorokit import rop
    from rorokit.synth import SynthConfig, synth_generate

    corpus = synth_generate(SynthConfig(n_docs=8), seed=0)
    model, _ = rop.train(corpus, rop.ROPConfig(epochs=1, batch_size=8, seed=0))
    path = tmp_path / "model.json"
    model.save(path)
    tracemalloc.start()
    try:
        ROPModel.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The text and its parsed JSON, each about the file's size, are held
    # together only while parsing; the arrays are made after the text is let
    # go, each as its base64 string is. Holding all three peaked at 2.8x.
    assert peak <= 2.2 * path.stat().st_size


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_non_finite_parameter_and_writes_nothing(tmp_path, bad):
    store = extreme_store()
    store.add("w", np.array([[1.0, bad]]))
    path = tmp_path / "model.json"
    with pytest.raises(CheckpointError, match="parameter 'w' holds a value that is not a finite"):
        save_checkpoint(path, {}, store)
    assert not path.exists()


def test_checkpoint_version_checked():
    with pytest.raises(ValueError):
        checkpoint_from_json(json.loads('{"format_version": 9, "config": {}, "params": {}}'))
