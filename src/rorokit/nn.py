"""Toy text+layout transformer encoder with relation-aware attention.

Tokens are embedded as a hashed-text lookup plus four coordinate-bucket
lookups (x0, y0, x1, y1), then run through pre-norm transformer blocks.
Attention optionally adds a learnable per-layer scalar times a binary
token-pair matrix to the logits before the usual scaling, which lets known
succession structure steer attention without changing any shape.

Several documents can run as one packed input: their tokens follow one
another as rows, row-wise layers run once over all of them, and attention
stays within each document, in zero-padded (documents x heads x width x
width) arrays. One document is a pack of one, unpadded.

Everything is float64 and deterministic: same parameters and inputs give
bit-identical outputs, and checkpoints serialize to byte-stable JSON that
holds each parameter's exact float64 bytes.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .autodiff import Tensor, gather_rows, layer_norm, linear, softmax_lastdim
from .layout import BBox, check_field_types

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# AdamW's moment decays, denominator guard and decoupled weight decay.
BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


class TokenOverflowError(ValueError):
    """Token sequence longer than the configured maximum."""


class ParameterError(KeyError):
    """Parameter missing from or conflicting with a store."""


class MissingGradientError(RuntimeError):
    """Optimizer stepped a parameter whose gradient was never populated."""


class NonFiniteGradientError(ValueError):
    """Optimizer was handed a gradient holding NaN or infinity."""


class CheckpointError(ValueError):
    """Checkpoint content that cannot be loaded as parameters."""


def fnv1a_hash(text: str) -> int:
    value = FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


@functools.lru_cache(maxsize=1 << 16)
def _token_id(text: str, vocab_hash_size: int) -> int:
    """The token table row of ``text``; bounded, so a long run over an open
    vocabulary keeps only the most recent texts."""
    return fnv1a_hash(text) % vocab_hash_size


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    vocab_hash_size: int = 512
    coord_buckets: int = 1001
    max_tokens: int = 2048
    ffn_dim: int = 0  # 0 means 4 * model_dim

    def __post_init__(self):
        check_field_types(self)
        for name in ("layers", "ffn_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("model_dim", "heads", "vocab_hash_size", "coord_buckets", "max_tokens"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.model_dim % self.heads:
            raise ValueError("model_dim must be divisible by heads")
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.model_dim)


class ParameterStore:
    """Named float64 parameters plus per-parameter optimizer state.

    ``optimizer_step`` lays out the dense block: the ``data``, ``m`` and
    ``v`` of every parameter that is not a lookup table are views of three
    contiguous arrays (see ``optimizer_step``). Write into a parameter's
    ``data`` rather than rebind it: a rebound array is copied into a new
    layout at the next step.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._opt_state: dict[str, dict] = {}
        self._block: Optional[_DenseBlock] = None

    def add(self, name: str, values: np.ndarray) -> Tensor:
        """Store ``values`` as parameter ``name``. A writable float64 array is
        kept as it is, so hand over one that nothing else holds; anything
        else, a read-only array included, is copied into one."""
        if name in self._params:
            raise ParameterError(f"parameter {name!r} already exists")
        tensor = Tensor(np.require(values, np.float64, "W"), requires_grad=True)
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ParameterError(f"parameter {name!r} is not initialized") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(name, self._params[name]) for name in self.names()]

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grads(self) -> None:
        """Clear every gradient and the rows ``gather_rows`` recorded for it."""
        for p in self._params.values():
            p.grad = p.grad_rows = None

    def opt_state(self, name: str) -> dict:
        """AdamW state: step count ``t``, moments ``m`` and ``v``, and ``rows``.

        ``rows`` is a lookup table's sticky mask of the rows ``gather_rows``
        has ever written (all rows once a gradient came without a record),
        and its ``m`` and ``v`` hold one row per masked row, in ascending row
        order: every other row's moments are exactly 0, so none are kept.
        ``rows`` is ``None`` for every parameter in the dense block, whose
        ``m`` and ``v`` are shaped like the parameter (see ``optimizer_step``).
        A parameter that has not stepped yet gets zero moments shaped like it.
        """
        if name not in self._params:
            raise ParameterError(f"parameter {name!r} is not initialized")
        if name not in self._opt_state:
            p = self._params[name]
            self._opt_state[name] = {
                "t": 0,
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
                "rows": None,
            }
        return self._opt_state[name]


# ---------------------------------------------------------------------------
# Initialization


def sinusoidal_table(index: int, shape: tuple) -> np.ndarray:
    """A (buckets, d) coordinate table holding, in column quarter ``index``,
    sin/cos features of the bucket indices across periods log-spaced from 50
    to 2000, and zeros elsewhere; the quarter must be even."""
    buckets, quarter = shape[0], shape[1] // 4
    periods = np.geomspace(50.0, 2000.0, quarter // 2)
    angles = 2.0 * np.pi * np.arange(buckets)[:, None] / periods[None, :]
    table = np.zeros(shape)
    table[:, index * quarter : (index + 1) * quarter : 2] = np.sin(angles)
    table[:, index * quarter + 1 : (index + 1) * quarter : 2] = np.cos(angles)
    return table


# One encoder block's parameters under "enc.l{layer}.": (name, size fields, init).
_VECTOR, _SQUARE = ("model_dim",), ("model_dim", "model_dim")
_LAYER_TABLE = (
    ("ln1.gain", _VECTOR, np.ones), ("ln1.bias", _VECTOR, np.zeros),
    *((f"attn.{proj}", _SQUARE, "normal") for proj in ("Wq", "Wk", "Wv", "Wo")),
    *((f"attn.{proj}", _VECTOR, np.zeros) for proj in ("bq", "bv", "bo")),
    ("ln2.gain", _VECTOR, np.ones), ("ln2.bias", _VECTOR, np.zeros),
    ("ffn.W1", ("model_dim", "ffn_dim"), "normal"), ("ffn.b1", ("ffn_dim",), np.zeros),
    ("ffn.W2", ("ffn_dim", "model_dim"), "normal"), ("ffn.b2", _VECTOR, np.zeros),
)


def encoder_param_table(config: EncoderConfig, coord_init: str = "sinusoidal"):
    """``(name, size fields, init)`` of every encoder parameter, in draw
    order (see ``add_params``).

    Coordinate tables default to sinusoidal features laid out in disjoint
    dimension quarters (one per box coordinate), so summed embeddings remain
    injective in geometry from the first step; they stay fully learnable.
    """
    if coord_init not in ("sinusoidal", "normal"):
        raise ValueError(f"unknown coord_init {coord_init!r}")
    yield "enc.tok_embed", ("vocab_hash_size", "model_dim"), "normal"
    quarter = config.model_dim // 4
    sinusoidal = coord_init == "sinusoidal" and quarter >= 2 and quarter % 2 == 0
    for idx, coord in enumerate(("x0", "y0", "x1", "y1")):
        init = functools.partial(sinusoidal_table, idx) if sinusoidal else "normal"
        yield f"enc.coord_{coord}", ("coord_buckets", "model_dim"), init
    for layer in range(config.layers):
        for name, fields, init in _LAYER_TABLE:
            yield f"enc.l{layer}.{name}", fields, init


def add_params(store: ParameterStore, rows, sizes: dict, rng, section: str) -> None:
    """Add each ``(name, size fields, init)`` row's parameter to ``store``, in
    row order, shaped by the fields' values in ``sizes``: drawn by ``rng``
    from N(0, 0.02^2) when ``init`` is "normal", else ``init(shape)``. One
    too large to allocate (past numpy's shape limit, or more memory than the
    process can get) raises ``ValueError`` naming its largest size field.
    """
    for name, fields, init in rows:
        shape = tuple(sizes[f] for f in fields)
        try:
            store.add(name, rng.normal(0.0, 0.02, shape) if init == "normal" else init(shape))
        except (MemoryError, ValueError):
            field = max(fields, key=sizes.get)
            dims = " x ".join(f if f == field else str(sizes[f]) for f in fields)
            raise ValueError(
                f"{section} {field} is too large: a table of {dims} "
                f"float64 values cannot be allocated"
            ) from None


def init_encoder_params(
    config: EncoderConfig,
    seed: int = 0,
    store: Optional[ParameterStore] = None,
    coord_init: str = "sinusoidal",
) -> ParameterStore:
    """Create all encoder parameters under ``enc.``, in the order of
    ``encoder_param_table``."""
    rows = encoder_param_table(config, coord_init)
    store = ParameterStore() if store is None else store
    add_params(store, rows, vars(config), np.random.default_rng(seed), "encoder")
    return store


# ---------------------------------------------------------------------------
# Forward passes


def embed(
    config: EncoderConfig,
    params: ParameterStore,
    tokens: Sequence[tuple[str, BBox]],
    lengths: Sequence[int],
) -> Tensor:
    """Token-hash embedding plus the four coordinate-bucket embeddings.

    ``lengths`` gives the token count of each document packed one after
    another in ``tokens``. The token budget applies to each document.
    """
    if sum(lengths) != len(tokens):
        raise ValueError(
            f"lengths sum to {sum(lengths)}, but there are {len(tokens)} tokens"
        )
    if max(lengths, default=0) > config.max_tokens:
        raise TokenOverflowError(
            f"{max(lengths)} tokens exceed max_tokens={config.max_tokens}"
        )
    if not tokens or min(lengths) == 0:
        raise ValueError("cannot embed an empty token sequence")
    ids = [_token_id(t, config.vocab_hash_size) for t, _ in tokens]
    # Coordinates outside [0, coord_buckets) fall into the edge buckets.
    buckets = np.clip(
        np.array([(b.x0, b.y0, b.x1, b.y1) for _, b in tokens], dtype=np.int64),
        0,
        config.coord_buckets - 1,
    )
    tables = [params["enc.tok_embed"]]
    tables += [params[f"enc.coord_{c}"] for c in ("x0", "y0", "x1", "y1")]
    return gather_rows(tables, [ids, *buckets.T])


@dataclass
class AttentionBias:
    """Binary token-pair matrices with one learnable scalar weight per layer.

    ``rho`` holds one square {0, 1} matrix per document of a packed input;
    a single matrix stands for one document. ``lambdas[l]`` is the weight
    applied at layer ``l``; ``None`` entries leave that layer's attention
    untouched.
    """

    rho: Union[np.ndarray, Sequence[np.ndarray]]
    lambdas: Sequence[Optional[Tensor]]

    def __post_init__(self):
        blocks = [self.rho] if isinstance(self.rho, np.ndarray) else self.rho
        self.rho = tuple(np.asarray(r, dtype=np.float64) for r in blocks)
        for r in self.rho:
            if r.ndim != 2 or r.shape[0] != r.shape[1]:
                raise ValueError("rho must be a square matrix")
            if not ((r == 0.0) | (r == 1.0)).all():
                raise ValueError("rho entries must be 0 or 1")

    def lambda_at(self, layer: int) -> Optional[Tensor]:
        if layer >= len(self.lambdas):
            return None
        return self.lambdas[layer]


class Padding:
    """Documents packed one after another, laid out as one zero-padded array.

    ``counts`` gives each document's row count. ``pad`` turns the packed
    rows into one (B, n, ...) array, n being the largest count, and
    ``unpad`` takes them back out. With ``pairs`` the documents' flattened
    (count, count) blocks map to and from one (B, n, n) array instead.
    ``shape`` is (B, n), or (B, n, n) with ``pairs``. ``mask`` marks the
    cells that hold the documents' rows; it is None when every document has
    n rows, as in a pack of one, and then both are reshapes. Only a ragged
    pack scatters into zero padding and gathers back out, through the
    precomputed flat indices of ``mask``.
    """

    def __init__(self, counts: Sequence[int], pairs: bool = False):
        self.counts = tuple(counts)
        n = max(self.counts)
        self.shape = (len(self.counts), n, n) if pairs else (len(self.counts), n)
        self.mask = self._index = None
        if min(self.counts) < n:
            rows = np.arange(n) < np.array(self.counts)[:, None]
            self.mask = rows[:, :, None] & rows[:, None, :] if pairs else rows
            self._index = np.flatnonzero(self.mask)

    def pad(self, packed: np.ndarray) -> np.ndarray:
        shape = self.shape + packed.shape[1:]
        if self._index is None:
            return packed.reshape(shape)
        padded = np.zeros(shape)
        padded.reshape((-1,) + packed.shape[1:])[self._index] = packed
        return padded

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        rows = padded.reshape((-1,) + padded.shape[len(self.shape) :])
        return rows if self._index is None else rows.take(self._index, axis=0)


def _split_heads(layout: Padding, x: np.ndarray, heads: int) -> np.ndarray:
    """(rows, d) -> (B, heads, width, d // heads); padded slots are 0."""
    return layout.pad(x).reshape(layout.shape + (heads, -1)).transpose(0, 2, 1, 3)


def _merge_heads(layout: Padding, x: np.ndarray) -> np.ndarray:
    """(B, heads, width, d_k) -> (rows, heads * d_k), padded slots dropped."""
    return layout.unpad(x.transpose(0, 2, 1, 3)).reshape(-1, x.shape[1] * x.shape[3])


def attention_weights(
    q: Tensor,
    k: Tensor,
    heads: int,
    bias: Optional[AttentionBias] = None,
    layer: int = 0,
    layout: Optional[Padding] = None,
) -> Tensor:
    """Per-head attention rows; every row sums to 1.

    The result is [B, heads, width, width] over a pack of B documents, each
    attending only within its own block and never to padded keys; ``bias``
    holds one matrix per document. None for ``layout`` means the rows are
    one document, a pack of one. The logits
    ``(q.k + lambda * rho) / sqrt(d_k)`` are one node, the softmax another.
    """
    if q.shape != k.shape or len(q.shape) != 2:
        raise ValueError(f"query/key shapes must match, got {q.shape} vs {k.shape}")
    n, d = q.shape
    if d % heads:
        raise ValueError("model dim must be divisible by heads")
    if layout is None:
        layout = Padding([n])
    lam = None
    if bias is not None:
        if [r.shape for r in bias.rho] != [(m, m) for m in layout.counts]:
            raise ValueError(
                f"bias matrices are {[r.shape for r in bias.rho]}, expected "
                f"{[(m, m) for m in layout.counts]}"
            )
        lam = bias.lambda_at(layer)
    qh = _split_heads(layout, q.data, heads)
    kh = _split_heads(layout, k.data, heads)
    scale = 1.0 / np.sqrt(d // heads)
    logits = qh @ kh.swapaxes(-1, -2)
    if lam is not None:
        # The biased logit is (q.k + lambda*rho) / sqrt(d_k): the bias
        # term shares the scaling divisor.
        blocks = np.concatenate([r.reshape(-1) for r in bias.rho])
        rho = Padding(layout.counts, pairs=True).pad(blocks)[:, None]
        logits = logits + lam.data * rho
    logits = logits * scale
    if layout.mask is not None:
        np.copyto(logits, -np.inf, where=~layout.mask[:, None, None, :])
    parents = (q, k) if lam is None else (q, k, lam)
    out = Tensor(logits, any(p.requires_grad for p in parents), parents)

    def backward(grad):
        g = grad * scale
        if lam is not None and lam.requires_grad:
            lam._accumulate((g * rho).sum())
        if q.requires_grad:
            q._accumulate(_merge_heads(layout, g @ kh))
        if k.requires_grad:
            k._accumulate(_merge_heads(layout, g.swapaxes(-1, -2) @ qh))

    out._backward = backward
    return softmax_lastdim(out)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    bias: Optional[AttentionBias],
    layer: int,
    layout: Padding,
) -> Tensor:
    """Multi-head scaled dot-product attention over projected q/k/v rows.

    ``layout`` splits the rows into packed documents (see ``encoder_forward``).
    The weighted values, heads merged back, are one (n, d) node after the
    attention rows.
    """
    if v.shape != q.shape:
        raise ValueError(f"value shape {v.shape} must match query {q.shape}")
    weights = attention_weights(q, k, heads, bias, layer, layout)
    vh = _split_heads(layout, v.data, heads)
    needs_grad = v.requires_grad or weights.requires_grad
    out = Tensor(_merge_heads(layout, weights.data @ vh), needs_grad, (weights, v))

    def backward(grad):
        g = _split_heads(layout, grad, heads)
        if weights.requires_grad:
            weights._accumulate(g @ vh.swapaxes(-1, -2))
        if v.requires_grad:
            v._accumulate(_merge_heads(layout, weights.data.swapaxes(-1, -2) @ g))

    out._backward = backward
    return out


def encoder_forward(
    config: EncoderConfig,
    params: ParameterStore,
    tokens: Sequence[str],
    boxes: Sequence[BBox],
    bias: Optional[AttentionBias] = None,
    lengths: Optional[Sequence[int]] = None,
) -> Tensor:
    """Pre-norm transformer encoder; L=0 returns the embeddings unchanged.

    ``lengths`` gives the token count of each document packed one after
    another in ``tokens``/``boxes``; None means one document. Embeddings,
    layer norms, projections and the FFN run once over all rows; attention
    runs over one padded pack of all the documents, each attending within
    itself, and ``bias`` then holds one matrix per document. ``max_tokens``
    bounds each document, not the forward: callers bound a forward by what
    they pack into it.
    """
    if len(tokens) != len(boxes):
        raise ValueError("tokens and boxes must align")
    lengths = [len(tokens)] if lengths is None else list(lengths)
    x = embed(config, params, list(zip(tokens, boxes)), lengths)
    layout = Padding(lengths)
    for layer in range(config.layers):
        base = f"enc.l{layer}."
        h = layer_norm(x, params[base + "ln1.gain"], params[base + "ln1.bias"])
        q = linear(h, params[base + "attn.Wq"], params[base + "attn.bq"])
        # No key bias: the softmax cancels the q.b it adds to a query's logits.
        k = h @ params[base + "attn.Wk"]
        v = linear(h, params[base + "attn.Wv"], params[base + "attn.bv"])
        attended = attention(q, k, v, config.heads, bias, layer, layout)
        x = linear(attended, params[base + "attn.Wo"], params[base + "attn.bo"], x)
        h = layer_norm(x, params[base + "ln2.gain"], params[base + "ln2.bias"])
        inner = linear(h, params[base + "ffn.W1"], params[base + "ffn.b1"]).relu()
        x = linear(inner, params[base + "ffn.W2"], params[base + "ffn.b2"], x)
    return x


# ---------------------------------------------------------------------------
# Optimizer


def optimizer_step(store: ParameterStore, learning_rate: float) -> None:
    """One AdamW update over every stored parameter, with ``BETA1``,
    ``BETA2``, ``EPS`` and the decoupled ``WEIGHT_DECAY``.

    Every gradient is checked before any parameter moves: a missing or
    non-finite gradient raises, naming the parameter, and leaves the store
    unchanged.

    One rule, two exact routes, and each parameter keeps the route of its
    first step (no optimizer state yet, or ``t == 0``). A lookup table, a
    parameter whose first gradient ``gather_rows`` wrote (``grad_rows`` is
    set), has a sticky mask ``opt_state(name)["rows"]`` that grows by the
    recorded rows, or by every row for a gradient without a record; only
    those rows are checked for finiteness, and only the masked rows get the
    full update, on moments kept for the masked rows alone (see
    ``opt_state``). Every other row never had a gradient, so its moments
    would be exactly 0 and the full formula reduces, bit for bit, to the
    decoupled decay ``p -= lr * (0.0 + WEIGHT_DECAY * p)``, all the step
    computes for it. Every other parameter gets the full formula, exact for
    every row, in the one dense block (see ``_DenseBlock``). The arithmetic
    runs in place, on one scratch buffer shared by all parameters.
    """
    tables, dense = [], []
    for name, p in store.items():
        if p.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        state = store._opt_state.get(name, {"t": 0})
        if (state["rows"] if state["t"] else p.grad_rows) is None:
            dense.append((name, p, store.opt_state(name)))
            continue
        recorded = np.ones(len(p.data), dtype=bool) if p.grad_rows is None else p.grad_rows
        _check_finite(name, p.grad[recorded])
        tables.append((name, p, recorded))
    block = store._block
    if block is None or not block.holds(dense):
        store._block = block = _DenseBlock(dense)
    block.gather_grads()
    tables = [(p, _table_state(store, name, p, recorded)) for name, p, recorded in tables]
    # Two buffers for the block or a table's masked rows, one for a decay.
    sizes = [2 * block.grad.size]
    for p, state in tables:
        sizes += [2 * state["m"].size, p.data.size]
    scratch = np.empty(max(sizes))
    block.step(learning_rate, scratch)
    for p, state in tables:
        state["t"] += 1
        # Decay every row, then overwrite the masked rows with their full
        # update, computed from a copy of their values before the decay.
        idx = np.flatnonzero(state["rows"])
        data = p.data[idx]
        _decay(p.data, 0.0, learning_rate, scratch)
        _adamw(data, p.grad[idx], state["m"], state["v"], state["t"], learning_rate, scratch)
        p.data[idx] = data


def _table_state(store: ParameterStore, name: str, p: Tensor, recorded: np.ndarray) -> dict:
    """Table ``name``'s optimizer state with its mask grown by the rows
    ``recorded``, and its moments over the grown mask's rows, each new row's
    moments 0.0. A table at its first step starts from an empty mask."""
    state = store._opt_state.get(name)
    if state is None or state["t"] == 0:
        empty = (0,) + p.shape[1:]
        state = {"t": 0, "m": np.zeros(empty), "v": np.zeros(empty),
                 "rows": np.zeros(len(p.data), dtype=bool)}
    rows = state["rows"] | recorded
    count = int(rows.sum())
    if count > len(state["m"]):
        kept = state["rows"][rows]  # the old rows among the new, in row order
        for key in ("m", "v"):
            moments = np.zeros((count,) + p.shape[1:])
            moments[kept] = state[key]
            state[key] = moments
    state["rows"] = rows
    store._opt_state[name] = state
    return state


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise NonFiniteGradientError(f"parameter {name!r} has a non-finite gradient")


class _DenseBlock:
    """(name, parameter, optimizer state) triples of the parameters that are
    not lookup tables, in store order, whose ``data``, ``m``, ``v`` and
    gradient are views of four contiguous arrays. ``_adamw`` is elementwise,
    so one call over them all is byte-identical to one call per member.
    ``optimizer_step`` lays the block out again, copying the values in,
    whenever its members or a member's ``data``, ``m`` or ``v`` change.
    """

    def __init__(self, members: list[tuple[str, Tensor, dict]]):
        self.members = members
        total = sum(p.data.size for _, p, _ in members)
        self.data, self.m, self.v, self.grad = np.empty((4, total))
        self.views = []
        start = 0
        for _, p, state in members:
            end = start + p.data.size
            views = tuple(
                block[start:end].reshape(p.data.shape)
                for block in (self.data, self.m, self.v, self.grad)
            )
            for view, values in zip(views, (p.data, state["m"], state["v"])):
                view[...] = values
            p.data, state["m"], state["v"] = views[:3]
            self.views.append(views)
            start = end

    def holds(self, members: list[tuple[str, Tensor, dict]]) -> bool:
        """Whether the block is laid out for exactly ``members``, each still
        holding its views, so that an update of the block is an update of
        every member."""
        return len(members) == len(self.members) and all(
            p is q and p.data is data and state["m"] is m and state["v"] is v
            for (_, p, state), (_, q, _), (data, m, v, _) in zip(
                members, self.members, self.views
            )
        )

    def gather_grads(self) -> None:
        """Copy the members' gradients into ``grad`` and check them once;
        a non-finite one raises, naming its member."""
        for (_, p, _), views in zip(self.members, self.views):
            views[3][...] = p.grad
        if not np.isfinite(self.grad).all():
            for name, p, _ in self.members:
                _check_finite(name, p.grad)

    def step(self, learning_rate, scratch) -> None:
        """One ``_adamw`` call per run of neighbouring members whose step
        counts, and so bias corrections, agree (a parameter added late)."""
        start = 0
        for t, run in itertools.groupby(self.members, key=lambda member: member[2]["t"]):
            run = list(run)
            for _, _, state in run:
                state["t"] = t + 1
            part = slice(start, start + sum(p.data.size for _, p, _ in run))
            block = self.data[part], self.grad[part], self.m[part], self.v[part]
            _adamw(*block, t + 1, learning_rate, scratch)
            start = part.stop


def _buffer(scratch: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A view of the front of a flat scratch buffer, shaped like ``like``."""
    return scratch[: like.size].reshape(like.shape)


def _decay(data, direction, learning_rate, scratch) -> None:
    """``data -= lr * (direction + WEIGHT_DECAY * data)`` in place: AdamW's
    last line."""
    s = _buffer(scratch, data)
    np.multiply(data, WEIGHT_DECAY, out=s)
    np.add(direction, s, out=s)
    s *= learning_rate
    data -= s


def _adamw(data, grad, m, v, t, learning_rate, scratch) -> None:
    """The AdamW formula, in place on ``data``, ``m`` and ``v`` of one shape;
    ``scratch`` holds at least twice their size."""
    s, d = _buffer(scratch, data), _buffer(scratch[data.size :], data)
    np.multiply(grad, 1.0 - BETA1, out=s)
    m *= BETA1
    m += s
    np.multiply(grad, grad, out=s)
    s *= 1.0 - BETA2
    v *= BETA2
    v += s
    np.divide(m, 1.0 - BETA1**t, out=d)
    np.divide(v, 1.0 - BETA2**t, out=s)
    np.sqrt(s, out=s)
    s += EPS
    d /= s
    _decay(data, d, learning_rate, scratch)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, config: dict, store: ParameterStore) -> None:
    """Write the checkpoint's JSON text: ``config`` and each parameter's
    ``shape`` as plain JSON, its ``values`` as base64 of its little-endian
    float64 bytes; ``sort_keys`` and the exact bytes make it byte-stable and
    lossless.

    The text is written one parameter at a time, in sorted-name order, so
    only one parameter's base64 is held at once; its bytes equal one
    ``json.dumps`` of the whole object with ``sort_keys``, plus a newline.
    Everything that can refuse runs before the file is opened, so a refusal
    writes nothing: a parameter holding NaN or infinity, which
    ``checkpoint_from_json`` refuses, raises ``CheckpointError`` naming it,
    and a config that ``json`` cannot encode raises as ``json.dumps`` does.
    """
    params = store.items()
    for name, t in params:
        if not np.isfinite(t.data).all():
            raise CheckpointError(
                f"parameter {name!r} holds a value that is not a finite number"
            )
    config_text = json.dumps(config, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(f'{{"config": {config_text}, "format_version": 3, "params": {{'.encode())
        for i, (name, t) in enumerate(params):
            key, shape = json.dumps(name), json.dumps(list(t.shape))
            lead = ", " if i else ""
            fh.write(f'{lead}{key}: {{"shape": {shape}, "values": "'.encode())
            fh.write(base64.b64encode(np.ascontiguousarray(t.data, dtype="<f8")))
            fh.write(b'"}')
        fh.write(b"}}\n")


def checkpoint_from_json(obj) -> tuple[dict, ParameterStore]:
    """Config and parameters of a checkpoint's parsed JSON.

    ``obj`` must be a format-3 object with a ``config`` object and a
    ``params`` object, each parameter an object with a ``shape`` (a list of
    sizes) and ``values``, base64 of 8 bytes per element of the shape, each
    a finite float64; otherwise ``CheckpointError`` names what is wrong.
    Each parameter's entry is popped from ``params`` as it is decoded, so
    its base64 text is let go before the next one's values are made.
    """
    if not isinstance(obj, dict):
        kind = type(obj).__name__
        raise CheckpointError(f"checkpoint holds a JSON {kind}, not an object")
    version = obj.get("format_version")
    if version != 3:
        raise CheckpointError(f"unsupported checkpoint format_version: {version!r}")
    for section in ("config", "params"):
        if not isinstance(obj.get(section), dict):
            raise CheckpointError(f"checkpoint has no {section!r} object")
    store = ParameterStore()
    for name in sorted(obj["params"]):
        entry = obj["params"].pop(name)
        for key in ("shape", "values"):
            if not isinstance(entry, dict) or key not in entry:
                raise CheckpointError(f"parameter {name!r} has no {key!r} field")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
            type(size) is int and size >= 0 for size in shape
        ):
            raise CheckpointError(
                f"parameter {name!r} has shape {shape!r}, not a list of sizes"
            )
        try:
            raw = base64.b64decode(entry["values"], validate=True)
        except (TypeError, ValueError):  # not text, or not base64
            raise CheckpointError(
                f"parameter {name!r} has values that are not base64 text"
            ) from None
        needed = 8 * math.prod(shape)
        if len(raw) != needed:
            raise CheckpointError(
                f"parameter {name!r} has {len(raw)} value bytes, but its shape "
                f"{shape} needs {needed}"
            )
        values = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(values).all():
            raise CheckpointError(
                f"parameter {name!r} holds a value that is not a finite number"
            )
        store.add(name, values.reshape(shape))  # read-only, so copied
    return obj["config"], store


def load_checkpoint(path) -> tuple[dict, ParameterStore]:
    """Config and parameters of the checkpoint at ``path``. The file's text
    is let go once parsed, and each base64 string once decoded, so the text,
    the parsed JSON and the arrays are never all held at once."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return checkpoint_from_json(obj)
