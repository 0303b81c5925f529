"""Toy text+layout transformer encoder with relation-aware attention.

Tokens are embedded as a hashed-text lookup plus four coordinate-bucket
lookups (x0, y0, x1, y1), then run through pre-norm transformer blocks.
Attention optionally adds a learnable per-layer scalar times a binary
token-pair matrix to the logits before the usual scaling, which lets known
succession structure steer attention without changing any shape.

Everything is float64 and deterministic: same parameters and inputs give
bit-identical outputs, and checkpoints serialize to byte-stable JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, gather_rows, layer_norm, softmax_lastdim
from .layout import BBox

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class TokenOverflowError(ValueError):
    """Token sequence longer than the configured maximum."""


class ParameterError(KeyError):
    """Parameter missing from or conflicting with a store."""


class MissingGradientError(RuntimeError):
    """Optimizer stepped a parameter whose gradient was never populated."""


class NonFiniteGradientError(ValueError):
    """Optimizer was handed a gradient holding NaN or infinity."""


def fnv1a_hash(text: str) -> int:
    value = FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


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
        if self.layers < 0:
            raise ValueError("layers must be non-negative")
        for name in ("model_dim", "heads", "vocab_hash_size", "coord_buckets", "max_tokens"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.model_dim % self.heads:
            raise ValueError("model_dim must be divisible by heads")
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.model_dim)

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EncoderConfig":
        return cls(**obj)


class ParameterStore:
    """Named float64 parameters plus per-parameter optimizer state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._opt_state: dict[str, dict] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise ParameterError(f"parameter {name!r} already exists")
        tensor = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ParameterError(f"parameter {name!r} is not initialized") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(name, self._params[name]) for name in self.names()]

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def opt_state(self, name: str) -> dict:
        if name not in self._params:
            raise ParameterError(f"parameter {name!r} is not initialized")
        if name not in self._opt_state:
            p = self._params[name]
            self._opt_state[name] = {
                "t": 0,
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
            }
        return self._opt_state[name]


# ---------------------------------------------------------------------------
# Initialization


def sinusoidal_rows(n_values: int, dim: int, min_period: float = 50.0,
                    max_period: float = 2000.0) -> np.ndarray:
    """Sin/cos features of the integers [0, n_values) across log-spaced periods."""
    if dim % 2:
        raise ValueError("sinusoidal feature dimension must be even")
    periods = np.geomspace(min_period, max_period, dim // 2)
    angles = 2.0 * np.pi * np.arange(n_values)[:, None] / periods[None, :]
    out = np.empty((n_values, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def init_encoder_params(
    config: EncoderConfig,
    seed: int = 0,
    store: Optional[ParameterStore] = None,
    coord_init: str = "sinusoidal",
) -> ParameterStore:
    """Create all encoder parameters under ``enc.`` in a deterministic order.

    Coordinate tables default to sinusoidal features laid out in disjoint
    dimension quarters (one per box coordinate), so summed embeddings remain
    injective in geometry from the first step; they stay fully learnable.
    """
    if store is None:
        store = ParameterStore()
    rng = np.random.default_rng(seed)
    d = config.model_dim

    store.add("enc.tok_embed", rng.normal(0.0, 0.02, size=(config.vocab_hash_size, d)))
    quarter = d // 4
    for idx, coord in enumerate(("x0", "y0", "x1", "y1")):
        if coord_init == "sinusoidal" and quarter >= 2 and quarter % 2 == 0:
            table = np.zeros((config.coord_buckets, d))
            table[:, idx * quarter : (idx + 1) * quarter] = sinusoidal_rows(
                config.coord_buckets, quarter
            )
        elif coord_init in ("sinusoidal", "normal"):
            table = rng.normal(0.0, 0.02, size=(config.coord_buckets, d))
        else:
            raise ValueError(f"unknown coord_init {coord_init!r}")
        store.add(f"enc.coord_{coord}", table)

    for layer in range(config.layers):
        base = f"enc.l{layer}."
        store.add(base + "ln1.gain", np.ones(d))
        store.add(base + "ln1.bias", np.zeros(d))
        for proj in ("Wq", "Wk", "Wv", "Wo"):
            store.add(base + "attn." + proj, rng.normal(0.0, 0.02, size=(d, d)))
        for proj in ("bq", "bk", "bv", "bo"):
            store.add(base + "attn." + proj, np.zeros(d))
        store.add(base + "ln2.gain", np.ones(d))
        store.add(base + "ln2.bias", np.zeros(d))
        store.add(base + "ffn.W1", rng.normal(0.0, 0.02, size=(d, config.ffn_dim)))
        store.add(base + "ffn.b1", np.zeros(config.ffn_dim))
        store.add(base + "ffn.W2", rng.normal(0.0, 0.02, size=(config.ffn_dim, d)))
        store.add(base + "ffn.b2", np.zeros(d))
    return store


# ---------------------------------------------------------------------------
# Forward passes


def _coord_bucket(value: int, buckets: int) -> int:
    return min(max(int(value), 0), buckets - 1)


def embed(
    config: EncoderConfig,
    params: ParameterStore,
    tokens: Sequence[tuple[str, BBox]],
) -> Tensor:
    """Token-hash embedding plus the four coordinate-bucket embeddings."""
    if len(tokens) > config.max_tokens:
        raise TokenOverflowError(
            f"{len(tokens)} tokens exceed max_tokens={config.max_tokens}"
        )
    if not tokens:
        raise ValueError("cannot embed an empty token sequence")
    texts = [t for t, _ in tokens]
    boxes = [b for _, b in tokens]
    tok_ids = [fnv1a_hash(t) % config.vocab_hash_size for t in texts]
    out = gather_rows(params["enc.tok_embed"], tok_ids)
    for coord, attr in (("x0", "x0"), ("y0", "y0"), ("x1", "x1"), ("y1", "y1")):
        ids = [_coord_bucket(getattr(b, attr), config.coord_buckets) for b in boxes]
        out = out + gather_rows(params[f"enc.coord_{coord}"], ids)
    return out


@dataclass
class AttentionBias:
    """Binary token-pair matrix with one learnable scalar weight per layer.

    ``lambdas[l]`` is the weight applied at layer ``l``; ``None`` entries
    leave that layer's attention untouched.
    """

    rho: np.ndarray
    lambdas: Sequence[Optional[Tensor]]

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.ndim != 2 or self.rho.shape[0] != self.rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        if not np.isin(self.rho, (0.0, 1.0)).all():
            raise ValueError("rho entries must be 0 or 1")

    def lambda_at(self, layer: int) -> Optional[Tensor]:
        if layer >= len(self.lambdas):
            return None
        return self.lambdas[layer]


def _split_heads(x: Tensor, heads: int) -> Tensor:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def attention_weights(
    q: Tensor,
    k: Tensor,
    heads: int,
    bias: Optional[AttentionBias] = None,
    layer: int = 0,
) -> Tensor:
    """Per-head attention rows [heads, n, n]; every row sums to 1."""
    if q.shape != k.shape or len(q.shape) != 2:
        raise ValueError(f"query/key shapes must match, got {q.shape} vs {k.shape}")
    n, d = q.shape
    if d % heads:
        raise ValueError("model dim must be divisible by heads")
    logits = _split_heads(q, heads) @ _split_heads(k, heads).transpose(0, 2, 1)
    if bias is not None:
        if bias.rho.shape != (n, n):
            raise ValueError(
                f"bias matrix is {bias.rho.shape}, expected {(n, n)}"
            )
        lam = bias.lambda_at(layer)
        if lam is not None:
            # The biased logit is (q.k + lambda*rho) / sqrt(d_k): the bias
            # term shares the scaling divisor.
            logits = logits + lam * Tensor(bias.rho)
    logits = logits * (1.0 / np.sqrt(d // heads))
    return softmax_lastdim(logits)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    bias: Optional[AttentionBias] = None,
    layer: int = 0,
) -> Tensor:
    """Multi-head scaled dot-product attention over projected q/k/v."""
    if v.shape != q.shape:
        raise ValueError(f"value shape {v.shape} must match query {q.shape}")
    weights = attention_weights(q, k, heads, bias, layer)
    n, d = q.shape
    mixed = weights @ _split_heads(v, heads)
    return mixed.transpose(1, 0, 2).reshape(n, d)


def encoder_forward(
    config: EncoderConfig,
    params: ParameterStore,
    tokens: Sequence[str],
    boxes: Sequence[BBox],
    bias: Optional[AttentionBias] = None,
) -> Tensor:
    """Pre-norm transformer encoder; L=0 returns the embeddings unchanged."""
    if len(tokens) != len(boxes):
        raise ValueError("tokens and boxes must align")
    x = embed(config, params, list(zip(tokens, boxes)))
    if bias is not None and bias.rho.shape[0] != x.shape[0]:
        raise ValueError(
            f"bias matrix is {bias.rho.shape}, expected {(x.shape[0],) * 2}"
        )
    for layer in range(config.layers):
        base = f"enc.l{layer}."
        h = layer_norm(x, params[base + "ln1.gain"], params[base + "ln1.bias"])
        q = h @ params[base + "attn.Wq"] + params[base + "attn.bq"]
        k = h @ params[base + "attn.Wk"] + params[base + "attn.bk"]
        v = h @ params[base + "attn.Wv"] + params[base + "attn.bv"]
        attended = attention(q, k, v, config.heads, bias, layer)
        x = x + attended @ params[base + "attn.Wo"] + params[base + "attn.bo"]
        h = layer_norm(x, params[base + "ln2.gain"], params[base + "ln2.bias"])
        inner = (h @ params[base + "ffn.W1"] + params[base + "ffn.b1"]).relu()
        x = x + inner @ params[base + "ffn.W2"] + params[base + "ffn.b2"]
    return x


# ---------------------------------------------------------------------------
# Optimizer


def optimizer_step(
    store: ParameterStore,
    learning_rate: float,
    weight_decay: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One AdamW update (decoupled weight decay) over every stored parameter.

    Every gradient is checked before any parameter moves: a missing or
    non-finite gradient raises, naming the parameter, and leaves the store
    unchanged.
    """
    params = store.items()
    for name, p in params:
        if p.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        if not np.isfinite(p.grad).all():
            raise NonFiniteGradientError(
                f"parameter {name!r} has a non-finite gradient"
            )
    for name, p in params:
        state = store.opt_state(name)
        state["t"] += 1
        t = state["t"]
        # New moment arrays each step: updating them in place measured
        # slower per step inside the training loops.
        state["m"] = beta1 * state["m"] + (1.0 - beta1) * p.grad
        state["v"] = beta2 * state["v"] + (1.0 - beta2) * p.grad**2
        m_hat = state["m"] / (1.0 - beta1**t)
        v_hat = state["v"] / (1.0 - beta2**t)
        p.data -= learning_rate * (
            m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data
        )


# ---------------------------------------------------------------------------
# Checkpoints


def checkpoint_to_json(config: dict, store: ParameterStore) -> str:
    obj = {
        "format_version": 1,
        "config": config,
        "params": {
            name: {"shape": list(tensor.shape), "values": tensor.data.reshape(-1).tolist()}
            for name, tensor in store.items()
        },
    }
    # sort_keys + full-precision repr floats => byte-stable and lossless.
    return json.dumps(obj, sort_keys=True)


def save_checkpoint(path, config: dict, store: ParameterStore) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(config, store))
        fh.write("\n")


def checkpoint_from_json(text: str) -> tuple[dict, ParameterStore]:
    obj = json.loads(text)
    version = obj.get("format_version")
    if version != 1:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    store = ParameterStore()
    for name in sorted(obj["params"]):
        entry = obj["params"][name]
        values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        store.add(name, values)
    return obj["config"], store


def load_checkpoint(path) -> tuple[dict, ParameterStore]:
    with open(path, "r", encoding="utf-8") as fh:
        return checkpoint_from_json(fh.read())
