"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for a small transformer encoder and pair-scoring heads:
elementwise arithmetic with broadcasting, (batched) matrix products, lookups,
reductions, shape moves, and softmax / layer norm / linear projections as
single nodes with closed-form backward. All arithmetic is float64; numpy's
BLAS may run large products on several threads, and for a given thread
count forward and backward passes are exactly reproducible.

Backward traversal is iterative (explicit topological order), so graph depth
is not limited by the interpreter recursion limit. A node's first gradient is
stored as a private copy, unless its backward function hands over a fresh
array that nothing else holds, and later ones are added into it in place, so
no gradient buffer is ever shared between nodes. Backward consumes the graph:
each node lets go of its parents once it has handed its gradient on, so the
arrays of the part already traversed are freed while the rest still runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class AutodiffError(RuntimeError):
    pass


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "grad_rows", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        # The rows of ``grad`` that ``gather_rows`` wrote; None if it wrote none.
        self.grad_rows: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this node's gradient. ``fresh`` hands over an
        array that only the caller holds: as the first gradient it becomes
        ``self.grad`` itself."""
        if self.grad is None:
            # Otherwise a copy, never a view: backward functions hand on views
            # of their own gradient, or one array to two parents, which later
            # in-place additions must not reach.
            self.grad = np.asarray(grad, np.float64) if fresh else np.array(grad, np.float64)
        else:
            self.grad += grad

    def backward(self) -> None:
        if self.data.size != 1:
            raise AutodiffError("backward requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Every consumer of this node has run, so nothing needs its
            # closure again; dropping it frees what only the graph held.
            node._parents, node._backward = (), None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(
            self.data + other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(
            self.data * other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(
            self.data / other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        # Constant exponent only; enough for squares and square roots.
        exponent = float(exponent)
        out = Tensor(self.data**exponent, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        out = Tensor(
            a @ b, self.requires_grad or other.requires_grad, (self, other)
        )

        def backward(grad):
            # Promote 1D operands to matrices so one rule covers every case.
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            g = grad
            if b.ndim == 1:
                g = np.expand_dims(g, -1)
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            if self.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape)
                self._accumulate(ga.reshape(a.shape))
            if other.requires_grad:
                gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape)
                other._accumulate(gb.reshape(b.shape))

        out._backward = backward
        return out

    # -- elementwise functions ---------------------------------------------

    def exp(self):
        value = np.exp(self.data)
        out = Tensor(value, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * value)

        out._backward = backward
        return out

    def relu(self):
        # Bit for bit np.where(x > 0, x, 0.0) without its branchy select:
        # np.maximum may return either zero for x = -0.0, and adding +0.0
        # turns -0.0 into +0.0 and leaves every other value as it is. A NaN
        # input propagates instead of becoming 0.0.
        value = np.maximum(self.data, 0.0)
        value += 0.0
        out = Tensor(value, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0), fresh=True)

        out._backward = backward
        return out

    # -- reductions and shape moves ----------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), self.requires_grad, (self,))

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [
                    1 if i in axes else s for i, s in enumerate(self.data.shape)
                ]
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = Tensor(self.data.reshape(shape), self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        out._backward = backward
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        out = Tensor(self.data.transpose(axes), self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        out._backward = backward
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def gather_rows(tables: Sequence[Tensor], indices: Sequence) -> Tensor:
    """Embedding lookup: the rows of each table at its integer index list,
    summed in table order, as one node.

    Backward adds into the touched rows of each table's ``grad`` in place;
    the dense table gradient is allocated only when the table has none yet.
    It also marks those rows in the table's ``grad_rows``, a boolean mask
    over the table's rows that, like ``grad``, accumulates over backward
    passes until ``ParameterStore.zero_grads`` clears it. ``optimizer_step``
    treats exactly the parameters with a mask as lookup tables, so a table's
    gradient must come from this node alone. The gradient rows of each
    index list are ordered by a stable sort of the indices and summed per
    distinct row by one ``np.add.reduceat``, so the result may differ from
    sequential ``np.add.at`` in the last bits.
    """
    idxs = [np.asarray(i, dtype=np.int64) for i in indices]
    data = tables[0].data[idxs[0]]
    for t, idx in zip(tables[1:], idxs[1:]):
        data = data + t.data[idx]
    out = Tensor(data, any(t.requires_grad for t in tables), tuple(tables))

    def backward(grad):
        for t, idx in zip(tables, idxs):
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                if t.grad_rows is None:
                    t.grad_rows = np.zeros(len(t.data), dtype=bool)
                order = np.argsort(idx, kind="stable")
                ids = idx[order]
                starts = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))
                rows = ids[starts]
                t.grad[rows] += np.add.reduceat(grad[order], starts)
                t.grad_rows[rows] = True

    out._backward = backward
    return out


def linear(
    x: Tensor, weight: Tensor, bias: Tensor, residual: Optional[Tensor] = None
) -> Tensor:
    """``x @ weight + bias`` over (n, in) rows, as one node.

    With ``residual`` the node computes ``residual + x @ weight + bias``, in
    that order of additions. Forward values and gradients are bit-identical
    to the composite of primitive ops; the node just keeps no intermediate
    product or its gradient.
    """
    parents = (x, weight, bias) if residual is None else (x, weight, bias, residual)
    product = x.data @ weight.data
    if residual is None:
        data = product + bias.data
    else:
        data = residual.data + product + bias.data
    out = Tensor(data, any(p.requires_grad for p in parents), parents)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T, fresh=True)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad, fresh=True)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), fresh=True)
        if residual is not None and residual.requires_grad:
            residual._accumulate(grad)

    out._backward = backward
    return out


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis, as one node.

    Backward is ``y * (grad - sum(grad * y))`` over the last axis.
    """
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, x.requires_grad, (x,))

    def backward(grad):
        if x.requires_grad:
            x._accumulate(y * (grad - (grad * y).sum(axis=-1, keepdims=True)), fresh=True)

    out._backward = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node. With ``xhat`` the normalized input, ``std`` the standard
    deviation (1e-5 added to the variance) and ``g = grad * gain``, the input
    gradient is ``(g - mean(g) - xhat * mean(g * xhat)) / std``.
    """
    scale = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    std = ((centered * centered).sum(axis=-1, keepdims=True) * scale + 1e-5) ** 0.5
    xhat = centered / std
    out = Tensor(
        xhat * gain.data + bias.data,
        x.requires_grad or gain.requires_grad or bias.requires_grad,
        (x, gain, bias),
    )

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(grad * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        if x.requires_grad:
            g = grad * gain.data
            g_mean = g.sum(axis=-1, keepdims=True) * scale
            gx_mean = (g * xhat).sum(axis=-1, keepdims=True) * scale
            x._accumulate((g - g_mean - xhat * gx_mean) / std, fresh=True)

    out._backward = backward
    return out


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor] | Iterable[tuple[str, Tensor]],
    step: float = 1e-5,
    samples_per_param: int = 3,
) -> float:
    """Worst relative disagreement between backprop and central differences.

    ``loss_fn`` must be a deterministic closure over ``params`` returning a
    scalar Tensor. A few coordinates per parameter are probed (first element
    always included, the rest sampled deterministically).
    """
    params = dict(params)
    rng = np.random.default_rng(0)

    for p in params.values():
        p.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise AutodiffError("loss is not finite")
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    worst = 0.0
    for name in sorted(params):
        p = params[name]
        flat = p.data.reshape(-1)
        size = flat.size
        coords = {0} | {
            int(c) for c in rng.integers(0, size, size=min(samples_per_param, size))
        }
        for c in sorted(coords):
            original = flat[c]
            flat[c] = original + step
            plus = loss_fn().item()
            flat[c] = original - step
            minus = loss_fn().item()
            flat[c] = original
            fd = (plus - minus) / (2.0 * step)
            bp = analytic[name].reshape(-1)[c]
            rel = abs(fd - bp) / max(abs(fd), abs(bp), 1e-3)
            worst = max(worst, rel)
    return worst
