"""Array ops, normalization, losses, optimizers, and a reverse-mode tape.

Small on purpose: float64 numpy arrays and a handful of ops.  Every op
validates shapes and rejects non-finite outputs immediately, which keeps
failures close to their cause in long training loops; an array op skips only
a check that cannot fire.  Runs use the array ops and hold parameters as
plain arrays.  Normalization statistics are plain values too: a batch's own
moments, or the (mean, inv) pair that a ``Recalibration`` folds from scratch;
nothing keeps running statistics.  The ``Tensor`` tape (each tensor keeps
its parents and a backward closure) is on no run path: the tests use it as
the reference the array ops are checked against.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

EPS_NORM = 1e-5


class NotFiniteError(FloatingPointError):
    pass


class ShapeError(ValueError):
    pass


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NotFiniteError(f"non-finite values produced by {op}")
    return data


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1; scalar only."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


def _node(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def clear_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# Ops


def _check_affine_shapes(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stacked: bool = False
) -> None:
    """``stacked`` also admits an (R, B, I) stack of inputs."""
    if x.ndim not in ((2, 3) if stacked else (2,)) or w.ndim != 2 or b.ndim != 1:
        raise ShapeError("affine expects x:(B,I) w:(I,O) b:(O,)")
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine shape mismatch: x{x.shape} w{w.shape} b{b.shape}")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    _check_affine_shapes(x.data, w.data, b.data)
    data = x.data @ w.data + b.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _node(data, (x, w, b), backward, "affine")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), backward, "relu")


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * (1.0 - t * t))

    return _node(t, (x,), backward, "tanh")


def _check_add_shapes(arrays: Sequence[np.ndarray]) -> None:
    if not arrays:
        raise ShapeError("add needs at least one tensor")
    for a in arrays[1:]:
        if a.shape != arrays[0].shape:
            raise ShapeError("add requires identical shapes")


def add(*tensors: Tensor) -> Tensor:
    _check_add_shapes([t.data for t in tensors])
    data = tensors[0].data.copy()
    for t in tensors[1:]:
        data += t.data

    def backward(g: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                _accumulate(t, g)

    return _node(data, tensors, backward, "add")


def scale(x: Tensor, alpha: float) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * alpha)

    return _node(x.data * alpha, (x,), backward, "scale")


def batch_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum, mean, centered values and population variance of every batch of
    ``x`` over axis -2, with that axis kept.

    ``x`` is one (B, W) batch or an (R, B, W) stack.  One sum serves the mean
    and ``Recalibration.fold``, and the centered array serves the variance and the
    normalized output.  The results equal ``x.sum``, ``x.mean`` and
    ``x.var`` over axis -2 bit for bit: numpy divides that same sum by the
    batch size, and squares the same centered values.
    """
    n = x.shape[-2]
    sums = x.sum(axis=-2, keepdims=True)
    mean = sums / n
    centered = x - mean
    var = (centered * centered).sum(axis=-2, keepdims=True)
    var /= n
    return sums, mean, centered, var


class Recalibration:
    """Fresh (mean, inv) normalization statistics of one branch, folded from
    its outputs on the recalibration batches.

    ``fold`` adds the per-batch sums and sums of squares of an (R, B, W)
    stack left to right, from zeros, so a stack folded whole or in blocks of
    whole batches gives what folding its batches one at a time does.
    ``stats`` gives the aggregate mean of every row folded so far and
    ``1 / sqrt(var + EPS_NORM)`` of its population variance.
    """

    def __init__(self) -> None:
        self.total: np.ndarray | None = None
        self.sq: np.ndarray | None = None
        self.count = 0

    def fold(self, y: np.ndarray, sums: np.ndarray | None = None) -> "Recalibration":
        """Fold the batches of ``y``; ``sums``, when given, are its (R, 1, W)
        sums over axis 1, already taken."""
        if y.ndim != 3 or (self.total is not None and y.shape[2] != len(self.total)):
            raise ShapeError(f"recalibration expects (R,B,W) of one width, got {y.shape}")
        if self.total is None:
            self.total, self.sq = np.zeros(y.shape[2]), np.zeros(y.shape[2])
        if sums is None:
            sums = y.sum(axis=1, keepdims=True)
        for s, q in zip(sums[:, 0], (y * y).sum(axis=1)):
            self.total += s
            self.sq += q
        self.count += y.shape[0] * y.shape[1]
        return self

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        if self.count == 0:
            raise ValueError("no rows to recalibrate on")
        mean = self.total / self.count
        var = np.maximum(self.sq / self.count - mean * mean, 0.0)
        return mean, 1.0 / np.sqrt(var + EPS_NORM)


def normalize_train_grad(g: np.ndarray, centered: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Train-mode normalize backward, reducing over the batch axis (-2).

    ``centered`` is one (B, W) batch or a (n, B, W) stack; ``g`` and ``inv``
    broadcast against it.  Summing a stack over axis -2 gives each batch's
    axis-0 sum bit for bit, so the stacked and the per-batch results agree.
    ``g * inv`` also gives the ``-g * inv`` sum; terms add in place in order.
    """
    batch = centered.shape[-2]
    g_inv = g * inv
    dvar = np.sum(g * centered, axis=-2, keepdims=True) * (-0.5) * inv**3
    dmean = -np.sum(g_inv, axis=-2, keepdims=True) + dvar * (-2.0 / batch) * centered.sum(
        axis=-2, keepdims=True
    )
    g_inv += dvar * 2.0 * centered / batch
    return np.add(g_inv, dmean / batch, out=g_inv)


def normalize(x: Tensor, fixed: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Normalize each feature of a (B, W) batch.

    Without ``fixed`` the batch's own moments are used, from
    ``np.mean``/``np.var`` so that the tape stays an independent reference
    for ``batch_moments``.  ``fixed`` is a (mean, inv) pair, as
    ``Recalibration.stats`` returns, applied as constants.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"normalize expects (B,W), got {x.shape}")
    if fixed is None:
        mean = x.data.mean(axis=0)
        inv = 1.0 / np.sqrt(x.data.var(axis=0) + EPS_NORM)
    else:
        mean, inv = fixed
        _check_fixed_shapes(x.data, mean, inv)
    centered = x.data - mean
    data = centered * inv
    if fixed is not None:

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                _accumulate(x, g * inv)

        return _node(data, (x,), backward, "normalize")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, normalize_train_grad(g, centered, inv))

    return _node(data, (x,), backward, "normalize")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels)
    log_probs, loss = _log_softmax_loss(logits.data, labels)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            _accumulate(logits, _log_softmax_loss_grad(log_probs, labels, float(g)))

    return _node(np.asarray(loss), (logits,), backward, "softmax_cross_entropy")


def _log_softmax_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    if logits.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects (B, C) logits")
    batch = logits.shape[0]
    if labels.shape != (batch,):
        raise ShapeError("labels must be a (B,) integer vector")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    return log_probs, -log_probs[np.arange(batch), labels].mean()


def _log_softmax_loss_grad(log_probs: np.ndarray, labels: np.ndarray, g: float) -> np.ndarray:
    batch = log_probs.shape[0]
    probs = np.exp(log_probs)
    probs[np.arange(batch), labels] -= 1.0
    return probs * (g / batch)


# ---------------------------------------------------------------------------
# No-grad ops: the forward expressions of the ops above on plain arrays, with
# the same shape and finite-value checks, building no graph.  Inference and
# the supernet's explicit training pass use these; they give bit-identical
# outputs to their Tensor counterparts.


def affine_array(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``affine`` on one (B, I) batch or an (R, B, I) stack of batches.  numpy
    multiplies a stack one gemm per slice, so each slice equals its own
    batch's product bit for bit."""
    _check_affine_shapes(x, w, b, stacked=True)
    out = x @ w
    out += b
    return _check_finite(out, "affine")


def relu_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``relu`` of a checked ``x``, so finite; ``out=x`` overwrites it in place."""
    return np.multiply(x, x > 0, out=out)


def tanh_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``tanh`` of a checked ``x``, so finite; ``out=x`` overwrites it in place."""
    return np.tanh(x, out=out)


def _check_fixed_shapes(x: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> None:
    width = x.shape[-1]
    if mean.shape != (width,) or inv.shape != (width,):
        raise ShapeError(
            f"normalize of (...,{width}) needs ({width},) statistics, "
            f"got {mean.shape} and {inv.shape}"
        )


def normalize_fixed(x: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``normalize`` with ``fixed=(mean, inv)`` on one (B, W) batch or an
    (R, B, W) stack of batches."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"normalize expects (B,W) or (R,B,W), got {x.shape}")
    _check_fixed_shapes(x, mean, inv)
    out = x - mean
    out *= inv
    return _check_finite(out, "normalize")


def affine_stack(
    xs: Sequence[np.ndarray], ws: Sequence[np.ndarray], bs: Sequence[np.ndarray]
) -> np.ndarray:
    """``affine_array`` of n (x, w, b) triples with one output shape, written
    into a (n, B, O) stack.  The matmuls stay separate, so each slice equals
    its own ``affine_array`` bit for bit."""
    for x, w, b in zip(xs, ws, bs):
        _check_affine_shapes(x, w, b)
        if x.shape[0] != xs[0].shape[0] or w.shape[1] != ws[0].shape[1]:
            raise ShapeError("affine stack needs one output shape")
    out = np.empty((len(xs), xs[0].shape[0], ws[0].shape[1]))
    for k, (x, w) in enumerate(zip(xs, ws)):
        np.matmul(x, w, out=out[k])
    out += np.stack(bs)[:, None, :]
    return _check_finite(out, "affine")


def normalize_train_stack(
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``normalize`` of a (n, B, W) stack, each batch with its own moments.

    Returns the output, what the backward needs (the centered stack and the
    (n, 1, W) inverse deviations) and the (n, 1, W) batch sums, which
    ``Recalibration.fold`` can reuse.  Each batch's moments equal its own axis-0
    moments bit for bit.
    """
    if y.ndim != 3:
        raise ShapeError(f"normalize stack expects (n,B,W), got {y.shape}")
    sums, _, centered, var = batch_moments(y)
    inv = 1.0 / np.sqrt(var + EPS_NORM)
    return _check_finite(centered * inv, "normalize"), centered, inv, sums


def softmax_cross_entropy_array(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """``softmax_cross_entropy`` and its backward without the graph: the mean
    loss and d(loss)/d(logits)."""
    labels = np.asarray(labels)
    log_probs, loss = _log_softmax_loss(logits, labels)
    _check_finite(np.asarray(loss), "softmax_cross_entropy")
    return float(loss), _log_softmax_loss_grad(log_probs, labels, 1.0)


def average_arrays(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """``scale(add(*arrays), 1 / n)`` of n arrays without the graph, folded left
    to right as they arrive, so a lazy ``arrays`` keeps only the sum and one
    part alive.  A lone array is returned as it is; only the sum can overflow."""
    parts = iter(arrays)
    data = next(parts, None)
    if data is None:
        raise ShapeError("add needs at least one tensor")
    n = 1
    for a in parts:
        if a.shape != data.shape:
            raise ShapeError("add requires identical shapes")
        data = data + a if n == 1 else np.add(data, a, out=data)
        n += 1
        del a  # freed before the next part is made
    if n == 1:
        return data
    _check_finite(data, "add")
    return np.multiply(data, 1.0 / n, out=data)


# ---------------------------------------------------------------------------
# Optimizers


class SGD:
    """SGD with optional Nesterov momentum and decoupled-from-nothing weight
    decay folded into the gradient, matching the common deep-learning form."""

    def __init__(
        self,
        lr: float,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        """Step each array of ``params`` named in ``grads`` in place, elementwise
        ``g + wd*p``, ``m*buf + g``, ``g + m*buf``, ``p - lr*g``: a flat block steps
        to its parts' floats.  The velocity copies ``g``, whose buffer may be reused."""
        for name, g in grads.items():
            p = params[name]
            d = g + self.weight_decay * p if self.weight_decay else g
            if self.momentum:
                buf = self._velocity.get(name)
                if buf is None:
                    buf = self._velocity[name] = d.copy()
                else:
                    buf *= self.momentum
                    buf += d
                d = d + self.momentum * buf if self.nesterov else buf
            p -= self.lr * d


def cosine_warmup_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warm-up into a cosine decay that reaches 0 at the last step."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))
