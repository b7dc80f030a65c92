"""Array ops, normalization, losses, optimizers, and a reverse-mode tape.

Small on purpose: float64 numpy arrays and a handful of ops.  Every op
validates shapes and rejects non-finite outputs immediately, which keeps
failures close to their cause in long training loops; an array op skips only
a check that cannot fire.  Runs use the array ops and hold parameters as
plain arrays.  The ``Tensor`` tape (each tensor keeps its parents and a
backward closure) is on no run path: the tests use it as the reference the
array ops are checked against.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

EPS_NORM = 1e-5
NORM_MOMENTUM = 0.1


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


class NormStats:
    """Per-feature running statistics with train/eval/recalibrate modes.

    Train mode normalizes with batch statistics and folds them into the
    running values with ``momentum``.  Eval mode uses the stored running
    values and never mutates.  Recalibrate mode accumulates raw sums so that
    finishing recalibration leaves the exact aggregate mean and population
    variance of everything forwarded since it began.
    """

    def __init__(self, width: int, momentum: float = NORM_MOMENTUM):
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.width = width
        self.momentum = momentum
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.mode = "train"
        self._sum = np.zeros(width)
        self._sumsq = np.zeros(width)
        self._count = 0

    def copy(self) -> "NormStats":
        dup = NormStats(self.width, self.momentum)
        dup.running_mean = self.running_mean.copy()
        dup.running_var = self.running_var.copy()
        dup.mode = self.mode
        return dup

    def begin_recalibration(self) -> None:
        self._sum = np.zeros(self.width)
        self._sumsq = np.zeros(self.width)
        self._count = 0
        self.mode = "recalibrate"

    def accumulate(self, x: np.ndarray, sums: np.ndarray | None = None) -> None:
        """Recalibrate mode: fold the raw sums of every batch of the
        (R, B, W) stack ``x`` in batch order.  ``sums``, when given, are its
        (R, 1, W) sums over axis 1, already taken."""
        if self.mode != "recalibrate":
            raise ValueError(f"accumulate runs in recalibrate mode, not {self.mode!r}")
        if x.ndim != 3 or x.shape[2] != self.width:
            raise ShapeError(f"recalibration expects (R,B,{self.width}), got {x.shape}")
        if sums is None:
            sums = x.sum(axis=1, keepdims=True)
        for s, q in zip(sums[:, 0], (x * x).sum(axis=1)):
            self._sum += s
            self._sumsq += q
        self._count += x.shape[0] * x.shape[1]

    def finish_recalibration(self) -> None:
        if self._count == 0:
            raise ValueError("no batches forwarded during recalibration")
        mean = self._sum / self._count
        self.running_mean[...] = mean
        np.maximum(self._sumsq / self._count - mean * mean, 0.0, out=self.running_var)
        self.mode = "eval"


def batch_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum, mean, centered values and population variance of every batch of
    ``x`` over axis -2, with that axis kept.

    ``x`` is one (B, W) batch or an (R, B, W) stack.  One sum serves the mean
    and the recalibration fold, and the centered array serves the variance
    and the normalized output.  The results equal ``x.sum``, ``x.mean`` and
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


def _fold_moments(
    stats: NormStats,
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    sums: np.ndarray | None = None,
) -> None:
    """Fold the batches of the (R, B, W) stack ``x``, with their (R, 1, W)
    moments and sums, into ``stats`` in batch order, in place, as its mode says."""
    if stats.mode == "train":
        m = stats.momentum
        for bm, bv in zip(mean[:, 0], var[:, 0]):
            stats.running_mean[...] = (1.0 - m) * stats.running_mean + m * bm
            stats.running_var[...] = (1.0 - m) * stats.running_var + m * bv
    elif stats.mode == "recalibrate":
        stats.accumulate(x, sums)
    else:
        raise ValueError(f"unknown NormStats mode {stats.mode!r}")


def _norm_moments(x: np.ndarray, stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    """The (mean, var) that the tape's ``normalize`` applies, after the
    mode's bookkeeping.

    Eval mode reads the running values.  Train and recalibrate modes use the
    batch's own moments, from ``np.mean``/``np.var`` so that the tape stays
    an independent reference for ``batch_moments``, and fold them into
    ``stats`` as the mode prescribes.
    """
    if x.ndim != 2 or x.shape[1] != stats.width:
        raise ShapeError(f"normalize expects (B,{stats.width}), got {x.shape}")
    if stats.mode == "eval":
        return stats.running_mean, stats.running_var
    bm = x.mean(axis=0)
    bv = x.var(axis=0)
    _fold_moments(stats, x[None], bm[None, None], bv[None, None])
    return bm, bv


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


def normalize(x: Tensor, stats: NormStats) -> Tensor:
    mean, var = _norm_moments(x.data, stats)
    inv = 1.0 / np.sqrt(var + EPS_NORM)
    centered = x.data - mean
    data = centered * inv
    if stats.mode == "eval":

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


def normalize_array(x: np.ndarray, stats: NormStats | None) -> np.ndarray:
    """``normalize`` on one (B, W) batch or an (R, B, W) stack of batches
    that share ``stats``.

    Eval mode applies the running values.  Train and recalibrate modes
    normalize every batch with its own moments and fold the batches into
    ``stats`` in order, as R separate calls would.  With ``stats`` None each
    batch uses its own moments and nothing is folded: train mode's output
    without its bookkeeping.
    """
    width = x.shape[-1] if stats is None else stats.width
    if x.ndim not in (2, 3) or x.shape[-1] != width:
        raise ShapeError(f"normalize expects (B,{width}) or (R,B,{width}), got {x.shape}")
    if stats is not None and stats.mode == "eval":
        out = x - stats.running_mean
        out *= 1.0 / np.sqrt(stats.running_var + EPS_NORM)
        return _check_finite(out, "normalize")
    stack = x.reshape((-1,) + x.shape[-2:])
    sums, mean, centered, var = batch_moments(stack)
    if stats is not None:
        _fold_moments(stats, stack, mean, var, sums)
    centered *= 1.0 / np.sqrt(var + EPS_NORM)
    return _check_finite(centered.reshape(x.shape), "normalize")


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
    y: np.ndarray, running: tuple[np.ndarray, ...], rows: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train-mode ``normalize`` of a (n, B, W) stack, batch k folded into row
    ``rows[k]`` of the (S, W) running mean and variance ``running``.

    Returns the output and what the backward needs: the centered stack and
    the (n, 1, W) inverse deviations.  Each batch's moments equal its own
    axis-0 moments bit for bit.  The rows are distinct, so one gather and one
    scatter fold every batch as ``normalize`` folds it into a default ``NormStats`` on its row.
    """
    m, (means, variances) = NORM_MOMENTUM, running
    if y.ndim != 3 or y.shape[0] != len(rows) or y.shape[2] != means.shape[1]:
        raise ShapeError(f"normalize stack expects ({len(rows)},B,{means.shape[1]}), got {y.shape}")
    _, mean, centered, var = batch_moments(y)
    means[rows] = (1.0 - m) * means[rows] + m * mean[:, 0]
    variances[rows] = (1.0 - m) * variances[rows] + m * var[:, 0]
    inv = 1.0 / np.sqrt(var + EPS_NORM)
    return _check_finite(centered * inv, "normalize"), centered, inv


def softmax_cross_entropy_array(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """``softmax_cross_entropy`` and its backward without the graph: the mean
    loss and d(loss)/d(logits)."""
    labels = np.asarray(labels)
    log_probs, loss = _log_softmax_loss(logits, labels)
    _check_finite(np.asarray(loss), "softmax_cross_entropy")
    return float(loss), _log_softmax_loss_grad(log_probs, labels, 1.0)


def average_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``scale(add(*arrays), 1 / len(arrays))`` without the graph; only the sum can overflow."""
    _check_add_shapes(arrays)
    data = arrays[0].copy()
    for a in arrays[1:]:
        data += a
    _check_finite(data, "add")
    return np.multiply(data, 1.0 / len(arrays), out=data)


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


def state_hash(params: Mapping[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(str(params[name].shape).encode())
        h.update(params[name].astype("<f8").tobytes())
    return h.hexdigest()
