"""Shared-weight multi-branch network over a search subset.

Candidate operations are two-affine blocks (an expansion or low-rank
bottleneck, a nonlinearity, and a per-branch normalization) so branches have
genuinely different capacity and cost without any convolution machinery.
A multi-branch layer averages its selected branch outputs; normal layers
average the identity path in as well.  Training samples one architecture per
batch uniformly, so only the touched branches receive gradient.  A step runs
one explicit backward per layer in the float order of the ``Tensor`` tape in
``nn`` and steps each touched branch's flat parameter block in place; the
tests build the tape forward over the blocks' named views.  Evaluation
recalibrates fresh normalization statistics of the selected branches on
training batches before scoring validation accuracy.  It runs on a no-grad
path over plain arrays: ``evaluate(cache, architectures)`` scores a batch of
architectures on the stem outputs an ``InferenceCache`` holds for one set of
trained weights, in two sweeps of one layer walk that differ only in how a
branch output is normalized.  The walk takes its rows in blocks of at most
``EVAL_ROWS``, makes each layer-0 branch output once per block for the whole
batch, and folds a layer's branch outputs into its average as they are made.
The first sweep walks the recalibration batches, one (R, B, W) stack, in
blocks of whole batches: each branch normalizes with each batch's own
moments and folds their sums into a ``Recalibration``.  The second walks the
validation split with the (mean, inv) pairs that ``normalize_fixed`` applies.
Since recalibration starts from scratch, training normalizes with each
batch's moments and keeps no running statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Annotated, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# affine and normalize, the tape ops that the tests use as their reference,
# are on no path of this module; they stay importable here because
# bench/child.py wraps them by this path.
from .nn import (
    SGD,
    Recalibration,
    affine,  # noqa: F401
    affine_array,
    affine_stack,
    average_arrays,
    normalize,  # noqa: F401
    normalize_fixed,
    normalize_train_grad,
    normalize_train_stack,
    relu_array,
    softmax_cross_entropy_array,
    tanh_array,
)
from .resources import CostTable
from .rng import make_rng
from .space import (
    NORMAL,
    REDUCTION,
    Architecture,
    DeclaredOp,
    GateSampler,
    SearchSpacePool,
    SpaceError,
    SubsetState,
)


def toy_op_family() -> list[DeclaredOp]:
    """Twelve distinct block kinds: expansion blocks and low-rank blocks."""
    family = []
    for act in ("relu", "tanh"):
        for expand in (1, 2, 4):
            family.append(DeclaredOp(kind=f"mlp_{act}", params={"expand": expand}))
    for act in ("relu", "tanh"):
        for rank in (1, 2, 4):
            family.append(DeclaredOp(kind=f"lowrank_{act}", params={"rank": rank}))
    return family


@dataclass
class NetworkGeometry:
    input_dim: int
    stem_width: int
    layer_widths: tuple[int, ...]
    classes: int

    def w_in(self, layer_index: int) -> int:
        if layer_index == 0:
            return self.stem_width
        return self.layer_widths[layer_index - 1]

    def w_out(self, layer_index: int) -> int:
        return self.layer_widths[layer_index]

    def validate_roles(self, roles: Sequence[str]) -> None:
        if len(roles) != len(self.layer_widths):
            raise ValueError("layer_widths must match the number of layers")
        for li, role in enumerate(roles):
            same = self.w_in(li) == self.w_out(li)
            if role == NORMAL and not same:
                raise ValueError(f"normal layer {li} must preserve width")
            if role == REDUCTION and same:
                raise ValueError(f"reduction layer {li} must change width")


@dataclass
class TrainingConfig:
    steps: Annotated[int, "[0, inf)"] = 400
    batch_size: Annotated[int, "[1, inf)"] = 128
    lr: Annotated[float, "(0, inf)"] = 0.1
    momentum: Annotated[float, "[0, 1)"] = 0.9
    nesterov: bool = True
    weight_decay: Annotated[float, "[0, inf)"] = 4e-5
    warmup_steps: Annotated[int, "[0, inf)"] = 20
    indicator_lr: Annotated[float, "(0, inf)"] = 0.1


@dataclass
class DatasetConfig:
    seed: int = 0
    input_dim: Annotated[int, "[1, inf)"] = 16
    classes: Annotated[int, "[1, inf)"] = 4
    train_size: Annotated[int, "[1, inf)"] = 8000
    val_size: Annotated[int, "[1, inf)"] = 2000
    clusters_per_class: Annotated[int, "[1, inf)"] = 2
    noise: float = 0.6
    radius: float = 2.0


@dataclass
class ToyDataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray

    @staticmethod
    def generate(cfg: DatasetConfig) -> "ToyDataset":
        """Seeded mixture with antipodal cluster pairs per class.

        Each class places its clusters at +v and -v, so no linear map can
        separate the classes and branch expressivity genuinely matters.
        """
        rng = make_rng(cfg.seed, "dataset")
        centers = []
        for _ in range(cfg.classes):
            class_centers = []
            for pair in range(math.ceil(cfg.clusters_per_class / 2)):
                v = rng.normal(size=cfg.input_dim)
                v = v / np.linalg.norm(v) * cfg.radius
                class_centers.append(v)
                class_centers.append(-v)
            centers.append(class_centers[: cfg.clusters_per_class])
        centers = np.array(centers)  # (classes, clusters_per_class, input_dim)

        def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
            counts = [n // cfg.classes + (1 if c < n % cfg.classes else 0) for c in range(cfg.classes)]
            labels = np.repeat(np.arange(cfg.classes), counts)
            labels = labels[rng.permutation(n)]
            cluster_pick = rng.integers(0, cfg.clusters_per_class, size=n)
            x = centers[labels, cluster_pick]
            x += cfg.noise * rng.normal(size=(n, cfg.input_dim))
            return x, labels

        x_train, y_train = draw(cfg.train_size)
        x_val, y_val = draw(cfg.val_size)
        return ToyDataset(x_train, y_train, x_val, y_val)


class BatchStream:
    """Cycles through a split in shuffled minibatches, reshuffling per epoch."""

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.x = x
        self.y = y
        self.batch_size = batch_size
        self.rng = rng
        self._order = rng.permutation(len(x))
        self._cursor = 0

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + self.batch_size > len(self.x):
            self._order = self.rng.permutation(len(self.x))
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.x[idx], self.y[idx]


# ---------------------------------------------------------------------------
# Costs


def _hidden_width(kind: str, params: Mapping[str, float], w_out: int) -> int:
    if kind.startswith("mlp"):
        return int(params["expand"]) * w_out
    if kind.startswith("lowrank"):
        return int(params["rank"])
    raise SpaceError(f"unknown op kind {kind!r}")


def op_cost(kind: str, params: Mapping[str, float], w_in: int, w_out: int, unit_scale: float = 1e-3) -> float:
    h = _hidden_width(kind, params, w_out)
    return (w_in * h + h * w_out) * unit_scale


def build_cost_table(
    pool: SearchSpacePool, geometry: NetworkGeometry, unit_scale: float = 1e-3
) -> CostTable:
    cost = {}
    for layer in pool.layers:
        w_in = geometry.w_in(layer.layer_index)
        w_out = geometry.w_out(layer.layer_index)
        for op in layer.pool:
            cost[op.key] = op_cost(op.kind, op.params, w_in, w_out, unit_scale)
    overhead = (
        geometry.input_dim * geometry.stem_width
        + geometry.layer_widths[-1] * geometry.classes
    ) * unit_scale
    return CostTable(cost=cost, fixed_overhead=overhead, unit="kmac")


# ---------------------------------------------------------------------------
# Shared weights


_ARRAY_ACTS = {"relu": relu_array, "tanh": tanh_array}
# d(act)/d(input) times a fresh g, written over g, from the activation's output:
# relu's output is positive exactly where its input is, and tanh' = 1 - tanh^2
_ACT_GRADS = {
    "relu": lambda g, out: np.multiply(g, out > 0, out=g),
    "tanh": lambda g, out: np.multiply(g, 1.0 - out * out, out=g),
}


@dataclass
class Branch:
    """One candidate operation, resolved once: its block, activation, and
    parameter and gradient views in w1, b1, w2, b2 order."""

    key: str
    act: str
    params: tuple[np.ndarray, ...]
    grads: tuple[np.ndarray, ...]


@dataclass
class LayerTrace:
    """What one layer's backward needs from the train-mode forward."""

    x: np.ndarray  # the layer input
    slots: tuple[int, ...]  # selected slots, ascending
    ops: list[Branch]  # the selected branches, in slot order
    hidden: list[np.ndarray]  # each branch's activation output
    centered: np.ndarray | None  # (n, B, W) centered second-affine outputs
    inv: np.ndarray | None  # (n, 1, W) inverse batch deviations
    out: np.ndarray  # the layer output
    other: np.ndarray | None  # the mix of the ``also`` slots on x, if given


@dataclass
class TrainRecord:
    """A train-mode forward pass: its input, per-layer traces and logits."""

    x: np.ndarray
    layers: list[LayerTrace]
    features: np.ndarray  # the head's input
    logits: np.ndarray


class SharedWeights:
    """Parameter blocks for one round's subset.

    ``blocks`` holds "stem", "head" and each "L<li>.S<slot>" branch as one flat
    array that ``params`` views by name (write into those views, never rebind
    them); ``grad_blocks``/``grad_views`` match.
    """

    def __init__(self, subset: SubsetState, geometry: NetworkGeometry, seed: int):
        geometry.validate_roles(subset.roles)
        self.geometry = geometry
        self.roles = subset.roles
        self.seed = seed
        self.params: dict[str, np.ndarray] = {}
        self.blocks: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        self.grad_blocks: dict[str, np.ndarray] = {}
        self.branches: dict[tuple[int, int], Branch] = {}
        self._build(subset)

    def _build(self, subset: SubsetState) -> None:
        g = self.geometry
        self._block("stem", [("w", (g.input_dim, g.stem_width)), ("b", (g.stem_width,))])
        self._block("head", [("w", (g.layer_widths[-1], g.classes)), ("b", (g.classes,))])
        for op in (entry.descriptor for layer in subset.layers for entry in layer):
            li, slot = op.key
            w_in, w_out = g.w_in(li), g.w_out(li)
            h = _hidden_width(op.kind, op.params, w_out)
            key = f"L{li}.S{slot}"
            shapes = [(w_in, h), (h,), (h, w_out), (w_out,)]
            views = self._block(key, zip(("w1", "b1", "w2", "b2"), shapes))
            self.branches[op.key] = Branch(key, op.kind.rsplit("_", 1)[1], *views)

    def _block(self, key: str, parts) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Block ``key``, its gradient block and their ``key.part`` views of the
        (part, shape) ``parts``; weights are drawn by name, biases start at 0."""
        names, shapes = zip(*[(f"{key}.{part}", shape) for part, shape in parts])
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self.blocks[key], self.grad_blocks[key] = np.zeros(ends[-1]), np.empty(ends[-1])
        for name, shape, start, end in zip(names, shapes, [0] + ends, ends):
            self.params[name] = self.blocks[key][start:end].reshape(shape)
            self.grad_views[name] = self.grad_blocks[key][start:end].reshape(shape)
            if len(shape) == 2:
                rng = make_rng(self.seed, "init", name)
                self.params[name][...] = rng.normal(size=shape) * math.sqrt(2.0 / shape[0])
        return tuple(self.params[n] for n in names), tuple(self.grad_views[n] for n in names)

    # -- training pass (plain arrays, one explicit backward per layer)

    def train_forward(
        self, layers: Sequence[tuple[int, ...]], x: np.ndarray, also: Sequence | None = None
    ) -> TrainRecord:
        """Train-mode forward of one slot tuple per layer that records what
        ``train_backward`` needs.

        Gives the tape forward's logits bit for bit.  A layer's branches share
        its input and output width, so their second affines are written into
        one (n, B, W) stack that is normalized in one call; the matmuls stay
        per branch, which keeps BLAS's summation order.

        ``also`` is a second configuration's slot tuples: each layer stacks
        its ``layers`` slots first, then the ``also`` slots they lack, and
        its trace's ``other`` mixes the ``also`` rows.  Each slice normalizes
        alone, so ``other`` is that configuration's own layer output bit for
        bit; the trace keeps only the leading rows, for the backward.
        """
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        h = affine_array(x, p["stem.w"], p["stem.b"])
        traces = []
        for li, slots in enumerate(layers):
            second = None if also is None else also[li]
            traces.append(self._layer_train_forward(li, slots, h, second))
            h = traces[-1].out
        logits = affine_array(h, p["head.w"], p["head.b"])
        return TrainRecord(x, traces, h, logits)

    def _layer_train_forward(
        self, li: int, slots: tuple[int, ...], x: np.ndarray, also: tuple[int, ...] | None
    ) -> LayerTrace:
        stack = list(slots) + [slot for slot in also or () if slot not in slots]
        n, ops = len(slots), [self.branches[(li, slot)] for slot in stack]
        hidden, out, centered, inv = [], (), None, None
        if ops:
            hidden, ys = self._stack_affines(ops, x)
            out, centered, inv, _ = normalize_train_stack(ys)
            centered, inv = centered[:n], inv[:n]
        mixed = self.layer_mix(li, x, out[:n])
        other = None if also is None else self.layer_mix(li, x, (out[stack.index(s)] for s in also))
        return LayerTrace(x, slots, ops[:n], hidden[:n], centered, inv, mixed, other)

    def train_backward(
        self, record: TrainRecord, dlogits: np.ndarray, param_grads: bool = True
    ) -> list[np.ndarray]:
        """Backward of ``record`` from d(loss)/d(logits).

        Returns the gradient of every layer's output.  With ``param_grads``,
        the gradients of the parameters the forward touched are written into
        their ``grad_views`` (so into ``grad_blocks``), which the next backward
        overwrites.  The float operations follow the tape's order, so the
        results equal ``Tensor.backward`` bit for bit.
        """
        p, gv = self.params, self.grad_views
        if param_grads:
            np.matmul(record.features.T, dlogits, out=gv["head.w"])
            dlogits.sum(axis=0, out=gv["head.b"])
        g = dlogits @ p["head.w"].T
        out_grads = []
        for li in reversed(range(len(record.layers))):
            out_grads.append(g)
            if li == 0 and not param_grads:
                break  # layer 0's backward feeds only parameter gradients
            g = self._layer_backward(li, record.layers[li], g, param_grads)
        if param_grads:
            np.matmul(record.x.T, g, out=gv["stem.w"])
            g.sum(axis=0, out=gv["stem.b"])
        return out_grads[::-1]

    def _layer_backward(
        self, li: int, trace: LayerTrace, g: np.ndarray, param_grads: bool
    ) -> np.ndarray:
        """Gradient of the layer input given ``g`` at its output; with
        ``param_grads``, branch parameter gradients are written into their
        views.

        The tape's order: the identity part's ``g * alpha`` comes first, then
        each branch's ``da @ w1.T`` in sorted-slot order as a left fold, in
        place; a one-part layer has no scale, so a normal layer's ``g`` is fresh.
        """
        if not trace.slots:
            return g
        normal = self.roles[li] == NORMAL
        parts = len(trace.slots) + normal
        if parts > 1:
            g = g * (1.0 / parts)
        dy = normalize_train_grad(g, trace.centered, trace.inv)
        if param_grads:
            db2 = dy.sum(axis=1)
        dx = g if normal else None
        for k, op in enumerate(trace.ops):
            w1, _, w2, _ = op.params
            r = trace.hidden[k]
            da = _ACT_GRADS[op.act](dy[k] @ w2.T, r)
            if param_grads:
                gw1, gb1, gw2, gb2 = op.grads
                np.matmul(trace.x.T, da, out=gw1)
                da.sum(axis=0, out=gb1)
                np.matmul(r.T, dy[k], out=gw2)
                gb2[...] = db2[k]
            dx = da @ w1.T if dx is None else np.add(dx, da @ w1.T, out=dx)
        return dx

    def _layer_parts(self, layer_index: int, x, branches: Iterable) -> Iterator:
        """What a layer averages, in order: the identity on normal layers, then
        its branches, taken from ``branches`` only as they are read."""
        branches = iter(branches)
        if self.roles[layer_index] == NORMAL:
            return itertools.chain([x], branches)
        first = next(branches, None)
        if first is None:
            raise SpaceError(
                f"reduction layer {layer_index} forwarded with no gates (zero divisor)"
            )
        return itertools.chain([first], branches)

    # -- no-grad machinery (plain arrays, for inference)

    def _hidden(self, op: Branch, x: np.ndarray) -> np.ndarray:
        """A branch's first affine and activation, on a batch or a stack; the
        activation overwrites the fresh affine output."""
        h = affine_array(x, op.params[0], op.params[1])
        return _ARRAY_ACTS[op.act](h, out=h)

    def _stack_affines(self, ops: list[Branch], x: np.ndarray) -> tuple[list, np.ndarray]:
        """The branches' activation outputs on one (B, I) input, and their
        second affines as one (n, B, W) stack, each slice a separate gemm."""
        hidden = [self._hidden(op, x) for op in ops]
        w2s, b2s = zip(*(op.params[2:] for op in ops))
        return hidden, affine_stack(hidden, w2s, b2s)

    def branch_affines(self, layer_index: int, slot: int, x: np.ndarray) -> np.ndarray:
        """A branch's output before its normalization."""
        op = self.branches[(layer_index, slot)]
        return affine_array(self._hidden(op, x), op.params[2], op.params[3])

    def layer_mix(
        self, layer_index: int, x: np.ndarray, branches: Iterable[np.ndarray]
    ) -> np.ndarray:
        """A layer's average of its branch outputs, each folded in as it arrives."""
        return average_arrays(self._layer_parts(layer_index, x, branches))


# ---------------------------------------------------------------------------
# Training and evaluation


def train_step(
    weights: SharedWeights,
    sampler: GateSampler,
    batch: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    optimizer: SGD,
) -> float:
    """One architecture drawn by ``sampler``, one gradient step on its branches.

    Training passes ``GateSampler.uniform`` of the current subset.
    """
    arch = sampler.decode(sampler.draw(rng, 1)[0].tolist())
    return train_step_fixed(weights, arch, batch, optimizer)


def train_step_fixed(
    weights: SharedWeights,
    arch: Architecture,
    batch: tuple[np.ndarray, np.ndarray],
    optimizer: SGD,
) -> float:
    """One step of ``arch``'s branches, stem and head, each stepped as one block."""
    x, y = batch
    record = weights.train_forward(arch.layers, x)
    loss, dlogits = softmax_cross_entropy_array(record.logits, y)
    weights.train_backward(record, dlogits)
    touched = ["stem", "head"] + [op.key for trace in record.layers for op in trace.ops]
    optimizer.step(weights.blocks, {key: weights.grad_blocks[key] for key in touched})
    return loss


def make_recal_batches(
    dataset: ToyDataset, count: int, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The recalibration set: ``count`` batches of ``batch_size`` training
    rows as one (R, B, I) array, drawn by one ``rng.choice`` call, with
    replacement only when the training split is too small."""
    total = count * batch_size
    replace = total > len(dataset.x_train)
    idx = rng.choice(len(dataset.x_train), size=total, replace=replace)
    return dataset.x_train[idx].reshape(count, batch_size, -1)


Stats = tuple[np.ndarray, np.ndarray]  # a branch's recalibrated (mean, inv)

# Evaluation runs both sweeps over blocks of at most this many rows, so its
# memory does not grow with the recal stack or the validation split.  A row's
# outputs do not depend on the rows in its block, so this caps memory only.
EVAL_ROWS = 512


class InferenceCache:
    """Architecture-independent evaluation work for one set of trained weights.

    Holds the stem outputs of the recalibration set, ``make_recal_batches``'
    (R, B, I) array, as one (R, B, W) stack, and of the whole validation
    split, as one (V, W) array with its labels.  The cache is valid only
    while the weights do not change: build it after training.
    """

    def __init__(self, weights: SharedWeights, dataset: ToyDataset, recal: np.ndarray):
        self.weights = weights
        w, b = weights.params["stem.w"], weights.params["stem.b"]

        def stem(x: np.ndarray) -> np.ndarray:
            return affine_array(np.asarray(x, dtype=np.float64), w, b)

        self.recal = stem(recal)
        self.val = stem(dataset.x_val)
        self.labels = dataset.y_val

    def val_logits(
        self, architectures: Sequence[Architecture]
    ) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        """The validation split in blocks of ``EVAL_ROWS`` rows: each block's
        labels and every architecture's logits on it, with the selected
        branches' statistics recalibrated first.

        Two sweeps over the batch: the first recalibrates every architecture's
        statistics on the recal stack, and only then does the second apply
        them to the validation split.  Both walk each architecture over their
        rows block by block with ``_walk``.
        """
        archs = [architecture.layers for architecture in architectures]
        stats = self._recalibrate(archs)
        w, b = self.weights.params["head.w"], self.weights.params["head.b"]
        for start in range(0, len(self.labels), EVAL_ROWS):
            x, layer0 = self.val[start : start + EVAL_ROWS], {}
            logits = [
                affine_array(self._walk(arch, x, layer0, partial(self._fixed, st)), w, b)
                for arch, st in zip(archs, stats)
            ]
            yield self.labels[start : start + EVAL_ROWS], logits

    def _recalibrate(self, archs: list[Sequence[tuple[int, ...]]]) -> list[list[list[Stats]]]:
        """The first sweep: each architecture's (mean, inv) of every selected
        branch, per layer in slot order.  The recal stack is walked in blocks
        of whole batches; each branch folds every block into its
        ``Recalibration``, and a layer-0 slot's is shared by the batch, as its
        output is."""
        layer0_folds: dict[int, Recalibration] = {}
        folds = [
            [
                [
                    layer0_folds.setdefault(slot, Recalibration()) if li == 0 else Recalibration()
                    for slot in slots
                ]
                for li, slots in enumerate(arch)
            ]
            for arch in archs
        ]
        per_block = max(1, EVAL_ROWS // self.recal.shape[1])
        for start in range(0, len(self.recal), per_block):
            x, layer0 = self.recal[start : start + per_block], {}
            for arch, arch_folds in zip(archs, folds):
                self._walk(arch, x, layer0, partial(self._fold, arch_folds))
        return [[[fold.stats() for fold in layer] for layer in arch] for arch in folds]

    def _fold(
        self, folds: list[list[Recalibration]], li: int, k: int, slot: int, x: np.ndarray
    ) -> np.ndarray:
        """Recalibration's branch rule: the output normalized with each
        batch's own moments, whose sums fold into the k-th fold of layer li."""
        y = self.weights.branch_affines(li, slot, x)
        out, _, _, sums = normalize_train_stack(y)
        folds[li][k].fold(y, sums)
        return out

    def _fixed(
        self, stats: list[list[Stats]], li: int, k: int, slot: int, x: np.ndarray
    ) -> np.ndarray:
        """Validation's branch rule: the output normalized with its
        recalibrated statistics."""
        return normalize_fixed(self.weights.branch_affines(li, slot, x), *stats[li][k])

    def _walk(
        self, layers: Sequence[tuple[int, ...]], x: np.ndarray, layer0: dict, branch: Callable
    ) -> np.ndarray:
        """One architecture's last layer output on one block ``x``: each layer
        mixes ``branch(li, k, slot, x)`` of its k-th selected slot.  Layer 0
        reads the stem output, so its branch outputs on a block are the same
        for every architecture: each is made once per block and shared
        through ``layer0``, which the caller drops with the block."""

        def outputs(li: int, slots: tuple[int, ...], x: np.ndarray) -> Iterator[np.ndarray]:
            for k, slot in enumerate(slots):
                if li == 0 and slot not in layer0:
                    layer0[slot] = branch(li, k, slot, x)
                yield layer0[slot] if li == 0 else branch(li, k, slot, x)

        for li, slots in enumerate(layers):
            x = self.weights.layer_mix(li, x, outputs(li, slots, x))
        return x


def evaluate(cache: InferenceCache, architectures: Sequence[Architecture]) -> list[float]:
    """Top-1 validation accuracy of each of ``architectures`` on the weights
    ``cache`` was built from, with recalibrated normalization statistics.

    Statistics are recalibrated from scratch and the weights are only read,
    so repeated evaluations leave them bit-identical, and an architecture
    scores the same in any batch.
    """
    hits = [0] * len(architectures)
    for labels, logits in cache.val_logits(architectures):
        for a, block in enumerate(logits):
            hits[a] += int(np.sum(np.argmax(block, axis=1) == labels))
    return [count / len(cache.labels) for count in hits]
