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
trained weights, in two sweeps that each walk their rows in blocks of at
most ``EVAL_ROWS`` and share layer-0 work across the batch within a block.
The recalibration batches form one (R, B, W) stack, walked in blocks of
whole batches; each branch folds every block's sums into a
``Recalibration``, whose (mean, inv) pair ``normalize_fixed`` then applies
to the validation split block by block.  A layer's branch outputs are
folded into its average as they are made.  Since recalibration starts from
scratch, training normalizes with each batch's moments and keeps no running
statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Annotated, Iterable, Iterator, Mapping, Sequence

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
    GateVector,
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
    branches: np.ndarray | None  # (n, B, W) normalized branch outputs
    out: np.ndarray  # the layer output


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
        self.kinds: dict[tuple[int, int], tuple[str, dict]] = {}
        for li in range(subset.num_layers):
            for entry in subset.layers[li]:
                op = entry.descriptor
                self.kinds[(li, op.slot_index)] = (op.kind, dict(op.params))
        self.params: dict[str, np.ndarray] = {}
        self.blocks: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        self.grad_blocks: dict[str, np.ndarray] = {}
        self.branches: dict[tuple[int, int], Branch] = {}
        self._build()

    def _build(self) -> None:
        g = self.geometry
        self._block("stem", [("w", (g.input_dim, g.stem_width)), ("b", (g.stem_width,))])
        self._block("head", [("w", (g.layer_widths[-1], g.classes)), ("b", (g.classes,))])
        for (li, slot), (kind, params) in self.kinds.items():
            w_in, w_out = g.w_in(li), g.w_out(li)
            h = _hidden_width(kind, params, w_out)
            key = f"L{li}.S{slot}"
            shapes = [(w_in, h), (h,), (h, w_out), (w_out,)]
            views = self._block(key, zip(("w1", "b1", "w2", "b2"), shapes))
            self.branches[(li, slot)] = Branch(key, kind.rsplit("_", 1)[1], *views)

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

    def train_forward(self, gates: Sequence[GateVector], x: np.ndarray) -> TrainRecord:
        """Train-mode forward that records what ``train_backward`` needs.

        Gives the tape forward's logits bit for bit.  A layer's branches share
        its input and output width, so their second affines are written into
        one (n, B, W) stack that is normalized in one call; the matmuls stay
        per branch, which keeps BLAS's summation order.
        """
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        h = affine_array(x, p["stem.w"], p["stem.b"])
        layers = []
        for li, gate in enumerate(gates):
            layers.append(self._layer_train_forward(li, gate.selected, h))
            h = layers[-1].out
        logits = affine_array(h, p["head.w"], p["head.b"])
        return TrainRecord(x, layers, h, logits)

    def _layer_train_forward(self, li: int, slots: tuple[int, ...], x: np.ndarray) -> LayerTrace:
        if not slots:
            return LayerTrace(x, slots, [], [], None, None, None, self.layer_mix(li, x, ()))
        ops = [self.branches[(li, slot)] for slot in slots]
        hidden, ys = self._stack_affines(ops, x)
        out, centered, inv, _ = normalize_train_stack(ys)
        mixed = self.layer_mix(li, x, out)
        return LayerTrace(x, slots, ops, hidden, centered, inv, out, mixed)

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

    def layer_output_nograd(
        self,
        layer_index: int,
        gate: GateVector,
        x_data: np.ndarray,
        known: Mapping[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """A configuration's train-mode layer output on a fixed layer input:
        each branch normalizes with its batch's own moments.

        ``known`` maps slots to branch outputs already computed on this input
        in train mode.  A train-mode branch output depends only on its input
        and weights, so those are mixed in as they are; the others are
        computed as one stack.
        """
        x = np.asarray(x_data, dtype=np.float64)
        known = dict(known or {})
        fresh = [slot for slot in gate.selected if slot not in known]
        if fresh:
            _, ys = self._stack_affines([self.branches[(layer_index, s)] for s in fresh], x)
            known.update(zip(fresh, normalize_train_stack(ys)[0]))
        return self.layer_mix(layer_index, x, [known[slot] for slot in gate.selected])


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
    # ``selection``, not ``decode``: each drawn architecture trains once, so
    # its gate vectors are not worth keeping in the sampler
    row = sampler.draw(rng, 1)[0].tolist()
    arch = Architecture(tuple(sampler.selection(li, m) for li, m in enumerate(row)))
    return train_step_fixed(weights, arch, batch, optimizer)


def train_step_fixed(
    weights: SharedWeights,
    arch: Architecture,
    batch: tuple[np.ndarray, np.ndarray],
    optimizer: SGD,
) -> float:
    """One step of ``arch``'s branches, stem and head, each stepped as one block."""
    x, y = batch
    record = weights.train_forward(arch.gate_vectors, x)
    loss, dlogits = softmax_cross_entropy_array(record.logits, y)
    weights.train_backward(record, dlogits)
    touched = ["stem", "head"] + [op.key for trace in record.layers for op in trace.ops]
    optimizer.step(weights.blocks, {key: weights.grad_blocks[key] for key in touched})
    return loss


def make_recal_batches(
    dataset: ToyDataset, count: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    total = count * batch_size
    replace = total > len(dataset.x_train)
    idx = rng.choice(len(dataset.x_train), size=total, replace=replace)
    return [
        dataset.x_train[idx[i * batch_size : (i + 1) * batch_size]]
        for i in range(count)
    ]


Stats = tuple[np.ndarray, np.ndarray]  # a branch's recalibrated (mean, inv)

# Evaluation runs both sweeps over blocks of at most this many rows, so its
# memory does not grow with the recal stack or the validation split.  A row's
# outputs do not depend on the rows in its block, so this caps memory only.
EVAL_ROWS = 512


class InferenceCache:
    """Architecture-independent evaluation work for one set of trained weights.

    Holds the stem outputs of the recalibration batches, as one (R, B, W)
    stack, and of the whole validation split, as one (V, W) array with its
    labels.  The cache is valid only while the weights do not change: build
    it after training.
    """

    def __init__(
        self, weights: SharedWeights, dataset: ToyDataset, recal_batches: Sequence[np.ndarray]
    ):
        self.weights = weights
        w, b = weights.params["stem.w"], weights.params["stem.b"]

        def stem(x: np.ndarray) -> np.ndarray:
            return affine_array(np.asarray(x, dtype=np.float64), w, b)

        sizes = sorted({len(xb) for xb in recal_batches})
        if len(sizes) > 1:
            raise ValueError(
                f"recalibration batches must all have one size to be stacked, got sizes {sizes}"
            )
        self.recal = stem(np.stack(recal_batches)) if sizes else None
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
        them to the validation split.  Each sweep walks its rows in blocks.
        Layer 0 reads the stem output, so its branch outputs on a block are
        the same for every architecture, and a dict local to the block shares
        them; deeper layers are computed per architecture.
        """
        gates = [architecture.gate_vectors for architecture in architectures]
        if self.recal is None and any(gv.selected for arch in gates for gv in arch):
            raise ValueError("recalibration requires at least one batch")
        stats = self._recalibrate(gates)
        for start in range(0, len(self.labels), EVAL_ROWS):
            x, layer0 = self.val[start : start + EVAL_ROWS], {}
            logits = [self._apply(arch, st, x, layer0) for arch, st in zip(gates, stats)]
            yield self.labels[start : start + EVAL_ROWS], logits

    def _recalibrate(self, gates: list[Sequence[GateVector]]) -> list[list[list[Stats]]]:
        """The first sweep: each architecture's (mean, inv) of every selected
        branch, per layer in slot order.  The recal stack is walked in blocks
        of whole batches; each branch folds every block into its
        ``Recalibration``, and a layer-0 slot's is shared by the batch, so it
        folds each block once."""
        layer0_folds: dict[int, Recalibration] = {}
        folds = [
            [
                [
                    layer0_folds.setdefault(slot, Recalibration()) if li == 0 else Recalibration()
                    for slot in gate.selected
                ]
                for li, gate in enumerate(arch)
            ]
            for arch in gates
        ]
        if self.recal is not None:
            per_block = max(1, EVAL_ROWS // self.recal.shape[1])
            for start in range(0, len(self.recal), per_block):
                x, layer0 = self.recal[start : start + per_block], {}
                for arch, arch_folds in zip(gates, folds):
                    self._fold_block(arch, arch_folds, x, layer0)
        return [[[fold.stats() for fold in layer] for layer in arch] for arch in folds]

    def _fold_block(
        self,
        gates: Sequence[GateVector],
        folds: list[list[Recalibration]],
        x: np.ndarray,
        layer0: dict,
    ) -> None:
        """One architecture's pass over one block of the recal stack, folding
        each selected branch's output into its ``folds`` entry.  A branch's
        output, fed to the next layer, is normalized with each batch's own
        moments, whose sums the fold reuses; the last layer's feeds nothing,
        so it is not formed."""
        last = len(gates) - 1

        def output(li: int, slot: int, fold: Recalibration, x: np.ndarray) -> np.ndarray | None:
            if li == 0 and slot in layer0:
                return layer0[slot]
            y = self.weights.branch_affines(li, slot, x)
            out, _, _, sums = (None,) * 4 if li == last else normalize_train_stack(y)
            fold.fold(y, sums)
            if li == 0:
                layer0[slot] = out
            return out

        def outputs(li: int, slots: tuple[int, ...], x: np.ndarray) -> Iterator[np.ndarray]:
            for slot, fold in zip(slots, folds[li]):
                yield output(li, slot, fold, x)

        for li, gate in enumerate(gates):
            if li < last:
                x = self.weights.layer_mix(li, x, outputs(li, gate.selected, x))
            else:  # the last layer gives only its statistics
                for slot, fold in zip(gate.selected, folds[li]):
                    output(li, slot, fold, x)

    def _apply(
        self, gates: Sequence[GateVector], stats: list[list[Stats]], x: np.ndarray, layer0: dict
    ) -> np.ndarray:
        """The second sweep, for one architecture and one block ``x`` of the
        validation split: its logits, each branch normalized with its
        ``stats``."""

        def output(li: int, slot: int, x: np.ndarray, st: Stats) -> np.ndarray:
            if li == 0 and slot in layer0:
                return layer0[slot]
            out = normalize_fixed(self.weights.branch_affines(li, slot, x), *st)
            if li == 0:
                layer0[slot] = out
            return out

        def outputs(li: int, slots: tuple[int, ...], x: np.ndarray) -> Iterator[np.ndarray]:
            for slot, st in zip(slots, stats[li]):
                yield output(li, slot, x, st)

        for li, gate in enumerate(gates):
            x = self.weights.layer_mix(li, x, outputs(li, gate.selected, x))
        return affine_array(x, self.weights.params["head.w"], self.weights.params["head.b"])


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
